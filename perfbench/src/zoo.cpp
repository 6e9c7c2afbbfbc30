// zoo_leveled: the paper's automated analysis pipeline over the whole model
// zoo — 55 TensorFlow models (kTFlow) and 10 MXNet models (kMXLite) at
// batch {1,4,16,64,256}, 325 leveled experiments per pass, closed loop on
// one caller thread. One experiment is
//
//   ModelInfo::build -> LeveledRunner::run (M, M/L, M/L/G, M/L/G+metrics)
//   -> A1 over the model's batch points so far, A2, A10, A14, A15,
//      stage_analysis -> to_span_json of the M/L/G timeline.
//
// The seed only permutes experiment order. Outputs are checked against the
// committed golden digests (golden_zoo.txt): the simulator is
// deterministic, so every experiment's model latency, layer/kernel counts
// and A15 aggregates must reproduce exactly, in any order.
//
// A traced run replaces the LeveledRunner::run call with its own body
// (four Session::profile calls and merge_runs) so each level is timed from
// outside; the digests prove the two paths agree.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "xsp/analysis/analyses.hpp"
#include "xsp/common/string_table.hpp"
#include "xsp/models/registry.hpp"
#include "xsp/profile/leveled.hpp"
#include "xsp/profile/model_profile.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/trace/export.hpp"

namespace xspbench {

namespace {

using namespace xsp;
using framework::FrameworkKind;

constexpr std::array<std::int64_t, 5> kBatches{1, 4, 16, 64, 256};
/// A run makes one complete pass per this many --seconds (at least one).
/// The pass count depends on --seconds only, never on how fast the code
/// runs, so every experiment's best time is over the same number of
/// samples in every run.
constexpr double kSecondsPerPass = 12.5;

struct Experiment {
  const models::ModelInfo* model = nullptr;
  FrameworkKind fw = FrameworkKind::kTFlow;
  std::int64_t batch = 1;

  [[nodiscard]] std::string model_key() const {
    return std::string(fw == FrameworkKind::kTFlow ? "tflow " : "mxlite ") +
           std::to_string(model->id);
  }
  [[nodiscard]] std::string key() const { return model_key() + " " + std::to_string(batch); }
};

/// All 325 experiments in a seed-determined order (Fisher-Yates on
/// splitmix64, so the permutation is the same on every platform).
std::vector<Experiment> corpus(std::uint64_t& rng) {
  std::vector<Experiment> out;
  const auto add = [&](const std::vector<models::ModelInfo>& zoo, FrameworkKind fw) {
    for (const models::ModelInfo& m : zoo)
      for (const std::int64_t b : kBatches) out.push_back({&m, fw, b});
  };
  add(models::tensorflow_models(), FrameworkKind::kTFlow);
  add(models::mxnet_models(), FrameworkKind::kMXLite);
  for (std::size_t i = out.size(); i > 1; --i) {
    const std::size_t j = splitmix64(rng) % i;
    std::swap(out[i - 1], out[j]);
  }
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The simulated results one experiment must reproduce. Doubles are
/// rounded to 9 significant digits so the digest pins the simulation, not
/// the last bit of a summation order.
std::uint64_t experiment_digest(const Experiment& e, const profile::ModelProfile& p,
                                const analysis::ModelAggRow& a15) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%s|%lld|%lld|%zu|%zu|%.9g|%.9g|%.9g|%.9g|%.9g|%.9g|%.9g|%d",
                e.key().c_str(), static_cast<long long>(p.model_latency),
                static_cast<long long>(p.pipeline_latency), p.layers.size(), p.kernels.size(),
                a15.model_latency_ms, a15.kernel_latency_ms, a15.gflops, a15.dram_reads_mb,
                a15.dram_writes_mb, a15.occupancy_pct, a15.arithmetic_intensity,
                a15.memory_bound ? 1 : 0);
  return fnv1a(buf);
}

/// Time spent per layer, summed over every experiment run.
struct Totals {
  std::int64_t build_ns = 0, m_ns = 0, ml_ns = 0, mlg_ns = 0, mlgm_ns = 0;
  std::int64_t merge_ns = 0, analysis_ns = 0, export_ns = 0, wall_ns = 0;
};

/// One experiment's outputs that do not depend on timing (identical on
/// every pass), and its least disturbed wall and CPU time over the passes:
/// the work is deterministic, so host interference only ever adds time.
struct Outcome {
  std::int64_t wall_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t cpu_ns = std::numeric_limits<std::int64_t>::max();
  /// The same, each run divided by the host slowdown sampled just before.
  double scaled_wall_ns = std::numeric_limits<double>::max();
  double scaled_cpu_ns = std::numeric_limits<double>::max();
  std::uint64_t spans_m = 0, spans_ml = 0, spans_mlg = 0, spans_mlgm = 0;
  std::uint64_t export_bytes = 0, unmatched = 0, ambiguous = 0, dropped = 0;

  [[nodiscard]] std::uint64_t spans() const { return spans_m + spans_ml + spans_mlg + spans_mlgm; }
};

/// LeveledRunner::run's body, with every level timed from outside.
profile::LeveledResult run_levels_traced(const sim::GpuSpec& gpu, FrameworkKind fw,
                                         const framework::Graph& graph, Ledger& ledger,
                                         std::uint32_t parent, Totals& t) {
  using profile::ProfileOptions;
  profile::LeveledResult r;
  const auto level = [&](const char* name, const ProfileOptions& o, profile::RunTrace& out,
                         std::int64_t& acc) {
    acc += timed(ledger, name, parent, [&] {
      profile::Session session(gpu, fw);
      out = session.profile(graph, o);
    });
  };
  level("profile.m", ProfileOptions::model_only(), r.m, t.m_ns);
  level("profile.ml", ProfileOptions::model_layer(), r.ml, t.ml_ns);
  level("profile.mlg", ProfileOptions::full(/*metrics=*/false), r.mlg, t.mlg_ns);
  level("profile.mlgm", ProfileOptions::full(/*metrics=*/true), r.mlgm, t.mlgm_ns);
  t.merge_ns += timed(ledger, "profile.merge", parent, [&] {
    r.profile = profile::merge_runs(r.m, r.ml, r.mlgm, graph.model_name, gpu.name,
                                    framework::framework_name(fw), graph.batch());
    r.profile.gpu_profiling_overhead = r.mlg.model_latency - r.ml.model_latency;
  });
  return r;
}

std::map<std::string, std::string> load_golden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // "<kind> <fw> <id> [<batch>] <value>": the value is the last field.
    const std::size_t cut = line.rfind(' ');
    if (cut != std::string::npos) golden[line.substr(0, cut)] = line.substr(cut + 1);
  }
  return golden;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

Report run_zoo(const RunConfig& cfg, Ledger& ledger) {
  const sim::GpuSpec& gpu = sim::tesla_v100();
  Report rep;
  rep.workload = cfg.workload;

  // Set-up: the experiment corpus plus one warm-up experiment (registry,
  // interned names, allocator). Three times up front and once before every
  // later pass (drawing that pass's order); the median is setup_s.
  std::uint64_t rng = cfg.seed;
  std::vector<Experiment> order;
  std::vector<double> setup_samples;  // scaled to the reference host speed
  std::vector<double> raw_setup_samples;
  HostSpeed host;
  const auto set_up = [&] {
    const std::int64_t t0 = mono_ns();
    order = corpus(rng);
    const profile::LeveledRunner warm(gpu, FrameworkKind::kTFlow);
    const profile::LeveledResult w =
        warm.run_model(*models::find_tensorflow_model("MLPerf_ResNet50_v1.5"), 64);
    rep.check(w.profile.model_latency > 0, "warm-up experiment produced no latency");
    const std::int64_t t1 = mono_ns();
    raw_setup_samples.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup_samples.push_back(raw_setup_samples.back() / host.sample());
    ledger.add("setup", t0, t1);
  };
  for (int i = 0; i < 3; ++i) set_up();

  const std::map<std::string, std::string> golden =
      cfg.write_golden ? std::map<std::string, std::string>{} : load_golden(cfg.golden_path);
  if (!cfg.write_golden && golden.empty())
    rep.check(false, "golden digests missing: " + cfg.golden_path);
  std::map<std::string, std::string> produced;

  // Complete passes over the reshuffled corpus.
  const int passes = std::max(1, static_cast<int>(std::lround(cfg.seconds / kSecondsPerPass)));
  std::map<std::string, Outcome> outcomes;
  double slowdown = host.slowdown();
  Totals t;
  std::uint64_t order_free_digest = 0;
  for (int p = 0; p < passes; ++p) {
    if (p > 0) set_up();
    std::map<std::string, std::vector<analysis::BatchPoint>> points;
    for (const Experiment& e : order) {
      // Hand the previous experiment's freed heap back first, so peak RSS
      // is the largest experiment's footprint, not order-dependent
      // fragmentation.
      ::malloc_trim(0);
      if (rep.attempted % 8 == 0) slowdown = host.sample();
      const std::uint32_t exp_id = ledger.reserve_id();
      const std::int64_t c0 = thread_cpu_ns();
      const std::int64_t e0 = mono_ns();

      framework::Graph graph;
      t.build_ns += timed(ledger, "models.build", exp_id, [&] {
        graph = e.model->build(e.batch, framework::traits_for(e.fw).decompose_batchnorm);
      });

      profile::LeveledResult r;
      if (cfg.trace) {
        r = run_levels_traced(gpu, e.fw, graph, ledger, exp_id, t);
      } else {
        const profile::LeveledRunner runner(gpu, e.fw);
        r = runner.run(graph, /*gpu_metrics=*/true);
      }

      std::vector<analysis::BatchPoint>& pts = points[e.model_key()];
      analysis::ModelAggRow a15;
      std::size_t analysis_rows = 0;
      t.analysis_ns += timed(ledger, "analysis.offline", exp_id, [&] {
        pts.push_back({e.batch, to_ms(r.profile.model_latency)});
        analysis_rows += analysis::a1_model_information(pts).points.size();
        analysis_rows += analysis::a2_layer_info(r.profile).size();
        analysis_rows += analysis::a10_kernel_by_name(r.profile, gpu).size();
        analysis_rows += analysis::a14_layer_roofline(r.profile, gpu).size();
        a15 = analysis::a15_model_aggregate(r.profile, gpu);
        const analysis::StageAnalysis st = analysis::stage_analysis(r.profile);
        analysis_rows += static_cast<std::size_t>(st.latency) + 1;
      });

      std::size_t json_bytes = 0;
      t.export_ns += timed(ledger, "trace.export_json", exp_id, [&] {
        json_bytes = trace::to_span_json(r.mlg.timeline, r.mlg.trace_meta()).size();
      });
      const std::int64_t e1 = mono_ns();
      const std::int64_t c1 = thread_cpu_ns();
      ledger.add_with_id(exp_id, "experiment", e0, e1);
      t.wall_ns += e1 - e0;

      Outcome& o = outcomes[e.key()];
      o.wall_ns = std::min(o.wall_ns, e1 - e0);
      o.cpu_ns = std::min(o.cpu_ns, c1 - c0);
      o.scaled_wall_ns = std::min(o.scaled_wall_ns, static_cast<double>(e1 - e0) / slowdown);
      o.scaled_cpu_ns = std::min(o.scaled_cpu_ns, static_cast<double>(c1 - c0) / slowdown);
      o.spans_m = r.m.timeline.size();
      o.spans_ml = r.ml.timeline.size();
      o.spans_mlg = r.mlg.timeline.size();
      o.spans_mlgm = r.mlgm.timeline.size();
      o.export_bytes = json_bytes;
      o.unmatched = o.ambiguous = o.dropped = 0;
      for (const profile::RunTrace* run : {&r.m, &r.ml, &r.mlg, &r.mlgm}) {
        o.unmatched += run->timeline.unmatched_async_count();
        o.ambiguous += run->timeline.ambiguous_count();
        o.dropped += run->dropped_annotations;
      }

      const std::uint64_t digest = experiment_digest(e, r.profile, a15);
      if (p == 0) order_free_digest += digest;
      produced["exp " + e.key()] = hex(digest);
      ++rep.attempted;
      bool ok = o.unmatched == 0 && analysis_rows > 0 && json_bytes > 0;
      if (!cfg.write_golden) {
        const auto it = golden.find("exp " + e.key());
        ok = ok && it != golden.end() && it->second == hex(digest);
      }
      if (!ok) {
        ++rep.failed;
        rep.check(false, "experiment " + e.model->name + " (" + e.key() + ") mismatched");
      }
    }
    // A1 over each model's full batch sweep: the optimal batch size.
    for (const auto& [model, pts] : points) {
      const std::string opt =
          std::to_string(analysis::a1_model_information(pts).optimal_batch);
      produced["a1 " + model] = opt;
      if (cfg.write_golden) continue;
      const auto it = golden.find("a1 " + model);
      rep.check(it != golden.end() && it->second == opt, "A1 optimal batch of " + model);
    }
  }

  if (cfg.write_golden) {
    std::ofstream out(cfg.golden_path, std::ios::trunc);
    out << "# zoo_leveled golden outputs (regenerate: xspbench --workload zoo_leveled "
           "--write-golden FILE)\n"
           "# exp <framework> <model id> <batch> <digest of latency, counts, A15>\n"
           "# a1 <framework> <model id> <A1 optimal batch>\n";
    for (const auto& [k, v] : produced) out << k << ' ' << v << '\n';
    rep.check(static_cast<bool>(out), "cannot write golden file " + cfg.golden_path);
  }

  // One pass's worth of everything, from each experiment's outcome.
  Outcome pass;
  std::vector<double> experiment_ms, raw_experiment_ms;
  double wall_ns = 0, cpu_ns = 0, raw_wall_ns = 0, raw_cpu_ns = 0;
  for (const auto& [key, o] : outcomes) {
    experiment_ms.push_back(o.scaled_wall_ns / 1e6);
    raw_experiment_ms.push_back(static_cast<double>(o.wall_ns) / 1e6);
    wall_ns += o.scaled_wall_ns;
    cpu_ns += o.scaled_cpu_ns;
    raw_wall_ns += static_cast<double>(o.wall_ns);
    raw_cpu_ns += static_cast<double>(o.cpu_ns);
    pass.spans_m += o.spans_m;
    pass.spans_ml += o.spans_ml;
    pass.spans_mlg += o.spans_mlg;
    pass.spans_mlgm += o.spans_mlgm;
    pass.export_bytes += o.export_bytes;
    pass.unmatched += o.unmatched;
    pass.ambiguous += o.ambiguous;
    pass.dropped += o.dropped;
  }
  rep.check(pass.unmatched == 0, "unmatched async spans: " + std::to_string(pass.unmatched));
  const auto spans = static_cast<double>(pass.spans());
  const auto experiments = static_cast<double>(outcomes.size());

  // Every figure here but memory is CPU-bound on one thread and scaled to
  // the reference host speed; the raw figures stay in `detail`.
  rep.end_to_end["setup_s"] = {median(setup_samples), "s"};
  rep.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  rep.end_to_end["spans_per_s"] = {spans / (wall_ns / 1e9), "1/s"};
  rep.end_to_end["cpu_ns_per_span"] = {cpu_ns / spans, "ns"};
  const double p50 = hd_quantile(experiment_ms, 0.5);
  const double p95 = hd_quantile(experiment_ms, 0.95);
  rep.end_to_end["latency_ms_p50"] = {p50, "ms"};
  rep.end_to_end["latency_ms_tail"] = {p95, "ms"};

  rep.detail["experiments_per_s"] = {experiments / (wall_ns / 1e9), "1/s"};
  rep.detail["experiment_ms_p50"] = {p50, "ms"};
  rep.detail["experiment_ms_p95"] = {p95, "ms"};
  rep.detail["experiments"] = {experiments, "count"};
  rep.detail["experiments_run"] = {static_cast<double>(rep.attempted), "count"};
  rep.detail["passes"] = {static_cast<double>(passes), "count"};
  rep.detail["raw.setup_s"] = {median(raw_setup_samples), "s"};
  rep.detail["raw.spans_per_s"] = {spans / (raw_wall_ns / 1e9), "1/s"};
  rep.detail["raw.cpu_ns_per_span"] = {raw_cpu_ns / spans, "ns"};
  rep.detail["raw.latency_ms_p50"] = {hd_quantile(raw_experiment_ms, 0.5), "ms"};
  rep.detail["raw.latency_ms_tail"] = {hd_quantile(raw_experiment_ms, 0.95), "ms"};
  rep.info["digest"] = hex(order_free_digest);

  const double n = static_cast<double>(rep.attempted);
  const auto per_exp_ms = [&](std::int64_t ns) { return static_cast<double>(ns) / 1e6 / n; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  auto& L = rep.layers;
  L["models.build_ms"] = {per_exp_ms(t.build_ns), "ms"};
  L["profile.m_ms"] = {per_exp_ms(t.m_ns), "ms"};
  L["profile.ml_ms"] = {per_exp_ms(t.ml_ns), "ms"};
  L["profile.mlg_ms"] = {per_exp_ms(t.mlg_ns), "ms"};
  L["profile.mlgm_ms"] = {per_exp_ms(t.mlgm_ns), "ms"};
  L["profile.merge_ms"] = {per_exp_ms(t.merge_ns), "ms"};
  L["profile.spans_m"] = {count(pass.spans_m), "count"};
  L["profile.spans_ml"] = {count(pass.spans_ml), "count"};
  L["profile.spans_mlg"] = {count(pass.spans_mlg), "count"};
  L["profile.spans_mlgm"] = {count(pass.spans_mlgm), "count"};
  L["profile.ns_per_span_mlg"] = {static_cast<double>(t.mlg_ns) * experiments / n /
                                      std::max(1.0, count(pass.spans_mlg)),
                                  "ns"};
  L["analysis.offline_ms"] = {per_exp_ms(t.analysis_ns), "ms"};
  L["trace.export_json_ms"] = {per_exp_ms(t.export_ns), "ms"};
  L["trace.export_json_bytes"] = {count(pass.export_bytes), "B"};
  L["trace.unmatched_async"] = {count(pass.unmatched), "count"};
  L["trace.ambiguous"] = {count(pass.ambiguous), "count"};
  L["trace.dropped_annotations"] = {count(pass.dropped), "count"};
  L["common.strtab_bytes"] = {
      static_cast<double>(common::StringTable::global().approx_bytes()), "B"};
  L["host.slowdown"] = {host.slowdown(), "ratio"};

  if (cfg.trace) {
    // Coverage: the per-layer spans must explain the experiment wall time.
    const std::int64_t covered = t.build_ns + t.m_ns + t.ml_ns + t.mlg_ns + t.mlgm_ns +
                                 t.merge_ns + t.analysis_ns + t.export_ns;
    const double coverage = static_cast<double>(covered) / static_cast<double>(t.wall_ns);
    L["ledger.coverage"] = {coverage, "ratio"};
    rep.check(coverage >= 0.9, "per-layer times cover only " +
                                   std::to_string(coverage * 100) + "% of experiment time");
  }
  return rep;
}

}  // namespace xspbench
