// xsp_cli — the profiler's command-line front-end.
//
//   xsp_cli list-models                 enumerate the model zoo
//   xsp_cli list-systems                enumerate the Table VII systems
//   xsp_cli profile [...]               leveled profile + chosen analyses
//   xsp_cli sweep [...]                 batch sweep + optimal batch (A1)
//   xsp_cli export --out FILE [...]     profile once, streaming the trace
//                                       to FILE as it is collected
//   xsp_cli export --decode IN --out FILE   re-export a binary wire file
//   xsp_cli top [...]                   live dashboard over a running session
//   xsp_cli top --daemon URI [...]      fleet view from a collector's /metrics
//
// list-models and list-systems accept only:
//   --csv                emit tables as CSV instead of aligned text
//
// profile, sweep, export and top accept:
//   --model NAME         model-zoo model (default MLPerf_ResNet50_v1.5)
//   --system NAME        simulated system (default Tesla_V100)
//
// profile, export and top accept:
//   --batch N            batch size (default 1)
//
// profile and sweep accept --csv and:
//   --framework tflow|mxlite             (default tflow)
//
// profile accepts:
//   --analyses LIST      comma list of a1..a15 or "all" (default a2,a10,a15)
//   --library-level      enable the cuDNN/cuBLAS call tracing level
//   --export-chrome F    write the M/L/G timeline as Chrome trace JSON
//   --export-spans F     write the flat span JSON
//
// sweep accepts:
//   --max-batch N        largest batch of the sweep (default 256)
//
// export and top accept:
//   --level m|ml|mlg     profiling levels (default mlg, no GPU metric replay)
//
// export accepts (session -> trace server -> drain subscribers -> one file
// sink, the streaming-export subsystem end to end):
//   --gpu-metrics        collect the four GPU metrics too (implies mlg)
//   --format chrome|spans|binary   output document (default chrome;
//                        binary = XSP binary wire v6, src/trace/README.md)
//   --out FILE           output path (required)
//   --decode IN          decode mode: read binary wire file IN and re-export
//                        it to --out as --format chrome|spans (no profiling
//                        happens; default format for decode is spans)
//
// top accepts (a worker thread profiles --runs times with live stats on while
// the main thread renders Session::live_snapshot(): span rates, GPU
// occupancy, latency percentiles, the hottest kernels and layer types,
// StringTable growth and producer-slot health; a final
// dashboard always follows the last run, so `--runs 1 --interval-ms 0`
// still prints a complete picture):
//   --runs N             profiled evaluations, or scrapes with --daemon
//                        (default 5)
//   --interval-ms N      refresh period, wall-clock ms (default 200;
//                        0 = final dashboard only)
//   --window-ms N        sliding-stats window, simulated ms (default 100)
//   --stream FILE        also stream each run's spans to FILE as they drain
//                        (adds an "export:" cost line)
//   --stream-format chrome|spans|binary  document shape for --stream
//                        (default binary, the low-overhead wire format)
//   --sample R           head-sampling rate in (0, 1] (default 1 = off); the
//                        "sampling:" line shows kept/dropped and the
//                        analyzer's rescaled span estimate
//   --tail-keep-us N     force-admit spans >= N us regardless of the draw
//   --top-k N            bound the live kernel table to N SpaceSaving rows
//                        (default 0 = exact)
//   --alert-p99-us N     print an edge-triggered alert when the kernel p99
//                        crosses N us (0 = off)
//   --daemon URI         no local profiling: scrape GET /metrics on a running
//                        xsp_collectd and render its ingest counters plus a
//                        per-producer health table from the heartbeat series
//
// A subcommand rejects every flag not listed for it. Exit codes: 0 ok,
// 1 runtime error (unknown model or system, unwritable file), 2 usage error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli_number.hpp"
#include "xsp/analysis/analyses.hpp"
#include "xsp/analysis/batch_sweep.hpp"
#include "xsp/analysis/online.hpp"
#include "xsp/common/format.hpp"
#include "xsp/metrics/exposition.hpp"
#include "xsp/models/registry.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/profile/leveled.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/report/table.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/wire.hpp"

namespace {

using namespace xsp;

constexpr const char* kUsage =
    "usage: xsp_cli list-models|list-systems [--csv]\n"
    "       xsp_cli profile [--model NAME] [--system NAME] [--framework tflow|mxlite]\n"
    "           [--batch N] [--analyses a1,..,a15|all] [--library-level]\n"
    "           [--export-chrome FILE] [--export-spans FILE] [--csv]\n"
    "       xsp_cli sweep [--model NAME] [--system NAME] [--framework tflow|mxlite]\n"
    "           [--max-batch N] [--csv]\n"
    "       xsp_cli export --out FILE [--model NAME] [--system NAME] [--batch N]\n"
    "           [--level m|ml|mlg] [--gpu-metrics] [--format chrome|spans|binary]\n"
    "       xsp_cli export --decode IN --out FILE [--format chrome|spans]\n"
    "       xsp_cli top [--model NAME] [--system NAME] [--batch N] [--level m|ml|mlg]\n"
    "           [--runs N] [--interval-ms N] [--window-ms N]\n"
    "           [--stream FILE] [--stream-format chrome|spans|binary]\n"
    "           [--sample R] [--tail-keep-us N] [--top-k N] [--alert-p99-us N]\n"
    "       xsp_cli top --daemon URI [--runs N] [--interval-ms N]\n";

/// A malformed command line: main prints it with the usage text, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Command;

struct Options {
  const Command* command = nullptr;
  std::string model = "MLPerf_ResNet50_v1.5";
  std::string system = "Tesla_V100";
  std::int64_t batch = 1;
  // list-models, list-systems, profile, sweep
  framework::FrameworkKind framework = framework::FrameworkKind::kTFlow;
  std::int64_t max_batch = 256;
  std::set<std::string> analyses{"a2", "a10", "a15"};
  bool library_level = false;
  bool csv = false;
  std::string export_chrome;
  std::string export_spans;
  // export, top
  std::string level = "mlg";
  std::string out;     // export's --out, top's --stream
  std::string format;  // export's --format, top's --stream-format
  // export
  bool gpu_metrics = false;
  std::string decode;  // non-empty selects decode mode
  // top
  std::int64_t runs = 5;
  std::int64_t interval_ms = 200;
  std::int64_t window_ms = 100;
  double sample = 1.0;
  std::int64_t tail_keep_us = 0;
  std::int64_t top_k = 0;
  std::int64_t alert_p99_us = 0;
  std::string daemon;
};

struct Command {
  std::string_view name;
  int (*run)(const Options&);
  /// Every flag the subcommand accepts; any other exits 2.
  std::span<const std::string_view> flags;
};

// --- shared by the subcommands ----------------------------------------------

/// The --model lookup (--system's is sim::system_by_name, which throws too).
const models::ModelInfo& find_model(const Options& opts) {
  const auto* model = models::find_tensorflow_model(opts.model);
  if (model == nullptr) {
    throw std::runtime_error("unknown model '" + opts.model + "' (try `xsp_cli list-models`)");
  }
  return *model;
}

trace::ExportFormat export_format(const std::string& name) {
  return name == "chrome"  ? trace::ExportFormat::kChromeTrace
         : name == "spans" ? trace::ExportFormat::kSpanJson
                           : trace::ExportFormat::kBinary;
}

/// export's and top's session options: --level, --gpu-metrics and the
/// file the trace streams to as it drains (none when empty).
profile::ProfileOptions session_options(const Options& opts) {
  profile::ProfileOptions popts;
  // --gpu-metrics implies the full M/L/G stack.
  popts.layer_level = opts.level != "m" || opts.gpu_metrics;
  popts.gpu_level = opts.level == "mlg" || opts.gpu_metrics;
  popts.gpu_metrics = opts.gpu_metrics;
  popts.stream_export_path = opts.out;
  popts.stream_export_format = export_format(opts.format);
  return popts;
}

// --- list-models, list-systems, profile, sweep ------------------------------

bool wants(const Options& opts, const std::string& id) {
  return opts.analyses.count("all") != 0 || opts.analyses.count(id) != 0;
}

void emit(const Options& opts, const report::TextTable& t) {
  std::printf("%s\n", opts.csv ? t.csv().c_str() : t.str().c_str());
}

int cmd_list_models(const Options& opts) {
  report::TextTable t({"ID", "Name", "Task", "Accuracy", "Frameworks"});
  for (const auto& m : models::tensorflow_models()) {
    const bool also_mxnet = models::find_mxnet_model(m.id) != nullptr &&
                            models::find_mxnet_model(m.id)->name == m.name;
    t.add_row({std::to_string(m.id), m.name, m.task, fmt_fixed(m.paper.accuracy, 2),
               also_mxnet ? "tflow,mxlite" : "tflow"});
  }
  emit(opts, t);
  return 0;
}

int cmd_list_systems(const Options& opts) {
  report::TextTable t({"Name", "GPU", "Architecture", "TFLOPS", "GB/s", "Ideal AI"});
  for (const auto& s : sim::all_systems()) {
    t.add_row({s.name, s.gpu, sim::arch_name(s.arch), fmt_fixed(s.peak_tflops, 1),
               fmt_fixed(s.mem_bw_gbps, 0), fmt_fixed(s.ideal_arithmetic_intensity(), 2)});
  }
  emit(opts, t);
  return 0;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << content;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

int cmd_profile(const Options& opts) {
  const auto& model = find_model(opts);
  const auto& system = sim::system_by_name(opts.system);

  profile::LeveledRunner runner(system, opts.framework);
  const auto graph = model.build(opts.batch, runner.decompose_batchnorm());
  const auto result = runner.run(graph);

  std::printf("%s | %s | %s | batch %lld\n", model.name.c_str(), system.name.c_str(),
              framework::framework_name(opts.framework), static_cast<long long>(opts.batch));
  std::printf("model latency %.3f ms | layer overhead %.3f ms | GPU overhead %.3f ms | "
              "GPU latency %.1f%% | conv latency %.1f%%\n\n",
              to_ms(result.profile.model_latency), to_ms(result.layer_overhead()),
              to_ms(result.gpu_overhead()), analysis::gpu_latency_percentage(result.profile),
              analysis::conv_latency_percentage(result.profile));

  const auto& p = result.profile;
  if (wants(opts, "a2") || wants(opts, "a3") || wants(opts, "a4")) {
    report::TextTable t({"Index", "Name", "Type", "Shape", "Latency (ms)", "Alloc (MB)"});
    for (const auto& r : analysis::top_layers_by_latency(p, 10)) {
      t.add_row({std::to_string(r.index), r.name, r.type, r.shape, fmt_fixed(r.latency_ms, 3),
                 fmt_fixed(r.alloc_mb, 1)});
    }
    std::printf("A2 top-10 layers:\n");
    emit(opts, t);
  }
  if (wants(opts, "a5") || wants(opts, "a6") || wants(opts, "a7")) {
    report::TextTable t({"Type", "Count", "Count %", "Latency %", "Alloc %"});
    for (const auto& a : analysis::layer_type_aggregation(p)) {
      t.add_row({a.type, std::to_string(a.count), fmt_fixed(a.count_pct, 1),
                 fmt_fixed(a.latency_pct, 1), fmt_fixed(a.alloc_pct, 1)});
    }
    std::printf("A5-A7 layer types:\n");
    emit(opts, t);
  }
  if (wants(opts, "a8") || wants(opts, "a9")) {
    report::TextTable t({"Kernel", "Layer", "Latency (ms)", "Gflops", "AI", "Bound"});
    for (const auto& r : analysis::top_kernels_by_latency(p, system, 10)) {
      t.add_row({r.name, std::to_string(r.layer_index), fmt_fixed(r.latency_ms, 3),
                 fmt_fixed(r.gflops, 2), fmt_fixed(r.arithmetic_intensity, 2),
                 r.memory_bound ? "memory" : "compute"});
    }
    std::printf("A8 top-10 kernel invocations:\n");
    emit(opts, t);
  }
  if (wants(opts, "a10")) {
    report::TextTable t({"Kernel", "Count", "Latency (ms)", "Latency %", "Occup %", "Bound"});
    for (const auto& r : analysis::a10_kernel_by_name(p, system)) {
      t.add_row({r.name, std::to_string(r.count), fmt_fixed(r.latency_ms, 3),
                 fmt_fixed(r.latency_pct, 2), fmt_fixed(r.occupancy_pct, 1),
                 r.memory_bound ? "memory" : "compute"});
    }
    std::printf("A10 kernels by name:\n");
    emit(opts, t);
  }
  if (wants(opts, "a11") || wants(opts, "a12") || wants(opts, "a13") || wants(opts, "a14")) {
    report::TextTable t({"Index", "Type", "Layer (ms)", "Kernel (ms)", "GPU %", "Gflops",
                         "AI", "Bound"});
    const auto rows = analysis::a11_kernel_by_layer(p, system);
    const auto gpu = analysis::a13_gpu_vs_nongpu(p);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      t.add_row({std::to_string(r.index), r.type, fmt_fixed(r.layer_latency_ms, 3),
                 fmt_fixed(r.kernel_latency_ms, 3), fmt_fixed(gpu[i].gpu_pct, 1),
                 fmt_fixed(r.gflops, 2), fmt_fixed(r.arithmetic_intensity, 2),
                 r.memory_bound ? "memory" : "compute"});
    }
    std::printf("A11-A14 per-layer GPU aggregation:\n");
    emit(opts, t);
  }
  if (wants(opts, "a15")) {
    const auto agg = analysis::a15_model_aggregate(p, system);
    std::printf("A15 model aggregate: kernels %.3f ms | %.2f Gflops | reads %.1f MB | "
                "writes %.1f MB | occupancy %.1f%% | AI %.2f | %s-bound\n\n",
                agg.kernel_latency_ms, agg.gflops, agg.dram_reads_mb, agg.dram_writes_mb,
                agg.occupancy_pct, agg.arithmetic_intensity,
                agg.memory_bound ? "memory" : "compute");
  }

  if (!opts.export_chrome.empty() || !opts.export_spans.empty()) {
    // Re-profile once with everything on for the richest timeline.
    profile::Session session(system, opts.framework);
    auto popts = profile::ProfileOptions::full(true);
    popts.library_level = opts.library_level;
    const auto run = session.profile(graph, popts);
    if (!opts.export_chrome.empty()) {
      write_file(opts.export_chrome, trace::to_chrome_trace(run.timeline));
    }
    if (!opts.export_spans.empty()) {
      write_file(opts.export_spans, trace::to_span_json(run.timeline));
    }
  }
  return 0;
}

int cmd_sweep(const Options& opts) {
  const auto& model = find_model(opts);
  profile::LeveledRunner runner(sim::system_by_name(opts.system), opts.framework);
  const auto info = analysis::model_information(runner, model, opts.max_batch);

  report::TextTable t({"Batch", "Latency (ms)", "Inputs/sec"});
  for (const auto& pt : info.points) {
    t.add_row({std::to_string(pt.batch), fmt_fixed(pt.latency_ms, 3),
               fmt_fixed(pt.throughput(), 1)});
  }
  emit(opts, t);
  std::printf("optimal batch %lld | max throughput %.1f inputs/sec | online latency %.3f ms\n",
              static_cast<long long>(info.optimal_batch), info.max_throughput,
              info.online_latency_ms);
  return 0;
}

// --- export -----------------------------------------------------------------

/// Decode mode: binary wire file -> BinaryReader -> StreamingExporter.
/// Decoded batches stream through the same JSON core a live session
/// drives, so the output is semantically identical to having exported
/// JSON directly — the footer telemetry comes from the binary footer
/// frame instead of the live run.
int decode(const Options& opts) {
  std::ifstream in(opts.decode, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + opts.decode);
  std::ofstream out(opts.out, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + opts.out);
  const auto format = export_format(opts.format);
  trace::BinaryReader reader(in);
  trace::StreamingExporter exporter(format, out,
                                    /*with_metadata=*/format == trace::ExportFormat::kSpanJson);
  trace::SpanBatch batch;
  while (reader.next_batch(batch)) exporter.write_batch(batch);
  exporter.set_meta(reader.meta());
  exporter.finish();
  out.close();
  if (!out) throw std::runtime_error("short write to " + opts.out);
  if (!reader.saw_footer()) {
    std::fprintf(stderr, "xsp_cli export: warning: %s has no footer frame (truncated stream); "
                         "decoded the %llu complete spans before the cut\n",
                 opts.decode.c_str(), static_cast<unsigned long long>(reader.spans_read()));
  }
  std::printf("xsp_cli export: decoded %llu spans / %llu strings from %s to %s (%s, %llu bytes)\n",
              static_cast<unsigned long long>(reader.spans_read()),
              static_cast<unsigned long long>(reader.strings_reinterned()), opts.decode.c_str(),
              opts.out.c_str(), trace::export_format_name(format),
              static_cast<unsigned long long>(exporter.bytes_written()));
  return 0;
}

int cmd_export(const Options& opts) {
  if (!opts.decode.empty()) return decode(opts);

  const auto& model = find_model(opts);
  const auto popts = session_options(opts);
  profile::Session session(sim::system_by_name(opts.system), framework::FrameworkKind::kTFlow);
  const profile::RunTrace run =
      session.profile(model.build(opts.batch, /*decompose_bn=*/true), popts);

  std::printf("xsp_cli export: %s @ batch %lld on %s (%s)\n", opts.model.c_str(),
              static_cast<long long>(opts.batch), opts.system.c_str(),
              popts.level_string().c_str());
  std::printf(
      "xsp_cli export: streamed %llu raw spans / %llu bytes (%s) to %s; "
      "assembled timeline: %zu spans\n",
      static_cast<unsigned long long>(run.streamed_spans),
      static_cast<unsigned long long>(run.streamed_bytes),
      trace::export_format_name(popts.stream_export_format), opts.out.c_str(),
      run.timeline.size());
  return 0;
}

// --- top --------------------------------------------------------------------

std::string format_ns(Ns v) {
  char buf[48];
  if (v >= kNsPerMs) {
    std::snprintf(buf, sizeof buf, "%.3f ms", to_ms(v));
  } else if (v >= kNsPerUs) {
    std::snprintf(buf, sizeof buf, "%.3f us", to_us(v));
  } else {
    std::snprintf(buf, sizeof buf, "%" PRId64 " ns", v);
  }
  return buf;
}

/// Cumulative streaming-export cost across the worker's finished runs
/// (RunTrace::streamed_spans/streamed_bytes), published by the worker and
/// read by the dashboard thread.
struct ExportTelemetry {
  std::atomic<std::uint64_t> spans{0};
  std::atomic<std::uint64_t> bytes{0};
};

void render_dashboard(const Options& opts, const profile::Session& session,
                      const ExportTelemetry& exported, std::int64_t runs_done, bool final) {
  const analysis::OnlineSnapshot snap = session.live_snapshot();
  const profile::SlotTelemetry slots = session.slot_telemetry();
  std::printf("--- xsp_cli top | %s @ batch %lld on %s | runs %lld/%lld%s ---\n",
              opts.model.c_str(), static_cast<long long>(opts.batch), opts.system.c_str(),
              static_cast<long long>(runs_done), static_cast<long long>(opts.runs),
              final ? " | final" : "");
  std::printf(
      "spans %" PRIu64 " (layer %" PRIu64 ", kernel %" PRIu64 ", memcpy %" PRIu64
      ") | window %.0fms: %.0f span/s, gpu busy %.1f%% | cumulative gpu %.1f%%\n",
      snap.spans, snap.layer_spans, snap.kernel_spans, snap.memcpy_spans, to_ms(snap.window),
      snap.window_spans_per_sec, snap.window_gpu_busy_pct, snap.gpu_pct);
  std::printf("latency p50/p95/p99: layer %s / %s / %s | kernel %s / %s / %s\n",
              format_ns(snap.layer_p50).c_str(), format_ns(snap.layer_p95).c_str(),
              format_ns(snap.layer_p99).c_str(), format_ns(snap.kernel_p50).c_str(),
              format_ns(snap.kernel_p95).c_str(), format_ns(snap.kernel_p99).c_str());

  std::printf("slots: live %" PRIu64 ", retired %" PRIu64 ", pooled %" PRIu64 ", ~%" PRIu64
              " B\n",
              slots.live_slots, slots.retired_slots, slots.pooled_slots, slots.slot_bytes);
  // Bounded interning: the budget in force and how often intern() hit it.
  if (snap.strtab_budget_bytes > 0) {
    std::printf("strtab: %" PRIu64 " strings ~%" PRIu64 " B / budget %" PRIu64
                " B, rejected %" PRIu64 "\n",
                snap.interned_strings, snap.interned_bytes, snap.strtab_budget_bytes,
                snap.rejected_interns);
  } else {
    std::printf("strtab: %" PRIu64 " strings ~%" PRIu64 " B, unbounded, rejected %" PRIu64 "\n",
                snap.interned_strings, snap.interned_bytes, snap.rejected_interns);
  }
  // Always emitted (the CI smoke greps for it): rate 1 with no sheds
  // renders as "off".
  if (snap.sampling_rate < 1.0 || snap.sampled_dropped > 0 || snap.kernel_row_limit > 0) {
    std::printf("sampling: rate %.3f | kept %" PRIu64 ", dropped %" PRIu64
                " | est spans %.0f (observed %" PRIu64 ")",
                snap.sampling_rate, snap.sampled_kept, snap.sampled_dropped, snap.est_spans,
                snap.spans);
    if (snap.kernel_row_limit > 0) {
      std::printf(" | top-k %zu kernels, %" PRIu64 " evictions", snap.kernel_row_limit,
                  snap.kernel_evictions);
    }
    std::printf("\n");
  } else {
    std::printf("sampling: off (rate 1.000, every span admitted)\n");
  }
  if (!opts.out.empty()) {
    const std::uint64_t spans = exported.spans.load(std::memory_order_acquire);
    const std::uint64_t bytes = exported.bytes.load(std::memory_order_acquire);
    std::printf("export: %" PRIu64 " spans, %" PRIu64 " B (%s, %.1f B/span) -> %s\n", spans,
                bytes, opts.format.c_str(),
                spans > 0 ? static_cast<double>(bytes) / static_cast<double>(spans) : 0.0,
                opts.out.c_str());
  }

  const auto top_rows = [](const char* what, const std::vector<analysis::OnlineAggregate>& rows,
                           std::size_t k) {
    report::TextTable table({what, "count", "total", "mean", "min", "max", "MB"});
    for (std::size_t i = 0; i < rows.size() && i < k; ++i) {
      const auto& r = rows[i];
      table.add_row({r.key.str(), std::to_string(r.count), format_ns(r.total_ns),
                     format_ns(static_cast<Ns>(r.mean_ns())), format_ns(r.min_ns),
                     format_ns(r.max_ns), fmt_bytes_mb(r.bytes)});
    }
    if (table.rows() > 0) std::printf("%s", table.str().c_str());
  };
  top_rows("top kernels", snap.kernels, 5);
  top_rows("top layer types", snap.layer_types, 5);
  std::printf("\n");
  std::fflush(stdout);
}

/// One HTTP/1.0 GET: connect, send, read to EOF, return the body (empty +
/// `err` set on any failure — a daemon that vanished between scrapes is a
/// routine condition for a dashboard, not an exception).
std::string scrape_metrics(const net::Endpoint& ep, std::string& err) {
  err.clear();
  net::Socket sock = net::try_connect(ep, /*timeout_ms=*/1000, &err);
  if (!sock.valid()) return {};
  const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
  std::size_t off = 0;
  while (off < req.size()) {
    std::size_t n = 0;
    const net::IoResult r = sock.write_some(req.data() + off, req.size() - off, n);
    if (r == net::IoResult::kOk) {
      off += n;
    } else if (r == net::IoResult::kWouldBlock) {
      if (!sock.wait_writable(1000)) {
        err = "timed out sending request";
        return {};
      }
    } else {
      err = "connection died sending request";
      return {};
    }
  }
  std::string resp;
  char chunk[16 * 1024];
  for (;;) {
    std::size_t n = 0;
    const net::IoResult r = sock.read_some(chunk, sizeof chunk, n);
    if (r == net::IoResult::kOk) {
      resp.append(chunk, n);
    } else if (r == net::IoResult::kWouldBlock) {
      if (!sock.wait_readable(2000)) {
        err = "timed out reading response";
        return {};
      }
    } else if (r == net::IoResult::kClosed) {
      break;
    } else {
      err = "connection died reading response";
      return {};
    }
  }
  const auto head_end = resp.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    err = "malformed HTTP response";
    return {};
  }
  // Status line: "HTTP/1.0 200 OK".
  const auto sp = resp.find(' ');
  if (sp == std::string::npos || resp.compare(sp + 1, 3, "200") != 0) {
    err = "non-200 response";
    return {};
  }
  return resp.substr(head_end + 4);
}

/// Values keyed by metric name, split into unlabeled scalars and the
/// per-connection series (`conn` label value -> field -> value).
struct FleetView {
  std::map<std::string, double> scalars;
  std::map<std::string, std::map<std::string, double>> per_conn;
};

FleetView parse_exposition(const std::string& body) {
  FleetView view;
  std::size_t pos = 0;
  while (pos < body.size()) {
    auto eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string_view line(body.data() + pos, eol - pos);
    pos = eol + 1;
    // The shared parser handles the optional trailing timestamp and
    // quoted label values; comments and malformed lines report false.
    metrics::ExpositionSample sample;
    if (!metrics::parse_exposition_line(line, sample)) continue;
    if (sample.labels.empty()) {
      view.scalars[std::string(sample.name)] = sample.value;
      continue;
    }
    // Only the conn="..." label matters for the fleet table.
    const auto conn = metrics::label_value(sample.labels, "conn");
    if (!conn.has_value()) continue;
    view.per_conn[*conn][std::string(sample.name)] = sample.value;
  }
  return view;
}

void render_fleet(const FleetView& view, std::int64_t scrape, std::int64_t total) {
  const auto scalar = [&view](const char* name) -> double {
    const auto it = view.scalars.find(name);
    return it != view.scalars.end() ? it->second : 0.0;
  };
  std::printf("--- xsp_cli top --daemon | scrape %lld/%lld%s ---\n",
              static_cast<long long>(scrape), static_cast<long long>(total),
              scrape == total ? " | final" : "");
  std::printf("ingested %.0f spans | connections: %.0f open, %.0f accepted, %.0f closed, "
              "%.0f errored\n",
              scalar("xsp_ingested_spans_total"), scalar("xsp_collector_open_connections"),
              scalar("xsp_collector_connections_accepted_total"),
              scalar("xsp_collector_connections_closed_total"),
              scalar("xsp_collector_connections_errored_total"));
  std::printf("wire: %.0f B, %.0f frames, %.0f heartbeats | producers reported: %.0f dropped, "
              "%.0f reconnects\n",
              scalar("xsp_collector_bytes_received_total"),
              scalar("xsp_collector_frames_total"), scalar("xsp_collector_heartbeats_total"),
              scalar("xsp_collector_producer_dropped_spans_total"),
              scalar("xsp_collector_producer_reconnects_total"));
  std::printf("strtab: ~%.0f B, rejected %.0f\n", scalar("xsp_strtab_bytes"),
              scalar("xsp_strtab_rejected_total"));
  if (!view.per_conn.empty()) {
    report::TextTable table(
        {"conn", "published", "sent", "dropped", "outbox", "hb age", "stale"});
    for (const auto& [conn, fields] : view.per_conn) {
      const auto field = [&fields = fields](const char* name) -> double {
        const auto it = fields.find(name);
        return it != fields.end() ? it->second : 0.0;
      };
      // Connections without heartbeat series still show their ingest side.
      const bool has_hb = fields.count("xsp_producer_heartbeat_age_seconds") > 0;
      table.add_row({conn, fmt_fixed(field("xsp_producer_published_spans_total"), 0),
                     fmt_fixed(field("xsp_producer_sent_spans_total"), 0),
                     fmt_fixed(field("xsp_producer_dropped_spans_total"), 0),
                     fmt_fixed(field("xsp_producer_outbox_spans"), 0),
                     has_hb ? fmt_fixed(field("xsp_producer_heartbeat_age_seconds"), 2) + "s"
                            : "-",
                     !has_hb ? "-" : (field("xsp_producer_stale") > 0 ? "STALE" : "ok")});
    }
    std::printf("%s", table.str().c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

/// top --daemon: the fleet view, --runs scrapes --interval-ms apart.
int top_daemon(const Options& opts) {
  const net::Endpoint ep = net::Endpoint::parse(opts.daemon);
  std::int64_t ok_scrapes = 0;
  for (std::int64_t i = 1; i <= opts.runs; ++i) {
    std::string err;
    const std::string body = scrape_metrics(ep, err);
    if (!err.empty()) {
      std::fprintf(stderr, "xsp_cli top: scrape %lld failed: %s\n", static_cast<long long>(i),
                   err.c_str());
    } else {
      ++ok_scrapes;
      render_fleet(parse_exposition(body), i, opts.runs);
    }
    if (i < opts.runs && opts.interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opts.interval_ms));
    }
  }
  std::printf("xsp_cli top: done (%lld/%lld scrapes)\n", static_cast<long long>(ok_scrapes),
              static_cast<long long>(opts.runs));
  std::fflush(stdout);
  return ok_scrapes > 0 ? 0 : 1;
}

int cmd_top(const Options& opts) {
  if (!opts.daemon.empty()) return top_daemon(opts);

  const auto& model = find_model(opts);
  auto popts = session_options(opts);
  popts.live_stats = true;
  popts.live_stats_window = opts.window_ms * kNsPerMs;
  popts.sampling_rate = opts.sample;
  popts.sampling_tail_keep_ns = opts.tail_keep_us * kNsPerUs;
  popts.top_k_kernels = static_cast<std::size_t>(opts.top_k);

  profile::Session session(sim::system_by_name(opts.system), framework::FrameworkKind::kTFlow);
  const framework::Graph graph = model.build(opts.batch, /*decompose_bn=*/true);

  std::atomic<std::int64_t> runs_done{0};
  std::atomic<bool> failed{false};
  std::string failure;
  ExportTelemetry exported;
  // The worker owns the session for the duration; the main thread only
  // reads live_snapshot(), which is the documented cross-thread surface.
  std::thread worker([&] {
    try {
      for (std::int64_t i = 0; i < opts.runs; ++i) {
        const profile::RunTrace run = session.profile(graph, popts);
        exported.spans.fetch_add(run.streamed_spans, std::memory_order_release);
        exported.bytes.fetch_add(run.streamed_bytes, std::memory_order_release);
        runs_done.fetch_add(1, std::memory_order_release);
      }
    } catch (const std::exception& e) {
      failure = e.what();
      failed.store(true, std::memory_order_release);
    }
  });

  // Alerting: once the first live run has created the analyzer,
  // register an edge-triggered kernel-p99 rule and poll it at the
  // dashboard cadence — the serving-layer shape the alert API targets.
  std::shared_ptr<analysis::OnlineAnalyzer> analyzer;
  const auto poll_alert = [&] {
    if (opts.alert_p99_us > 0 && analyzer == nullptr) {
      analyzer = session.live_analyzer();
      if (analyzer == nullptr) return;
      analysis::AlertRule rule;
      rule.name = "kernel_p99";
      rule.value = [](const analysis::OnlineSnapshot& s) {
        return static_cast<double>(s.kernel_p99);
      };
      rule.threshold = static_cast<double>(opts.alert_p99_us * kNsPerUs);
      rule.fire_above = true;
      analyzer->add_alert(std::move(rule), [](const analysis::AlertRule& r, double v,
                                              const analysis::OnlineSnapshot&) {
        std::printf("ALERT: %s = %s crossed %s\n", r.name.c_str(),
                    format_ns(static_cast<Ns>(v)).c_str(),
                    format_ns(static_cast<Ns>(r.threshold)).c_str());
      });
    }
    if (analyzer != nullptr) analyzer->poll_alerts();
  };

  if (opts.interval_ms > 0) {
    while (runs_done.load(std::memory_order_acquire) < opts.runs &&
           !failed.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(opts.interval_ms));
      poll_alert();
      render_dashboard(opts, session, exported, runs_done.load(std::memory_order_acquire),
                       /*final=*/false);
    }
  }
  worker.join();
  poll_alert();
  if (failed.load(std::memory_order_acquire)) throw std::runtime_error(failure);
  render_dashboard(opts, session, exported, runs_done.load(std::memory_order_acquire),
                   /*final=*/true);
  std::printf("xsp_cli top: done (%lld runs, %" PRIu64 " spans observed)\n",
              static_cast<long long>(opts.runs), session.live_snapshot().spans);
  return 0;
}

// --- the command line -------------------------------------------------------

constexpr std::string_view kListFlags[] = {"--csv"};
constexpr std::string_view kProfileFlags[] = {
    "--model",         "--system",        "--batch", "--framework", "--analyses", "--library-level",
    "--export-chrome", "--export-spans", "--csv"};
constexpr std::string_view kSweepFlags[] = {"--model", "--system", "--framework", "--max-batch",
                                            "--csv"};
constexpr std::string_view kExportFlags[] = {"--model", "--system",      "--batch",  "--level",
                                             "--out",   "--gpu-metrics", "--format", "--decode"};
constexpr std::string_view kTopFlags[] = {
    "--model",  "--system",        "--batch",  "--level",        "--runs",  "--interval-ms",
    "--window-ms", "--stream",     "--stream-format", "--sample", "--tail-keep-us", "--top-k",
    "--alert-p99-us", "--daemon"};

constexpr Command kCommands[] = {
    {"list-models", cmd_list_models, kListFlags}, {"list-systems", cmd_list_systems, kListFlags},
    {"profile", cmd_profile, kProfileFlags},      {"sweep", cmd_sweep, kSweepFlags},
    {"export", cmd_export, kExportFlags},         {"top", cmd_top, kTopFlags},
};

[[noreturn]] void bad_value(const std::string& flag, const std::string& v) {
  throw UsageError("bad value '" + v + "' for " + flag);
}

/// A number flag's value (tools::parse_number): an atoll-style silent
/// zero on a typo would profile the wrong configuration.
template <typename T>
T number(const std::string& flag, const std::string& v, T min,
         T max = std::numeric_limits<T>::max()) {
  const std::optional<T> n = tools::parse_number(v, min, max);
  if (!n) bad_value(flag, v);
  return *n;
}

std::string one_of(const std::string& flag, const std::string& v,
                   std::initializer_list<std::string_view> allowed) {
  if (std::find(allowed.begin(), allowed.end(), v) == allowed.end()) bad_value(flag, v);
  return v;
}

void parse_args(int argc, char** argv, Options& opts) {
  if (argc < 2) throw UsageError("missing command");
  for (const Command& c : kCommands) {
    if (c.name == argv[1]) opts.command = &c;
  }
  if (opts.command == nullptr) throw UsageError(std::string("unknown command '") + argv[1] + "'");
  const bool exporting = opts.command->name == "export";
  const bool top = opts.command->name == "top";
  // Bounds that keep the conversions to simulated ns from overflowing.
  constexpr std::int64_t kMaxMs = std::numeric_limits<std::int64_t>::max() / kNsPerMs;
  constexpr std::int64_t kMaxUs = std::numeric_limits<std::int64_t>::max() / kNsPerUs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto& flags = opts.command->flags;
    if (std::find(flags.begin(), flags.end(), arg) == flags.end()) {
      throw UsageError("unknown option '" + arg + "'");
    }
    const auto value = [&] {
      if (i + 1 == argc) throw UsageError("missing value for " + arg);
      return std::string(argv[++i]);
    };
    if (arg == "--model") {
      opts.model = value();
    } else if (arg == "--system") {
      opts.system = value();
    } else if (arg == "--batch") {
      opts.batch = number<std::int64_t>(arg, value(), 1);
    } else if (arg == "--framework") {
      opts.framework = one_of(arg, value(), {"tflow", "mxlite"}) == "mxlite"
                           ? framework::FrameworkKind::kMXLite
                           : framework::FrameworkKind::kTFlow;
    } else if (arg == "--max-batch") {
      opts.max_batch = number<std::int64_t>(arg, value(), 1);
    } else if (arg == "--analyses") {
      const std::string list = value();
      std::stringstream ss(list);
      opts.analyses.clear();
      for (std::string id; std::getline(ss, id, ',');) {
        opts.analyses.insert(one_of(arg, id, {"all", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8",
                                              "a9", "a10", "a11", "a12", "a13", "a14", "a15"}));
      }
      if (opts.analyses.empty()) bad_value(arg, list);
    } else if (arg == "--library-level") {
      opts.library_level = true;
    } else if (arg == "--csv") {
      opts.csv = true;
    } else if (arg == "--export-chrome") {
      opts.export_chrome = value();
    } else if (arg == "--export-spans") {
      opts.export_spans = value();
    } else if (arg == "--level") {
      opts.level = one_of(arg, value(), {"m", "ml", "mlg"});
    } else if (arg == "--gpu-metrics") {
      opts.gpu_metrics = true;
    } else if (arg == "--format" || arg == "--stream-format") {
      opts.format = one_of(arg, value(), {"chrome", "spans", "binary"});
    } else if (arg == "--out" || arg == "--stream") {
      opts.out = value();
    } else if (arg == "--decode") {
      opts.decode = value();
    } else if (arg == "--runs") {
      opts.runs = number<std::int64_t>(arg, value(), 1);
    } else if (arg == "--interval-ms") {
      opts.interval_ms = number<std::int64_t>(arg, value(), 0);
    } else if (arg == "--window-ms") {
      opts.window_ms = number<std::int64_t>(arg, value(), 1, kMaxMs);
    } else if (arg == "--sample") {
      opts.sample = number(arg, value(), std::numeric_limits<double>::denorm_min(), 1.0);
    } else if (arg == "--tail-keep-us") {
      opts.tail_keep_us = number<std::int64_t>(arg, value(), 0, kMaxUs);
    } else if (arg == "--top-k") {
      opts.top_k = number<std::int64_t>(arg, value(), 0);
    } else if (arg == "--alert-p99-us") {
      opts.alert_p99_us = number<std::int64_t>(arg, value(), 0, kMaxUs);
    } else if (arg == "--daemon") {
      opts.daemon = value();
    }
  }
  if (opts.format.empty()) opts.format = top ? "binary" : opts.decode.empty() ? "chrome" : "spans";
  if (exporting) {
    if (opts.out.empty()) throw UsageError("--out is required");
    // Decode re-exports as JSON; re-encoding binary to binary is a copy.
    if (!opts.decode.empty() && opts.format == "binary") {
      throw UsageError("--decode output --format must be chrome or spans");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  const auto tool = [&opts] {
    return opts.command != nullptr ? "xsp_cli " + std::string(opts.command->name) : "xsp_cli";
  };
  try {
    parse_args(argc, argv, opts);
    return opts.command->run(opts);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: %s\n%s", tool().c_str(), e.what(), kUsage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", tool().c_str(), e.what());
    return 1;
  }
}
