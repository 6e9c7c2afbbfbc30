// Ablation: per-metric kernel-replay cost (simulated time).
//
// Section III-C: "GPU memory metrics are especially expensive to profile
// and can slow down execution by over 100x ... GPU kernels [are] replayed
// multiple times to capture the user-specified metrics." This bench
// quantifies the simulated slowdown of each metric set on the headline
// model.
#include "common.hpp"

int main() {
  using namespace xsp;
  bench::header("Ablation — metric-collection replay cost",
                "paper Section III-C (memory metrics >100x on kernel-dense workloads)");

  const auto& model = bench::resnet50();
  const auto graph = model.build(64, true);

  // Only the replay's simulated time is measured; the records are dropped.
  struct DiscardRecords final : cupti::RecordConsumer {
    void on_api(const cupti::ApiRecord&) override {}
    void on_activity(const sim::ActivityRecord&, const cupti::MetricValues&) override {}
  };
  const auto run_with_metrics = [&](const std::vector<std::string>& metrics) {
    profile::Session session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
    auto& device = session.device();
    cupti::CuptiOptions copts;
    copts.metrics = metrics;
    DiscardRecords discard;
    cupti::CuptiProfiler prof(device, copts, discard);
    prof.start();
    const auto result = session.executor().run(graph);
    prof.stop();
    return to_ms(result.latency());
  };

  const double baseline = run_with_metrics({});
  report::TextTable t({"Metric Set", "Replay Passes", "Model Latency (ms)", "Slowdown"});
  const auto add = [&](const std::string& label, const std::vector<std::string>& metrics) {
    int passes = 1;
    for (const auto& m : metrics) passes += cupti::metric_replay_passes(m);
    const double ms = run_with_metrics(metrics);
    t.add_row({label, std::to_string(passes), fmt_fixed(ms, 1),
               fmt_fixed(ms / baseline, 1) + "x"});
  };
  add("none (activity tracing only)", {});
  add("achieved_occupancy", {cupti::kAchievedOccupancy});
  add("flop_count_sp", {cupti::kFlopCountSp});
  add("dram_read_bytes", {cupti::kDramReadBytes});
  add("dram_read+write_bytes", {cupti::kDramReadBytes, cupti::kDramWriteBytes});
  add("all four (paper's set)", {cupti::kFlopCountSp, cupti::kDramReadBytes,
                                 cupti::kDramWriteBytes, cupti::kAchievedOccupancy});
  std::printf("%s", t.str().c_str());
  bench::footnote_shape();
  return 0;
}
