// Ablation: the cost of one Session::profile run at each profiling level.
//
// Leveled experimentation (paper, Section III-C) profiles a model four
// times: M, M/L, M/L/G and M/L/G with GPU metrics. Each run simulates the
// model, captures framework and CUPTI records, converts them to spans and
// assembles the timeline. BM_ProfileCapture times one such run end to end
// for ResNet-50 at batch 64, one case per level, in wall time, and
// reports assembled timeline spans per second of wall time (a
// launch/execution pair is one span, as perfbench counts them). Wall time
// counts what the main thread's CPU time hides: waits on other threads
// and their CPU. The simulated results never change; only the profiler's
// own cost does.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "xsp/models/registry.hpp"
#include "xsp/profile/session.hpp"

namespace {

using xsp::profile::ProfileOptions;

void BM_ProfileCapture(benchmark::State& state, ProfileOptions options) {
  const auto* model = xsp::models::find_tensorflow_model("MLPerf_ResNet50_v1.5");
  if (model == nullptr) {
    state.SkipWithError("MLPerf_ResNet50_v1.5 is not in the model registry");
    return;
  }
  const xsp::framework::Graph graph = model->build(64, /*decompose_bn=*/true);
  std::int64_t spans = 0;
  for (auto _ : state) {
    // A fresh session per run, as LeveledRunner profiles each level.
    xsp::profile::Session session(xsp::sim::tesla_v100(), xsp::framework::FrameworkKind::kTFlow);
    const auto run = session.profile(graph, options);
    spans += static_cast<std::int64_t>(run.timeline.size());
    benchmark::DoNotOptimize(run.model_latency);
  }
  state.SetItemsProcessed(spans);
}

BENCHMARK_CAPTURE(BM_ProfileCapture, M, ProfileOptions::model_only())->UseRealTime();
BENCHMARK_CAPTURE(BM_ProfileCapture, ML, ProfileOptions::model_layer())->UseRealTime();
BENCHMARK_CAPTURE(BM_ProfileCapture, MLG, ProfileOptions::full(/*metrics=*/false))->UseRealTime();
BENCHMARK_CAPTURE(BM_ProfileCapture, MLGM, ProfileOptions::full(/*metrics=*/true))->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
