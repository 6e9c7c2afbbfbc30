// Custom-model walkthrough: the vendor-lock-in story from the paper's
// introduction. A user-defined model (not in any zoo) built with the
// public GraphBuilder API is profiled across all three stack levels with
// no framework or library modification — the layer tracer consumes the
// framework profiler's records, the GPU tracer consumes CUPTI records, and
// interval-inclusion parent search correlates kernels to layers.
#include <cstdio>

#include "xsp/analysis/analyses.hpp"
#include "xsp/common/format.hpp"
#include "xsp/models/builder.hpp"
#include "xsp/profile/leveled.hpp"
#include "xsp/report/table.hpp"
#include "xsp/sim/gpu_spec.hpp"

namespace {

/// A made-up "SensorNet": mixed conv + depthwise trunk, a global-context
/// branch, and a regression head — the kind of user-defined architecture a
/// vendor-instrumented framework would not know how to annotate.
xsp::framework::Graph build_sensornet(std::int64_t batch) {
  using namespace xsp::models;
  GraphBuilder b("SensorNet", batch, /*decompose_batchnorm=*/true);
  b.input(4, 96, 96);  // 4-channel sensor input
  b.conv(24, 5, 2).batch_norm().relu();
  for (int block = 0; block < 4; ++block) {
    const auto entry = b.shape();
    b.depthwise(3, 1).batch_norm().relu();
    b.conv(entry.c, 1, 1).batch_norm();
    b.add_n(2).relu();
  }
  b.conv(96, 3, 2).batch_norm().relu();
  // Global-context branch folded back in.
  const auto trunk = b.shape();
  b.global_avg_pool();
  b.conv(96, 1, 1).sigmoid();
  b.set_shape(trunk);
  b.add();  // feature recalibration
  b.conv(128, 3, 2).batch_norm().relu();
  b.global_avg_pool();
  b.fc(64).relu();
  b.fc(7, /*bias=*/true);  // 7 regression targets
  return std::move(b).build();
}

}  // namespace

int main() {
  using namespace xsp;
  const auto& system = sim::tesla_v100();
  const auto graph = build_sensornet(16);

  std::printf("SensorNet: %zu runtime layers, %.2f MB parameters, batch %lld\n\n",
              graph.layers.size(), graph.graph_size_bytes() / 1e6,
              static_cast<long long>(graph.batch()));

  profile::LeveledRunner runner(system, framework::FrameworkKind::kTFlow);
  const auto result = runner.run(graph);

  std::printf("leveled experimentation:\n");
  std::printf("  M     %8.3f ms\n", to_ms(result.m.model_latency));
  std::printf("  M/L   %8.3f ms (layer profiling overhead %.3f ms)\n",
              to_ms(result.ml.model_latency), to_ms(result.layer_overhead()));
  std::printf("  M/L/G %8.3f ms (GPU profiling overhead %.3f ms)\n\n",
              to_ms(result.mlg.model_latency), to_ms(result.gpu_overhead()));

  // Hierarchical step-through: walk the assembled M/L/G timeline.
  std::printf("assembled timeline (first 14 nodes of the hierarchy):\n");
  int printed = 0;
  result.mlg.timeline.walk([&](const trace::TimelineNode& node, int depth) {
    if (printed++ >= 14) return;
    std::printf("  %*s%s [%s] %.3f ms\n", depth * 2, "", node.span.name.c_str(),
                trace::level_name(node.span.level), to_ms(node.span.duration()));
  });
  std::printf("  ... (%zu nodes total, %zu async kernel correlations, %zu ambiguous)\n\n",
              result.mlg.timeline.size(), result.mlg.timeline.correlated_async_count(),
              result.mlg.timeline.ambiguous_count());

  // Which layer type hurts most? (A6 on a custom model.)
  report::TextTable t({"Layer Type", "Count", "Latency %", "GPU %"});
  const auto by_type = analysis::layer_type_aggregation(result.profile);
  const auto gpu_rows = analysis::a13_gpu_vs_nongpu(result.profile);
  for (const auto& a : by_type) {
    double gpu_ms = 0;
    double layer_ms = 0;
    for (std::size_t i = 0; i < result.profile.layers.size(); ++i) {
      if (result.profile.layers[i].type == a.type) {
        gpu_ms += gpu_rows[i].gpu_ms;
        layer_ms += gpu_rows[i].layer_ms;
      }
    }
    t.add_row({a.type, std::to_string(a.count), fmt_fixed(a.latency_pct, 1),
               fmt_fixed(layer_ms > 0 ? gpu_ms / layer_ms * 100 : 0, 1)});
  }
  std::printf("layer-type breakdown (A6 + A13):\n%s", t.str().c_str());
  return 0;
}
