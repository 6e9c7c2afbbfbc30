#include "xsp/profile/leveled.hpp"

#include <gtest/gtest.h>

#include "xsp/models/builder.hpp"
#include "xsp/profile/span_keys.hpp"

namespace xsp::profile {
namespace {

framework::Graph small_graph(std::int64_t batch = 4) {
  models::GraphBuilder b("small", batch, true);
  b.input(3, 64, 64);
  b.conv(16, 3, 1).batch_norm().relu();
  b.conv(32, 3, 2).batch_norm().relu();
  b.global_avg_pool().fc(10).softmax();
  return std::move(b).build();
}

/// Indices of the kernels merge_runs attached to `layer`: those carrying
/// its (non-negative) layer index.
std::vector<std::size_t> kernels_of(const ModelProfile& profile, const LayerView& layer) {
  std::vector<std::size_t> out;
  if (layer.index < 0) return out;
  for (std::size_t k = 0; k < profile.kernels.size(); ++k) {
    if (profile.kernels[k].layer_index == layer.index) out.push_back(k);
  }
  return out;
}

TEST(Leveled, OverheadsArePositiveAndQuantified) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto result = runner.run(small_graph());
  EXPECT_GT(result.layer_overhead(), 0);
  EXPECT_GT(result.gpu_overhead(), 0);
  EXPECT_EQ(result.profile.layer_profiling_overhead, result.layer_overhead());
  EXPECT_EQ(result.profile.gpu_profiling_overhead, result.gpu_overhead());
}

TEST(Leveled, LayerOverheadMatchesProfilerCost) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto g = small_graph();
  const auto result = runner.run(g);
  const Ns expected = framework::traits_for(framework::FrameworkKind::kTFlow)
                          .profiler_per_layer_ns *
                      static_cast<Ns>(g.layers.size());
  EXPECT_NEAR(static_cast<double>(result.layer_overhead()), static_cast<double>(expected),
              static_cast<double>(us(20)));
}

TEST(Leveled, MetricRunIsTheExpensiveOne) {
  // Section III-C: metric replay dominates; the activity-level G run stays
  // cheap so the overhead ladder is usable.
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  // A GPU-heavy graph so kernel replay dominates the CPU-side costs.
  models::GraphBuilder b("gpu_heavy", 128, true);
  b.input(3, 128, 128);
  b.conv(64, 3, 1).batch_norm().relu();
  b.conv(128, 3, 2).batch_norm().relu();
  b.global_avg_pool().fc(10).softmax();
  const auto result = runner.run(std::move(b).build(), /*gpu_metrics=*/true);
  EXPECT_GT(result.metric_slowdown(), 3.0);
  EXPECT_LT(static_cast<double>(result.gpu_overhead()),
            static_cast<double>(result.mlgm.model_latency - result.ml.model_latency));
}

TEST(Leveled, AccurateModelLatencyComesFromMRun) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto result = runner.run(small_graph());
  EXPECT_EQ(result.profile.model_latency, result.m.model_latency);
  EXPECT_LT(result.profile.model_latency, result.ml.model_latency);
}

TEST(Leveled, MergedProfileHasLayersAndKernels) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto g = small_graph();
  const auto result = runner.run(g);
  EXPECT_EQ(result.profile.layers.size(), g.layers.size());
  EXPECT_GT(result.profile.kernels.size(), 5u);
  EXPECT_EQ(result.profile.model_name, "small");
  EXPECT_EQ(result.profile.system_name, "Tesla_V100");
  EXPECT_EQ(result.profile.framework_name, "TFlow");
  EXPECT_EQ(result.profile.batch, 4);
}

TEST(Leveled, KernelsCorrelateToLayers) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto result = runner.run(small_graph());
  for (const auto& k : result.profile.kernels) {
    EXPECT_GE(k.layer_index, 0) << k.name << " must correlate to a layer";
  }
  // Layer kernel aggregates are consistent with the kernel list.
  for (const auto& l : result.profile.layers) {
    Ns sum = 0;
    for (const auto kid : kernels_of(result.profile, l)) {
      const auto& k = result.profile.kernels[kid];
      if (!k.is_memcpy) sum += k.latency;
    }
    EXPECT_EQ(sum, l.kernel_latency) << l.name;
  }
}

TEST(Leveled, MetricsFlowIntoMergedKernels) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto result = runner.run(small_graph(), /*gpu_metrics=*/true);
  double total_flops = 0;
  for (const auto& k : result.profile.kernels) total_flops += k.flops;
  EXPECT_GT(total_flops, 0);
  EXPECT_GT(result.profile.weighted_occupancy(), 0);
  EXPECT_LE(result.profile.weighted_occupancy(), 1.0);
}

TEST(Leveled, WithoutMetricsKernelsHaveTimingOnly) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto result = runner.run(small_graph(), /*gpu_metrics=*/false);
  EXPECT_GT(result.profile.kernels.size(), 0u);
  EXPECT_DOUBLE_EQ(result.profile.total_flops(), 0.0);
  EXPECT_GT(result.profile.total_kernel_latency(), 0);
}

TEST(Leveled, NonGpuLatencyIsNonNegative) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto result = runner.run(small_graph());
  for (const auto& l : result.profile.layers) {
    EXPECT_GE(l.non_gpu_latency(), 0) << l.name;
    EXPECT_LE(l.kernel_latency, l.latency) << l.name;
  }
}

TEST(Leveled, LayerLatenciesSumNearModelLatency) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto result = runner.run(small_graph());
  Ns layer_sum = 0;
  for (const auto& l : result.profile.layers) layer_sum += l.latency;
  EXPECT_LE(layer_sum, result.ml.model_latency);
  // Model latency = session fixed cost + the layers themselves.
  const Ns fixed = framework::traits_for(framework::FrameworkKind::kTFlow).fixed_run_overhead_ns;
  EXPECT_NEAR(static_cast<double>(layer_sum + fixed),
              static_cast<double>(result.profile.model_latency),
              0.05 * static_cast<double>(result.profile.model_latency));
}

TEST(Leveled, RunModelBuildsWithFrameworkLowering) {
  const auto* model = models::find_tensorflow_model("MobileNet_v1_0.25_128");
  ASSERT_NE(model, nullptr);
  LeveledRunner tf(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  LeveledRunner mx(sim::tesla_v100(), framework::FrameworkKind::kMXLite);
  const auto tf_result = tf.run_model(*model, 2);
  const auto mx_result = mx.run_model(*model, 2);
  // TF decomposes BN -> more layers than the fused MXNet graph.
  EXPECT_GT(tf_result.profile.layers.size(), mx_result.profile.layers.size());
}

TEST(Leveled, RepeatedLatencySummary) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto summary = runner.repeated_model_latency_ms(small_graph(), 10, 0.05);
  EXPECT_EQ(summary.count, 10u);
  EXPECT_GT(summary.stddev, 0);  // jitter produced spread
  EXPECT_GE(summary.trimmed_mean, summary.min);
  EXPECT_LE(summary.trimmed_mean, summary.max);
}

TEST(Leveled, ModelLatencyDeterministicWithoutJitter) {
  LeveledRunner runner(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  EXPECT_EQ(runner.model_latency(small_graph()), runner.model_latency(small_graph()));
}

trace::Span level_span(trace::SpanId id, int level, Ns begin, Ns end, int layer_index) {
  trace::Span s;
  s.id = id;
  s.level = level;
  s.name = "merge_span";
  s.begin = begin;
  s.end = end;
  if (layer_index != -1) s.metrics.set(span_keys().layer_index, layer_index);
  return s;
}

TEST(MergeRuns, KernelsAttachByLayerIndexOnly) {
  // The M/L run carries layers 0 and 2 and one layer without an index.
  RunTrace ml;
  ml.timeline = trace::Timeline::assemble(std::vector<trace::Span>{
      level_span(1, trace::kModelLevel, 0, 100, -1),
      level_span(2, trace::kLayerLevel, 0, 30, 0),
      level_span(3, trace::kLayerLevel, 30, 60, 2),
      level_span(4, trace::kLayerLevel, 60, 90, -1),
  });
  // The M/L/G run's kernels sit under layers 0, 1 and 5, and one sits
  // under no layer at all.
  RunTrace mlg;
  mlg.timeline = trace::Timeline::assemble(std::vector<trace::Span>{
      level_span(1, trace::kModelLevel, 0, 100, -1),
      level_span(2, trace::kLayerLevel, 0, 30, 0),
      level_span(3, trace::kLayerLevel, 30, 60, 1),
      level_span(4, trace::kLayerLevel, 60, 90, 5),
      level_span(5, trace::kKernelLevel, 5, 10, -1),
      level_span(6, trace::kKernelLevel, 35, 40, -1),
      level_span(7, trace::kKernelLevel, 65, 70, -1),
      level_span(8, trace::kKernelLevel, 95, 99, -1),
  });
  const ModelProfile profile = merge_runs(RunTrace{}, ml, mlg, "m", "sys", "fw", 1);

  ASSERT_EQ(profile.kernels.size(), 4u);
  EXPECT_EQ(profile.kernels[0].layer_index, 0);
  EXPECT_EQ(profile.kernels[1].layer_index, 1);
  EXPECT_EQ(profile.kernels[2].layer_index, 5);
  EXPECT_EQ(profile.kernels[3].layer_index, -1);
  ASSERT_EQ(profile.layers.size(), 3u);
  // Only the kernel whose layer the M/L run has attaches; index 1 has no
  // layer, 5 is past the last one, and -1 matches no layer, not even the
  // one without an index.
  EXPECT_EQ(profile.layers[0].index, 0);
  EXPECT_EQ(kernels_of(profile, profile.layers[0]), (std::vector<std::size_t>{0}));
  EXPECT_EQ(profile.layers[0].kernel_latency, 5);
  EXPECT_TRUE(kernels_of(profile, profile.layers[1]).empty());
  EXPECT_EQ(profile.layers[1].kernel_latency, 0);
  EXPECT_EQ(profile.layers[2].index, -1);
  EXPECT_TRUE(kernels_of(profile, profile.layers[2]).empty());
  EXPECT_EQ(profile.layers[2].kernel_latency, 0);
}

}  // namespace
}  // namespace xsp::profile
