#include "xsp/framework/executor.hpp"

#include <gtest/gtest.h>

#include <string>

#include "xsp/common/string_table.hpp"
#include "xsp/models/builder.hpp"
#include "xsp/models/registry.hpp"

namespace xsp::framework {
namespace {

using models::GraphBuilder;

Graph tiny_graph(std::int64_t batch, bool decompose_bn) {
  GraphBuilder b("tiny", batch, decompose_bn);
  b.input(3, 32, 32);
  b.conv(16, 3, 1).batch_norm().relu();
  b.global_avg_pool().fc(10).softmax();
  return std::move(b).build();
}

TEST(Executor, RunsGraphAndAdvancesTime) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  Executor ex(FrameworkKind::kTFlow, dev);
  const auto result = ex.run(tiny_graph(1, true));
  EXPECT_GT(result.latency(), 0);
  EXPECT_EQ(result.end, clock.now());
}

TEST(Executor, LayerRecordsOnlyWhenProfiling) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  Executor ex(FrameworkKind::kTFlow, dev);
  EXPECT_TRUE(ex.run(tiny_graph(1, true)).layer_records.empty());

  RunOptions opts;
  opts.enable_layer_profiling = true;
  const auto result = ex.run(tiny_graph(1, true), opts);
  EXPECT_EQ(result.layer_records.size(), tiny_graph(1, true).layers.size());
}

TEST(Executor, LayerRecordsCarryMetadata) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  Executor ex(FrameworkKind::kTFlow, dev);
  RunOptions opts;
  opts.enable_layer_profiling = true;
  const auto result = ex.run(tiny_graph(4, true), opts);

  const auto& conv = result.layer_records[1];
  EXPECT_EQ(conv.type, "Conv2D");
  EXPECT_EQ(conv.index, 1);
  EXPECT_GT(conv.latency(), 0);
  EXPECT_DOUBLE_EQ(conv.alloc_bytes, 4.0 * 16 * 32 * 32 * 4);
  // Records are contiguous and ordered.
  for (std::size_t i = 1; i < result.layer_records.size(); ++i) {
    EXPECT_GE(result.layer_records[i].begin, result.layer_records[i - 1].end);
  }
}

TEST(Executor, ProfilingOverheadOutsideLayerSpans) {
  // Section III-C: the framework profiler inflates the model latency but
  // each layer's recorded latency stays accurate.
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  Executor ex(FrameworkKind::kTFlow, dev);
  const auto plain = ex.run(tiny_graph(1, true));

  dev.reset();
  clock.reset();
  RunOptions opts;
  opts.enable_layer_profiling = true;
  const auto profiled = ex.run(tiny_graph(1, true), opts);

  EXPECT_GT(profiled.latency(), plain.latency());
  Ns layer_sum = 0;
  for (const auto& rec : profiled.layer_records) layer_sum += rec.latency();
  // Layers exclude the profiler's own cost.
  EXPECT_LT(layer_sum, profiled.latency());
  const Ns expected_overhead =
      traits_for(FrameworkKind::kTFlow).profiler_per_layer_ns *
      static_cast<Ns>(profiled.layer_records.size());
  EXPECT_NEAR(static_cast<double>(profiled.latency() - plain.latency()),
              static_cast<double>(expected_overhead), static_cast<double>(us(50)));
}

TEST(Executor, TFlowDecomposesBatchNormMXLiteFuses) {
  EXPECT_TRUE(traits_for(FrameworkKind::kTFlow).decompose_batchnorm);
  EXPECT_FALSE(traits_for(FrameworkKind::kMXLite).decompose_batchnorm);

  const auto tf_graph = tiny_graph(1, true);
  const auto mx_graph = tiny_graph(1, false);
  int tf_bn_parts = 0;
  int mx_bn = 0;
  for (const auto& l : tf_graph.layers) {
    if (l.type == LayerType::kMul || l.type == LayerType::kAdd) ++tf_bn_parts;
    EXPECT_NE(l.type, LayerType::kFusedBatchNorm);
  }
  for (const auto& l : mx_graph.layers) {
    if (l.type == LayerType::kFusedBatchNorm) ++mx_bn;
  }
  EXPECT_EQ(tf_bn_parts, 2);
  EXPECT_EQ(mx_bn, 1);
}

TEST(Executor, MXLiteHasHigherEngineOverhead) {
  // Section IV-B: "MXNet incurs a fixed overhead for model execution which
  // is more pronounced for small batch sizes". The cost is batch-independent
  // and per-layer, so deep ResNets feel it while shallow MobileNets don't
  // (Table X batch-1 latencies).
  EXPECT_GT(traits_for(FrameworkKind::kMXLite).per_layer_dispatch_ns,
            traits_for(FrameworkKind::kTFlow).per_layer_dispatch_ns * 2);
  EXPECT_GT(traits_for(FrameworkKind::kMXLite).fixed_run_overhead_ns,
            traits_for(FrameworkKind::kTFlow).fixed_run_overhead_ns);
}

TEST(Executor, KernelsLaunchedMatchLayerTypes) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  dev.set_record_activities(true);
  Executor ex(FrameworkKind::kTFlow, dev);
  ex.run(tiny_graph(1, true));
  const auto acts = dev.activities();
  // Data memcpy + conv (>=1) + Mul + Add + Relu(max) + avgpool + gemm +
  // bias + softmax.
  EXPECT_GE(acts.size(), 9u);
  EXPECT_EQ(acts.front().type, sim::ActivityRecord::Type::kMemcpy);
}

TEST(Executor, EveryLayerTypeExecutes) {
  // One graph touching every LayerType must run without crashing and
  // launch work for all device-backed types.
  GraphBuilder b("all_types", 2, true);
  b.input(3, 64, 64);
  b.conv(8, 3, 1).batch_norm().relu();
  b.depthwise(3, 1).batch_norm();
  b.sigmoid().tanh();
  b.add_n(2);
  b.max_pool(2, 2).avg_pool(2, 2);
  b.pad_layer(1);
  b.concat(16, 2);
  b.transpose();
  b.where();
  b.resize(32, 32);
  b.reduce();
  b.reshape({2, 8, 32, 32});
  b.fc(10).softmax();
  const Graph g = std::move(b).build();

  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  dev.set_record_activities(true);
  Executor ex(FrameworkKind::kTFlow, dev);
  RunOptions opts;
  opts.enable_layer_profiling = true;
  const auto result = ex.run(g, opts);
  EXPECT_EQ(result.layer_records.size(), g.layers.size());
  EXPECT_GT(dev.activities().size(), 15u);
}

TEST(Executor, LibraryRecordsNameTheBackendCalls) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  Executor ex(FrameworkKind::kTFlow, dev);
  RunOptions opts;
  opts.enable_library_profiling = true;
  const auto result = ex.run(tiny_graph(2, true), opts);

  ASSERT_FALSE(result.library_records.empty());
  // One record per device-backed layer (no Reshape), in layer order.
  std::vector<common::StrId> names;
  for (const auto& rec : result.library_records) {
    EXPECT_LE(rec.begin, rec.end);
    names.push_back(rec.name);
  }
  EXPECT_EQ(names[0], "cudaMemcpyAsync");              // Data
  EXPECT_EQ(names[1], "cudnnConvolutionForward");      // Conv2D
  EXPECT_EQ(names[2], "Eigen::GpuDevice::execute");    // BN Mul
  EXPECT_EQ(names.back(), "cudnnSoftmaxForward");
}

TEST(Executor, LibraryRecordsWindowIsCpuSideOnly) {
  // The library call returns once its kernels are enqueued; the record's
  // window must not include the device execution drained by the layer sync.
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  Executor ex(FrameworkKind::kTFlow, dev);
  RunOptions opts;
  opts.enable_layer_profiling = true;
  opts.enable_library_profiling = true;
  const auto result = ex.run(tiny_graph(64, true), opts);
  ASSERT_EQ(result.library_records.size(), result.layer_records.size());
  for (std::size_t i = 0; i < result.library_records.size(); ++i) {
    const auto& lib = result.library_records[i];
    const auto& layer = result.layer_records[i];
    EXPECT_GE(lib.begin, layer.begin);
    EXPECT_LE(lib.end, layer.end);
    EXPECT_LE(lib.end - lib.begin, layer.latency()) << layer.name;
  }
}

TEST(Executor, ReshapeLaunchesNothing) {
  GraphBuilder b("reshape_only", 1, true);
  b.input(1, 4, 4);
  b.reshape({1, 16, 1, 1});
  const Graph g = std::move(b).build();

  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  dev.set_record_activities(true);
  Executor ex(FrameworkKind::kTFlow, dev);
  ex.run(g);
  // Only the Data memcpy.
  EXPECT_EQ(dev.activities().size(), 1u);
}

TEST(Executor, BatchScalesLatency) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  Executor ex(FrameworkKind::kTFlow, dev);
  const Ns t1 = ex.run(tiny_graph(1, true)).latency();
  dev.reset();
  const Ns t64 = ex.run(tiny_graph(64, true)).latency();
  EXPECT_GT(t64, t1);
  // Throughput improves with batching.
  EXPECT_LT(static_cast<double>(t64) / 64.0, static_cast<double>(t1));
}

TEST(Executor, FrameworkNames) {
  EXPECT_STREQ(framework_name(FrameworkKind::kTFlow), "TFlow");
  EXPECT_STREQ(framework_name(FrameworkKind::kMXLite), "MXLite");
}

TEST(Graph, SizeSumsParameters) {
  const auto g = tiny_graph(1, true);
  EXPECT_GT(g.graph_size_bytes(), 0);
  EXPECT_EQ(g.batch(), 1);
}

/// The shape tag as string concatenation formats it: the bytes every
/// layer span carried before the tag was interned at graph build time.
std::string concatenated_shape(const dnn::Shape4& s) {
  return "<" + std::to_string(s.n) + ", " + std::to_string(s.c) + ", " + std::to_string(s.h) +
         ", " + std::to_string(s.w) + ">";
}

TEST(InternOnce, LayerIdsEqualInterningTheFormattedStrings) {
  const Graph g =
      models::find_tensorflow_model("MLPerf_ResNet50_v1.5")->build(64, /*decompose_bn=*/true);
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  Executor ex(FrameworkKind::kTFlow, dev);
  RunOptions opts;
  opts.enable_layer_profiling = true;
  const RunResult run = ex.run(g, opts);
  ASSERT_EQ(run.layer_records.size(), g.layers.size());
  bool saw_spot_check = false;
  for (std::size_t i = 0; i < g.layers.size(); ++i) {
    const Layer& l = g.layers[i];
    const LayerRecord& rec = run.layer_records[i];
    EXPECT_EQ(rec.name, l.name);
    EXPECT_EQ(rec.type, common::StrId(layer_type_name(l.type)));
    EXPECT_EQ(l.shape_tag, common::StrId(concatenated_shape(l.output)));
    EXPECT_EQ(rec.shape, l.shape_tag);
    if (l.name == "conv2d_1/Conv2D") {
      saw_spot_check = true;
      EXPECT_EQ(rec.type, common::StrId("Conv2D"));
      EXPECT_EQ(rec.shape, common::StrId("<64, 64, 55, 55>"));
    }
  }
  EXPECT_TRUE(saw_spot_check);
}

TEST(InternOnce, RepeatedRunsAddNoTableEntries) {
  const Graph g =
      models::find_tensorflow_model("MLPerf_ResNet50_v1.5")->build(64, /*decompose_bn=*/true);
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  Executor ex(FrameworkKind::kTFlow, dev);
  RunOptions opts;
  opts.enable_layer_profiling = true;
  opts.enable_library_profiling = true;
  // The first run may intern the process-lifetime kernel and library
  // names; after it, a run over the same graph interns nothing.
  (void)ex.run(g, opts);
  const std::size_t before = common::StringTable::global().size();
  for (int i = 0; i < 2; ++i) {
    dev.reset();
    (void)ex.run(g, opts);
  }
  EXPECT_EQ(common::StringTable::global().size(), before);
}

}  // namespace
}  // namespace xsp::framework
