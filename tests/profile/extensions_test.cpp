// Tests for the paper's Section III-E extensions: the ML-library profiling
// level between layer and kernel, and the application level above the
// model level (multi-model applications through distributed tracing).
#include <gtest/gtest.h>

#include "xsp/models/builder.hpp"
#include "xsp/profile/leveled.hpp"
#include "xsp/profile/session.hpp"

namespace xsp::profile {
namespace {

framework::Graph small_graph(std::int64_t batch = 2, bool decompose_bn = true) {
  models::GraphBuilder b("small", batch, decompose_bn);
  b.input(3, 64, 64);
  b.conv(16, 3, 1).batch_norm().relu();
  b.max_pool(2, 2);
  b.global_avg_pool().fc(10).softmax();
  return std::move(b).build();
}

ProfileOptions with_library() {
  auto o = ProfileOptions::full(false);
  o.library_level = true;
  return o;
}

TEST(LibraryLevel, LevelStringIncludesLib) {
  EXPECT_EQ(with_library().level_string(), "M/L/Lib/G");
}

TEST(LibraryLevel, LibrarySpansAppearBetweenLayersAndKernels) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), with_library());

  const auto libs = run.timeline.at_level(trace::kLibraryLevel);
  ASSERT_GT(libs.size(), 4u);
  for (const auto id : libs) {
    const auto& node = run.timeline.node(id);
    ASSERT_NE(node.parent, trace::kNoSpan) << node.span.name;
    EXPECT_EQ(run.timeline.node(node.parent).span.level, trace::kLayerLevel);
  }
  // Kernels now hang under the library spans.
  for (const auto id : run.timeline.at_level(trace::kKernelLevel)) {
    const auto& node = run.timeline.node(id);
    ASSERT_NE(node.parent, trace::kNoSpan) << node.span.name;
    EXPECT_EQ(run.timeline.node(node.parent).span.level, trace::kLibraryLevel)
        << node.span.name;
  }
}

TEST(LibraryLevel, CudnnAndCublasCallsNamed) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), with_library());
  EXPECT_TRUE(run.timeline.find_by_name("cudnnConvolutionForward").has_value());
  EXPECT_TRUE(run.timeline.find_by_name("cublasSgemm").has_value());
  EXPECT_TRUE(run.timeline.find_by_name("cudnnPoolingForward").has_value());
  EXPECT_TRUE(run.timeline.find_by_name("cudnnSoftmaxForward").has_value());
}

TEST(LibraryLevel, MxnetUsesItsOwnLaunchers) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kMXLite);
  const auto run = s.profile(small_graph(2, /*decompose_bn=*/false), with_library());
  EXPECT_TRUE(run.timeline.find_by_name("cudnnBatchNormalizationForwardInference").has_value());
  EXPECT_TRUE(run.timeline.find_by_name("mxnet::op::Kernel::Launch").has_value());
  EXPECT_FALSE(run.timeline.find_by_name("Eigen::GpuDevice::execute").has_value());
}

TEST(LibraryLevel, MergeStillCorrelatesKernelsToLayers) {
  // With the intermediate level present, kernels must still resolve their
  // layer through the ancestor walk.
  Session m_session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  Session ml_session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  Session mlg_session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto m = m_session.profile(small_graph(), ProfileOptions::model_only());
  const auto ml = ml_session.profile(small_graph(), ProfileOptions::model_layer());
  const auto mlg = mlg_session.profile(small_graph(), with_library());
  const auto profile = merge_runs(m, ml, mlg, "small", "Tesla_V100", "TFlow", 2);
  for (const auto& k : profile.kernels) {
    EXPECT_GE(k.layer_index, 0) << k.name;
  }
  Ns layer_kernel_sum = 0;
  for (const auto& l : profile.layers) layer_kernel_sum += l.kernel_latency;
  EXPECT_EQ(layer_kernel_sum, profile.total_kernel_latency());
}

TEST(LibraryLevel, DisabledByDefaultEverywhere) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), ProfileOptions::full(false));
  EXPECT_TRUE(run.timeline.at_level(trace::kLibraryLevel).empty());
}

TEST(ApplicationLevel, MultiModelPipelineUnderOneApplicationSpan) {
  // "Adding an application profiling level above the model level to
  // measure whole applications (possibly ... using more than one ML model)
  // is naturally supported" — Section III-E. Two models, one timeline.
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);

  trace::TraceServer server(trace::PublishMode::kSync);
  trace::Tracer app_tracer(server, "application", trace::kApplicationLevel);
  trace::Tracer model_tracer(server, "model_timer", trace::kModelLevel);

  const auto detector = small_graph(1);
  const auto classifier = small_graph(1);

  const auto app = app_tracer.start_span("VideoAnalyticsApp", s.clock().now());
  for (const auto* g : {&detector, &classifier}) {
    const auto m = model_tracer.start_span(g->model_name + "/Predict", s.clock().now());
    s.executor().run(*g);
    model_tracer.finish_span(m, s.clock().now());
  }
  app_tracer.finish_span(app, s.clock().now());

  const auto tl = trace::Timeline::assemble(server.take_trace());
  ASSERT_EQ(tl.roots().size(), 1u);
  const auto& root = tl.node(tl.roots()[0]);
  EXPECT_EQ(root.span.name, "VideoAnalyticsApp");
  EXPECT_EQ(root.span.level, trace::kApplicationLevel);
  EXPECT_EQ(tl.children(root.span.id).size(), 2u);
}

}  // namespace
}  // namespace xsp::profile
