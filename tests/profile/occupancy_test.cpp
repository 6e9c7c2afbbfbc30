// Annotation occupancy guard: trace::Span's fixed annotation maps are sized
// from what the profilers in this tree actually emit, so a producer that
// starts attaching more annotations must fail here, not silently drop them
// in the field.
//
// Measured when the record was sized (every model of both zoos, batch
// {1, 256}, all four leveled runs): at most 2 tags, 4 metrics and 2 inline
// tags on any assembled span, and no dropped annotation. Kernel spans carry
// the most: kind + kernel name, grid + block inline, and the four CUPTI
// metrics. A map never holds more than its capacity — an annotation past it
// is counted in dropped_annotations instead — so the drop counts are what
// catch a producer outgrowing the record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "xsp/models/registry.hpp"
#include "xsp/profile/leveled.hpp"
#include "xsp/profile/session.hpp"

namespace xsp::profile {
namespace {

struct Occupancy {
  std::size_t tags = 0;
  std::size_t metrics = 0;
  std::size_t inline_tags = 0;
  std::size_t spans = 0;
};

void observe(const RunTrace& run, const std::string& what, Occupancy& max) {
  EXPECT_EQ(run.dropped_annotations, 0u) << what;
  run.timeline.walk([&](const trace::TimelineNode& node, int) {
    const trace::Span& s = node.span;
    EXPECT_EQ(s.dropped_annotations, 0u) << what << ": " << s.name;
    max.tags = std::max(max.tags, s.tags.size());
    max.metrics = std::max(max.metrics, s.metrics.size());
    max.inline_tags = std::max(max.inline_tags, s.inline_tags.size());
    ++max.spans;
  });
}

void profile_zoo(const std::vector<models::ModelInfo>& zoo, framework::FrameworkKind fw,
                 Occupancy& max) {
  const LeveledRunner runner(sim::tesla_v100(), fw);
  for (const models::ModelInfo& m : zoo) {
    const framework::Graph graph = m.build(1, runner.decompose_batchnorm());
    const LeveledResult r = runner.run(graph, /*gpu_metrics=*/true);
    observe(r.m, m.name + " M", max);
    observe(r.ml, m.name + " M/L", max);
    observe(r.mlg, m.name + " M/L/G", max);
    observe(r.mlgm, m.name + " M/L/G+metrics", max);
  }
}

TEST(AnnotationOccupancy, EveryZooSpanFitsTheRecord) {
  Occupancy max;
  profile_zoo(models::tensorflow_models(), framework::FrameworkKind::kTFlow, max);
  profile_zoo(models::mxnet_models(), framework::FrameworkKind::kMXLite, max);

  // The library level adds cuDNN/cuBLAS call spans between layer and kernel.
  Session session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  ProfileOptions lib = ProfileOptions::full(/*metrics=*/true);
  lib.library_level = true;
  const models::ModelInfo* resnet = models::find_tensorflow_model("MLPerf_ResNet50_v1.5");
  ASSERT_NE(resnet, nullptr);
  observe(session.profile(resnet->build(1, true), lib), "ResNet-50 M/L/Lib/G+metrics", max);

  ASSERT_GT(max.spans, 0u);
  EXPECT_LE(max.tags, trace::TagMap::capacity());
  EXPECT_LE(max.metrics, trace::MetricMap::capacity());
  EXPECT_LE(max.inline_tags, trace::InlineTagMap::kCapacity);
}

}  // namespace
}  // namespace xsp::profile
