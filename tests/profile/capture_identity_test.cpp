// Byte-identity oracle for the GPU capture path (simulated launch ->
// CUPTI records -> spans). Every value below was recorded from the
// string-carrying capture path this one replaced; a change that alters a
// kernel or layer name, a tag or inline tag, a metric's value or order, or
// any timing changes the digest of the exported span JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "xsp/models/registry.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/trace/export.hpp"

namespace xsp::profile {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Expected {
  std::size_t spans;
  std::uint64_t digest;
};

/// Expected values per level: M/L, M/L/G, M/L/G+metrics.
struct Case {
  const models::ModelInfo* model;
  framework::FrameworkKind framework;
  std::int64_t batch;
  Expected levels[3];
};

void check(const Case& c) {
  ASSERT_NE(c.model, nullptr);
  const bool tf = c.framework == framework::FrameworkKind::kTFlow;
  const framework::Graph graph = c.model->build(c.batch, /*decompose_bn=*/tf);
  const ProfileOptions levels[3] = {ProfileOptions::model_layer(),
                                    ProfileOptions::full(/*metrics=*/false),
                                    ProfileOptions::full(/*metrics=*/true)};
  for (int i = 0; i < 3; ++i) {
    // A fresh session per level, as leveled experimentation runs them:
    // span ids restart, so the exported bytes are reproducible.
    Session session(sim::tesla_v100(), c.framework);
    const RunTrace run = session.profile(graph, levels[i]);
    const std::string json = trace::to_span_json(run.timeline);
    EXPECT_EQ(run.timeline.size(), c.levels[i].spans)
        << c.model->name << " b" << c.batch << " " << levels[i].level_string()
        << (levels[i].gpu_metrics ? "+metrics" : "");
    EXPECT_EQ(fnv1a(json), c.levels[i].digest)
        << c.model->name << " b" << c.batch << " " << levels[i].level_string()
        << (levels[i].gpu_metrics ? "+metrics" : "") << " digest 0x" << std::hex
        << fnv1a(json);
    EXPECT_EQ(run.timeline.unmatched_async_count(), 0u);
    EXPECT_EQ(run.dropped_annotations, 0u);
  }
}

TEST(CaptureIdentity, ResNet50Batch1) {
  check({models::find_tensorflow_model("MLPerf_ResNet50_v1.5"),
         framework::FrameworkKind::kTFlow,
         1,
         {{233, 0xa662602006f1b093ull}, {535, 0xef2e0f31133ea892ull}, {535, 0x88acee4a56b8889eull}}});
}

TEST(CaptureIdentity, ResNet50Batch64) {
  check({models::find_tensorflow_model("MLPerf_ResNet50_v1.5"),
         framework::FrameworkKind::kTFlow,
         64,
         {{233, 0xa54a6fd5de1bc64dull}, {569, 0xe00468a4aede4f5dull}, {569, 0x37fc96ceac84a9f4ull}}});
}

TEST(CaptureIdentity, MXNetResNetV1_50Batch256) {
  // Batch 256 on the deep 7x7 stage selects the FFT convolution, so the
  // arch-prefixed cgemm name is covered too.
  check({models::find_mxnet_model(11),
         framework::FrameworkKind::kMXLite,
         256,
         {{180, 0x242d46d1ade19540ull}, {463, 0x74614f2205f1d176ull}, {463, 0x58315da9f664a6e7ull}}});
}

}  // namespace
}  // namespace xsp::profile
