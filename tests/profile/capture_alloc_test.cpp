// Allocation bound for GPU-level capture: records become spans in pooled
// batch blocks as CUPTI delivers them, so a run's heap allocations do not
// grow with its kernel count beyond the extra blocks its spans fill.
#include <gtest/gtest.h>

#include <cstdint>

#include "../trace/test_alloc_count.hpp"
#include "xsp/models/builder.hpp"
#include "xsp/profile/session.hpp"

namespace xsp::profile {
namespace {

/// A chain of `layers` activations: one kernel (and one layer span, launch
/// span and execution span) per layer.
framework::Graph activation_chain(int layers) {
  models::GraphBuilder b("activation_chain", 2, true);
  b.input(3, 32, 32);
  for (int i = 0; i < layers; ++i) b.relu();
  return std::move(b).build();
}

struct Count {
  std::uint64_t allocations = 0;
  std::size_t spans = 0;
};

/// Heap allocations of one M/L/G profile() call, on a session that has
/// already run `graph` once (so process-wide caches and the session's own
/// buffers are warm, as in leveled experimentation).
Count profile_allocations(const framework::Graph& graph) {
  Session session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  (void)session.profile(graph, ProfileOptions::full(/*metrics=*/false));
  const std::uint64_t before = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  const RunTrace run = session.profile(graph, ProfileOptions::full(/*metrics=*/false));
  Count count;
  count.allocations = g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before;
  count.spans = run.timeline.size();
  return count;
}

/// Pool blocks a run's capture spans fill: layer, launch and execution
/// spans are each built into their own blocks.
std::uint64_t capture_blocks(int kernels) {
  const auto blocks = static_cast<std::uint64_t>((kernels + trace::kBatchCapacity - 1) /
                                                 trace::kBatchCapacity);
  return 3 * blocks;
}

TEST(SessionCapture, AllocationsGrowOnlyByPoolBlocksWithKernelCount) {
  constexpr int kFew = 20;
  constexpr int kMany = 10 * kFew;
  const framework::Graph few_graph = activation_chain(kFew);
  const framework::Graph many_graph = activation_chain(kMany);
  const Count few = profile_allocations(few_graph);
  const Count many = profile_allocations(many_graph);
  ASSERT_GT(many.spans, 8 * few.spans) << "the larger graph must launch about 10x the kernels";
  // The input layer adds one copy to each run: at most one block more.
  const std::uint64_t extra_blocks = capture_blocks(kMany + 1) - capture_blocks(kFew + 1);
  EXPECT_LE(many.allocations, few.allocations + extra_blocks)
      << few.allocations << " allocations for " << few.spans << " spans, " << many.allocations
      << " for " << many.spans;
}

}  // namespace
}  // namespace xsp::profile
