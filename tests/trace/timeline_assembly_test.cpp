// Timeline assembly: no span is lost to a reused correlation id, the id
// index resolves ids of any shape, the heap allocations assembly performs
// grow neither with the number of async pairs nor with the number of
// parents, and a timeline stays valid when moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "test_alloc_count.hpp"
#include "xsp/common/rng.hpp"
#include "xsp/trace/timeline.hpp"

namespace xsp::trace {
namespace {

Span make(SpanId id, int level, TimePoint begin, TimePoint end, SpanKind kind = SpanKind::kRegular,
          std::uint64_t corr = 0, SpanId parent = kNoSpan) {
  Span s;
  s.id = id;
  s.level = level;
  s.begin = begin;
  s.end = end;
  s.kind = kind;
  s.correlation_id = corr;
  s.parent = parent;
  return s;
}

TEST(TimelineAssembly, DuplicateCorrelationIdsKeepEverySpan) {
  // Correlation id 7 carries two launches and two executions, id 8 two
  // executions and no launch. The first launch and first execution of
  // id 7 form the one pair; the other four spans stay as regular nodes.
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 1000));
  spans.push_back(make(2, kLayerLevel, 10, 500, SpanKind::kRegular, 0, 1));
  spans.push_back(make(3, kKernelLevel, 20, 25, SpanKind::kLaunch, 7));
  spans.push_back(make(4, kKernelLevel, 30, 90, SpanKind::kExecution, 7));
  spans.push_back(make(5, kKernelLevel, 40, 45, SpanKind::kLaunch, 7));
  spans.push_back(make(6, kKernelLevel, 95, 120, SpanKind::kExecution, 7));
  spans.push_back(make(7, kKernelLevel, 130, 140, SpanKind::kExecution, 8));
  spans.push_back(make(8, kKernelLevel, 150, 160, SpanKind::kExecution, 8));

  const auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.correlated_async_count(), 1u);
  EXPECT_EQ(tl.size(), spans.size() - tl.correlated_async_count());
  EXPECT_EQ(tl.unmatched_async_count(), 4u);

  EXPECT_TRUE(tl.node(4).is_async);  // the pair: first launch + first execution
  EXPECT_EQ(tl.node(4).launch_begin, 20);
  EXPECT_FALSE(tl.contains(3));
  for (const SpanId extra : {SpanId{5}, SpanId{6}, SpanId{7}, SpanId{8}}) {
    ASSERT_TRUE(tl.contains(extra)) << "span " << extra;
    EXPECT_FALSE(tl.node(extra).is_async);
    EXPECT_EQ(tl.node(extra).parent, 2u) << "span " << extra;  // by its own interval
  }
}

TEST(TimelineAssembly, IdIndexFindsSparseAndStridedIds) {
  // Ids as a fleet issues them (1024-id blocks, a few ids used per block)
  // and as arbitrary 64-bit values: every id resolves, nothing else does.
  SplitMix64 rng(5);
  std::vector<Span> spans;
  for (std::uint64_t b = 0; b < 300; ++b) {
    for (std::uint64_t k = 0; k < 3; ++k) {
      const auto t = static_cast<TimePoint>(spans.size());
      spans.push_back(make(b * 1024 + k + 1, kLayerLevel, t, t + 1));
    }
  }
  for (int i = 0; i < 500; ++i) {
    const auto t = static_cast<TimePoint>(spans.size());
    spans.push_back(make(rng.next() | 1u << 31, kLayerLevel, t, t + 1));
  }
  const auto tl = Timeline::assemble(spans);
  ASSERT_EQ(tl.size(), spans.size());
  for (const auto& s : spans) {
    ASSERT_TRUE(tl.contains(s.id)) << s.id;
    EXPECT_EQ(tl.node(s.id).span.begin, s.begin);
  }
  EXPECT_FALSE(tl.contains(kNoSpan));
  EXPECT_FALSE(tl.contains(1025 + 3));
  EXPECT_THROW((void)tl.node(4), std::out_of_range);
}

/// A ResNet-style leveled trace: `layers` layer spans with explicit
/// parents under one model span, each launching `pairs_per_layer` kernel
/// launch/execution pairs, published in 256-span batches.
SpanBatches leveled_trace(int layers, int pairs_per_layer) {
  std::vector<Span> spans;
  SpanId next_id = 1;
  std::uint64_t next_corr = 1;
  const SpanId model = next_id++;
  TimePoint t = 10;
  for (int l = 0; l < layers; ++l) {
    const SpanId layer = next_id++;
    const TimePoint begin = t;
    for (int k = 0; k < pairs_per_layer; ++k) {
      const std::uint64_t corr = next_corr++;
      spans.push_back(make(next_id++, kKernelLevel, t + 1, t + 3, SpanKind::kLaunch, corr));
      spans.push_back(make(next_id++, kKernelLevel, t + 5, t + 40, SpanKind::kExecution, corr));
      t += 4;
    }
    t += 2;
    spans.push_back(make(layer, kLayerLevel, begin, t, SpanKind::kRegular, 0, model));
    t += 1;
  }
  spans.push_back(make(model, kModelLevel, 0, t + 50));

  SpanBatches batches;
  for (std::size_t at = 0; at < spans.size(); at += 256) {
    const std::size_t end = std::min(spans.size(), at + 256);
    batches.emplace_back(spans.begin() + static_cast<std::ptrdiff_t>(at),
                         spans.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

/// Heap allocations `Timeline::assemble` performs on `batches`, which it
/// takes over (the caller's copy is made before counting starts).
std::uint64_t allocations_to_assemble(SpanBatches batches, std::size_t expected_pairs) {
  const std::uint64_t before = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  const Timeline tl = Timeline::assemble(std::move(batches));
  const std::uint64_t during = g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(tl.correlated_async_count(), expected_pairs);
  EXPECT_EQ(tl.unmatched_async_count(), 0u);
  return during;
}

TEST(TimelineAssembly, AllocationsDoNotGrowWithAsyncPairs) {
  constexpr int kLayers = 16;
  const std::uint64_t small_allocs = allocations_to_assemble(leveled_trace(kLayers, 8), kLayers * 8);
  const std::uint64_t large_allocs =
      allocations_to_assemble(leveled_trace(kLayers, 80), kLayers * 80);

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  (void)small_allocs;
  (void)large_allocs;
#else
  // 10x the pairs (1152 more of them): a fixed set of arrays either way.
  EXPECT_EQ(large_allocs, small_allocs);
#endif
}

TEST(TimelineAssembly, AllocationsDoNotGrowWithParents) {
  constexpr int kPairs = 8;
  const std::uint64_t small_allocs = allocations_to_assemble(leveled_trace(16, kPairs), 16 * kPairs);
  const std::uint64_t large_allocs =
      allocations_to_assemble(leveled_trace(160, kPairs), 160 * kPairs);

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  (void)small_allocs;
  (void)large_allocs;
#else
  // 10x the layers, each the parent of its kernels: children live in one
  // flat array, so no parent costs an allocation of its own.
  EXPECT_EQ(large_allocs, small_allocs);
#endif
}

static_assert(!std::is_copy_constructible_v<Timeline>);
static_assert(std::is_nothrow_move_constructible_v<Timeline>);

TEST(TimelineAssembly, MovedTimelineResolvesEverySpanAfterItsSourceIsGone) {
  // Nodes point into the batches the timeline owns; moving the timeline
  // moves those batches without relocating a span.
  const SpanBatches batches = leveled_trace(4, 3);
  std::vector<Span> published;
  for (const auto& batch : batches) published.insert(published.end(), batch.begin(), batch.end());

  std::optional<Timeline> source = Timeline::assemble(SpanBatches(batches));
  const std::vector<SpanId> roots = source->roots();
  Timeline moved = std::move(*source);
  source.reset();

  ASSERT_EQ(moved.size(), published.size() - moved.correlated_async_count());
  EXPECT_EQ(moved.roots(), roots);
  std::size_t walked = 0;
  moved.walk([&](const TimelineNode&, int) { ++walked; });
  EXPECT_EQ(walked, moved.size());
  for (const Span& s : published) {
    if (s.kind == SpanKind::kLaunch) {
      EXPECT_FALSE(moved.contains(s.id));
      continue;
    }
    ASSERT_TRUE(moved.contains(s.id)) << s.id;
    const TimelineNode n = moved.node(s.id);
    EXPECT_EQ(n.span.id, s.id);
    EXPECT_EQ(n.span.begin, s.begin);
    EXPECT_EQ(n.span.end, s.end);
    EXPECT_EQ(n.is_async, s.kind == SpanKind::kExecution);
  }
}

}  // namespace
}  // namespace xsp::trace
