// Batch-buffer recycling: once the freelist is warm, the steady-state
// publish → seal → drain → take → recycle cycle must perform zero heap
// allocations — batch vectors circulate between the server's freelist and
// its producer slots instead of being malloc'd and freed per batch.
//
// Allocations are counted by the replacement operator new in
// test_alloc_count.cpp (it only counts; behaviour is unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "on_shard.hpp"
#include "test_alloc_count.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

Span make_span(SpanId id, TimePoint t) {
  Span s;
  s.id = id;
  s.begin = t;
  s.end = t + 1;
  return s;
}

/// One full aggregation cycle: publish `batches` sealed batches' worth of
/// spans, take the trace, hand the buffers back.
template <typename Server>
void cycle(Server& server, std::size_t batches) {
  for (std::size_t i = 0; i < batches * TraceServer::kBatchCapacity; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  SpanBatches taken = server.take_batches();
  std::size_t total = 0;
  for (const auto& b : taken) total += b.size();
  ASSERT_EQ(total, batches * TraceServer::kBatchCapacity);
  server.recycle(std::move(taken));
}

TEST(BatchRecycling, SteadyStatePublishIsAllocationFree) {
  // kSync keeps the test single-threaded and deterministic: no collector
  // thread competes for batches, and the freelist try-lock always wins.
  TraceServer server(PublishMode::kSync);

  // Warm-up: registers the producer slot, grows the sealed/staging/outer
  // vectors, and fills the freelist.
  for (int round = 0; round < 3; ++round) cycle(server, 4);

  const std::uint64_t before = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  for (int round = 0; round < 4; ++round) cycle(server, 4);
  const std::uint64_t during = g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Sanitizer runtimes may allocate on their own; only require that the
  // cycle completes (the functional recycling checks are in `cycle`).
  (void)during;
#else
  EXPECT_EQ(during, 0u) << "steady-state publish/drain/take/recycle allocated";
#endif
}

TEST(BatchRecycling, RecycledBuffersAreActuallyReused) {
  TraceServer server(PublishMode::kSync);
  for (std::size_t i = 0; i < TraceServer::kBatchCapacity; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  SpanBatches taken = server.take_batches();
  ASSERT_FALSE(taken.empty());
  const Span* recycled_data = taken.front().data();
  server.recycle(std::move(taken));

  // The recycled buffer becomes the replacement active batch at the next
  // seal, so it shows up once two more batches have been sealed.
  for (std::size_t i = 0; i < 2 * TraceServer::kBatchCapacity; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  SpanBatches again = server.take_batches();
  ASSERT_FALSE(again.empty());
  bool reused = false;
  for (const auto& b : again) reused = reused || b.data() == recycled_data;
  EXPECT_TRUE(reused);
}

TEST(BatchRecycling, RecycleRefillsEveryShardFreelist) {
  // Round-robin distribution: after a take of 2N+ buffers from an N-shard
  // server is recycled, a publisher on every shard seals its batches into
  // recycled buffers instead of freshly allocated ones.
  constexpr std::size_t kShards = 2;
  TraceServer server(kShards, PublishMode::kSync);
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    on_shard(server, shard, [&server] {
      for (std::size_t i = 0; i < 4 * TraceServer::kBatchCapacity; ++i) {
        server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
      }
    });
  }
  SpanBatches taken = server.take_batches();
  ASSERT_GE(taken.size(), 2 * kShards);
  std::vector<const Span*> recycled;
  for (const auto& b : taken) recycled.push_back(b.data());
  server.recycle(std::move(taken));
  EXPECT_EQ(server.span_count(), 0u);

  for (std::size_t shard = 0; shard < kShards; ++shard) {
    // Each new publisher takes over its shard's parked slot, whose own
    // buffer becomes the first sealed batch; the replacement for it comes
    // from that shard's freelist and becomes the second.
    on_shard(server, shard, [&server] {
      for (std::size_t i = 0; i < 2 * TraceServer::kBatchCapacity; ++i) {
        server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
      }
    });
  }
  const SpanBatches again = server.take_batches();
  std::size_t spans = 0;
  std::size_t reused = 0;
  for (const auto& b : again) {
    spans += b.size();
    reused += std::count(recycled.begin(), recycled.end(), b.data()) != 0 ? 1 : 0;
  }
  EXPECT_EQ(spans, 2 * TraceServer::kBatchCapacity * kShards);
  // One recycled buffer per shard: had recycle() filled only one shard's
  // freelist, the other shard would have allocated its replacement.
  EXPECT_EQ(reused, kShards);
  EXPECT_EQ(server.shard_loads(),
            std::vector<std::uint64_t>(kShards, 6 * TraceServer::kBatchCapacity));
}

}  // namespace
}  // namespace xsp::trace
