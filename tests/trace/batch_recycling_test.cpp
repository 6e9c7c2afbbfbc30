// Batch-buffer recycling: once the freelist is warm, the steady-state
// publish → seal → drain → take → recycle cycle must perform zero heap
// allocations — batch vectors circulate between the server's freelist and
// its producer slots instead of being malloc'd and freed per batch.
//
// Allocations are counted by the replacement operator new in
// test_alloc_count.cpp (it only counts; behaviour is unchanged).
#include <gtest/gtest.h>

#include "test_alloc_count.hpp"
#include "xsp/trace/sharded_trace_server.hpp"
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

TEST(BatchRecycling, ShardedRecycleRefillsEveryShardFreelist) {
  // Round-robin distribution: after recycling 2N buffers into an N-shard
  // fleet, each shard can seal a batch without allocating a fresh vector.
  constexpr std::size_t kShards = 2;
  ShardedTraceServer server(kShards, PublishMode::kSync);
  // Publishing through shard(i) lets one thread feed both shards.
  for (std::size_t i = 0; i < 4 * TraceServer::kBatchCapacity * kShards; ++i) {
    server.shard(i % kShards).publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  SpanBatches taken = server.take_batches();
  ASSERT_GE(taken.size(), 2 * kShards);
  server.recycle(std::move(taken));
  for (std::size_t i = 0; i < kShards; ++i) {
    // Freelist contents are not directly observable; a second cycle that
    // completes and balances per-shard counts exercises the reuse path.
    EXPECT_EQ(server.shard(i).span_count(), 0u);
  }
  for (std::size_t i = 0; i < 2 * TraceServer::kBatchCapacity * kShards; ++i) {
    server.shard(i % kShards).publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  EXPECT_EQ(server.span_count(), 2 * TraceServer::kBatchCapacity * kShards);
}

}  // namespace
}  // namespace xsp::trace
