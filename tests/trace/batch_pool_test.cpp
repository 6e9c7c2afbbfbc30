// The process-wide batch-block pool behind SpanBatch (span.hpp): its
// memory bound, cross-thread reuse, size filter, the allocation-free
// consume cycle it enables, and (under ASan) poisoning of parked blocks.
//
// The pool is shared by every test in this binary, so each test measures
// against what the pool held when it started.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "test_alloc_count.hpp"
#include "xsp/common/rng.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/wire.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace xsp::trace {
namespace {

std::uint64_t pooled_blocks() { return batch_pool_bytes() / kBatchBytes; }

SpanBatch full_size_batch() {
  SpanBatch batch;
  batch.reserve(kBatchCapacity);
  return batch;
}

Span make_span(SpanId id) {
  Span s;
  s.id = id;
  s.begin = static_cast<TimePoint>(id);
  s.end = s.begin + 1;
  return s;
}

TEST(BatchPool, LiveAndPooledBytesNeverExceedTheLiveHighWaterMark) {
  ASSERT_EQ(kBatchBytes, 55296u);
  // A block is made only when every block is live, so live + pooled stays
  // at the larger of what the pool held at the start and the live peak.
  const std::uint64_t at_start = pooled_blocks();
  std::vector<SpanBatch> live;
  std::uint64_t high_water = 0;
  const auto check = [&] {
    high_water = std::max<std::uint64_t>(high_water, live.size());
    ASSERT_LE(live.size() + pooled_blocks(), std::max(at_start, high_water));
  };
  // Drain the pool and go 32 blocks past it, so fresh blocks are made.
  for (std::uint64_t i = 0; i < at_start + 32; ++i) {
    live.push_back(full_size_batch());
    check();
  }
  // Then a seeded random walk of takes and drops, dropping from anywhere
  // in the live set (batches die in any order).
  SplitMix64 rng(0xBA7C4);
  for (int step = 0; step < 4000; ++step) {
    if (live.empty() || rng.next() % 100 < 52) {
      live.push_back(full_size_batch());
    } else {
      std::swap(live[rng.next() % live.size()], live.back());
      live.pop_back();
    }
    check();
  }
  live.clear();
  EXPECT_EQ(pooled_blocks(), std::max(at_start, high_water));
}

TEST(BatchPool, ABatchDroppedOnAnotherThreadServesTheNextTakeHere) {
  SpanBatch batch = full_size_batch();
  const Span* block = batch.data();
  std::thread([&batch] { SpanBatch dying = std::move(batch); }).join();
  const SpanBatch next = full_size_batch();
  EXPECT_EQ(next.data(), block);
}

TEST(BatchPool, OffSizeVectorsNeverEnterThePool) {
  const auto pool_gain_of_dropping = [](auto&& make) {
    auto doomed = make();
    const std::uint64_t before = batch_pool_bytes();
    { auto dying = std::move(doomed); }
    return batch_pool_bytes() - before;
  };
  // Control: a full-size batch does enter the pool.
  EXPECT_EQ(pool_gain_of_dropping(full_size_batch), kBatchBytes);
  // Flatten output of exactly one batch's worth of spans.
  EXPECT_EQ(pool_gain_of_dropping([] {
              SpanBatches batches(1);
              for (SpanId id = 1; id <= kBatchCapacity; ++id) batches[0].push_back(make_span(id));
              return flatten_batches(batches);
            }),
            0u);
  // A short decoded frame.
  EXPECT_EQ(pool_gain_of_dropping([] {
              std::string bytes;
              {
                BinaryWriter writer([&bytes](std::string_view chunk) { bytes.append(chunk); });
                writer.write_batch({make_span(1), make_span(2), make_span(3)});
                writer.finish();
              }
              std::istringstream in(bytes);
              BinaryReader reader(in);
              SpanBatch decoded;
              EXPECT_TRUE(reader.next_batch(decoded));
              EXPECT_EQ(decoded.size(), 3u);
              return decoded;
            }),
            0u);
  // Smaller and larger reservations.
  for (const std::size_t capacity : {std::size_t{1}, kBatchCapacity - 1, kBatchCapacity + 1}) {
    EXPECT_EQ(pool_gain_of_dropping([capacity] {
                SpanBatch batch;
                batch.reserve(capacity);
                return batch;
              }),
              0u)
        << capacity;
  }
}

TEST(BatchPool, WarmPublishDrainConsumeCycleMakesZeroAllocations) {
  TraceServer server(PublishMode::kSync);
  std::uint64_t consumed = 0;
  server.add_drain_subscriber(
      [&consumed](const SpanBatches& batches) {
        for (const auto& batch : batches) consumed += batch.size();
      },
      DrainHandoff::kConsume);
  const auto cycle = [&server] {
    for (std::size_t i = 0; i < 4 * kBatchCapacity; ++i) {
      server.publish(make_span(server.next_span_id()));
    }
    server.flush();
  };
  // Warm-up: registers the slot, grows the staging vectors, fills the pool.
  for (int round = 0; round < 3; ++round) cycle();

  const std::uint64_t before = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  for (int round = 0; round < 4; ++round) cycle();
  const std::uint64_t during = g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(consumed, 7 * 4 * kBatchCapacity);
  EXPECT_EQ(server.span_count(), 0u);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Sanitizer runtimes allocate on their own schedule.
  (void)during;
#else
  EXPECT_EQ(during, 0u) << "warm publish/drain/consume cycle allocated";
#endif
}

TEST(BatchPool, DecodedFramesFillPoolBlocks) {
  // A 512-span frame (twice what a RemoteSink sends) decodes as two pool blocks,
  // not one 512-span allocation, and a 300-span frame as a pool block and
  // a 44-span rest.
  std::string bytes;
  {
    BinaryWriter writer([&bytes](std::string_view chunk) { bytes.append(chunk); });
    for (const std::size_t n : {std::size_t{512}, std::size_t{300}}) {
      SpanBatch frame;
      for (SpanId id = 1; id <= n; ++id) frame.push_back(make_span(id));
      writer.write_batch(frame);
    }
    writer.finish();
  }
  std::istringstream in(bytes);
  BinaryReader reader(in);
  const SpanBatches decoded = reader.read_all();
  ASSERT_EQ(decoded.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded[i].size(), kBatchCapacity) << i;
    EXPECT_EQ(decoded[i].capacity(), kBatchCapacity) << i;
  }
  EXPECT_EQ(decoded[3].size(), 44u);
  EXPECT_EQ(reader.spans_read(), 812u);
}

TEST(BatchPool, HandOffDrainDropLoopKeepsThePoolFlat) {
  // The collector's cycle: fill a fresh pool block, hand it to the server
  // whole, and let the consumer drop it when the drain delivers it.
  TraceServer server(PublishMode::kSync);
  std::uint64_t consumed = 0;
  server.add_drain_subscriber(
      [&consumed](const SpanBatches& batches) {
        for (const auto& batch : batches) consumed += batch.size();
      },
      DrainHandoff::kConsume);
  const auto cycle = [&server] {
    SpanBatch batch = full_size_batch();
    for (std::size_t i = 0; i < kBatchCapacity; ++i) batch.push_back(make_span(server.next_span_id()));
    server.publish_batch(std::move(batch));
    server.flush();
  };
  for (int round = 0; round < 3; ++round) cycle();  // registers the slot, grows the staging
  const std::uint64_t warm = batch_pool_bytes();
  const std::uint64_t before = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  for (int round = 0; round < 100; ++round) {
    cycle();
    ASSERT_EQ(batch_pool_bytes(), warm) << "round " << round;
  }
  const std::uint64_t during = g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(consumed, 103 * kBatchCapacity);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  (void)during;
#else
  EXPECT_EQ(during, 0u) << "warm hand-off/drain/drop cycle allocated";
#endif
}

#if defined(__SANITIZE_ADDRESS__)
TEST(BatchPool, ADroppedBlockIsPoisonedUntilReissued) {
  SpanBatch batch = full_size_batch();
  batch.push_back(make_span(1));
  const char* block = reinterpret_cast<const char*>(batch.data());
  EXPECT_FALSE(__asan_address_is_poisoned(block));
  batch = SpanBatch();  // the drop parks the block
  EXPECT_TRUE(__asan_address_is_poisoned(block));
  EXPECT_TRUE(__asan_address_is_poisoned(block + kBatchBytes - 1));
  const SpanBatch reissued = full_size_batch();
  ASSERT_EQ(reinterpret_cast<const char*>(reissued.data()), block);
  EXPECT_FALSE(__asan_address_is_poisoned(block));
}
#endif

}  // namespace
}  // namespace xsp::trace
