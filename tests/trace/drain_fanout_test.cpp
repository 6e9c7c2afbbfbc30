// Drain-subscriber fan-out: multiple observers plus at most one consumer
// on one drain, subscriber lifecycle, and the per-shard load telemetry
// that rides the same drain counters.
//
// Regression anchor: the pre-fan-out API had a single subscriber slot and
// setting it twice silently replaced the first — a second exporter
// quietly starved the first one. The fan-out API errors loudly instead:
// observers are unlimited, a second kConsume attach throws.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "on_shard.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

Span make_span(SpanId id, TimePoint t) {
  Span s;
  s.id = id;
  s.begin = t;
  s.end = t + 10;
  s.name = "op";
  return s;
}

void publish_n(TraceServer& server, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
}

std::uint64_t count_spans(const SpanBatches& batches) {
  std::uint64_t total = 0;
  for (const auto& b : batches) total += b.size();
  return total;
}

// --- fan-out ---------------------------------------------------------------

TEST(DrainFanout, TwoObserversBothSeeEverySpanAndTraceStillAccumulates) {
  TraceServer server(PublishMode::kSync);
  std::uint64_t seen_a = 0;
  std::uint64_t seen_b = 0;
  server.add_drain_subscriber(
      [&seen_a](const SpanBatches& b) { seen_a += count_spans(b); }, DrainHandoff::kObserve);
  server.add_drain_subscriber(
      [&seen_b](const SpanBatches& b) { seen_b += count_spans(b); }, DrainHandoff::kObserve);
  EXPECT_EQ(server.drain_subscriber_count(), 2u);

  const std::size_t total = 2 * TraceServer::kBatchCapacity + 3;
  publish_n(server, total);
  server.flush();

  EXPECT_EQ(seen_a, total);
  EXPECT_EQ(seen_b, total);
  // Observers tee; the trace still accumulates for the normal consumer.
  EXPECT_EQ(count_spans(server.take_batches()), total);
}

TEST(DrainFanout, ObserverComposesWithConsumer) {
  TraceServer server(PublishMode::kSync);
  std::uint64_t observed = 0;
  std::uint64_t consumed = 0;
  std::vector<int> order;
  server.add_drain_subscriber(
      [&](const SpanBatches& b) {
        observed += count_spans(b);
        order.push_back(0);
      },
      DrainHandoff::kObserve);
  server.add_drain_subscriber(
      [&](const SpanBatches& b) {
        consumed += count_spans(b);
        order.push_back(1);
      },
      DrainHandoff::kConsume);

  const std::size_t total = TraceServer::kBatchCapacity + 9;
  publish_n(server, total);
  server.flush();

  EXPECT_EQ(observed, total);
  EXPECT_EQ(consumed, total);
  // The consumer runs last in every pass: an observer must see a batch
  // before its buffers are declared consumable.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  // Consumed: nothing accumulated.
  EXPECT_TRUE(server.take_batches().empty());
}

TEST(DrainFanout, ObserverAttachedAfterConsumerStillRunsBeforeIt) {
  TraceServer server(PublishMode::kSync);
  std::vector<int> order;
  server.add_drain_subscriber([&](const SpanBatches&) { order.push_back(1); },
                              DrainHandoff::kConsume);
  server.add_drain_subscriber([&](const SpanBatches&) { order.push_back(0); },
                              DrainHandoff::kObserve);
  publish_n(server, TraceServer::kBatchCapacity);
  server.flush();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0) << "observer must be delivered before the consumer";
  EXPECT_EQ(order[1], 1);
}

// --- consumer exclusivity (the loud-error regression) -----------------------

TEST(DrainFanout, SecondConsumerThrowsInsteadOfSilentlyReplacing) {
  TraceServer server(PublishMode::kSync);
  std::uint64_t consumed = 0;
  server.add_drain_subscriber(
      [&consumed](const SpanBatches& b) { consumed += count_spans(b); },
      DrainHandoff::kConsume);
  EXPECT_THROW(server.add_drain_subscriber([](const SpanBatches&) {}, DrainHandoff::kConsume),
               std::logic_error);
  // Observers remain unlimited after the failed attach.
  server.add_drain_subscriber([](const SpanBatches&) {}, DrainHandoff::kObserve);
  EXPECT_EQ(server.drain_subscriber_count(), 2u);

  // And the original consumer still owns the stream.
  publish_n(server, TraceServer::kBatchCapacity);
  server.flush();
  EXPECT_EQ(consumed, TraceServer::kBatchCapacity);
  EXPECT_TRUE(server.take_batches().empty());
}

TEST(DrainFanout, RemovingTheConsumerAllowsANewOne) {
  TraceServer server(PublishMode::kSync);
  const SubscriberId first =
      server.add_drain_subscriber([](const SpanBatches&) {}, DrainHandoff::kConsume);
  server.remove_drain_subscriber(first);
  EXPECT_NO_THROW(
      server.add_drain_subscriber([](const SpanBatches&) {}, DrainHandoff::kConsume));
}

TEST(DrainFanout, NullSubscriberIsRejected) {
  TraceServer server(PublishMode::kSync);
  EXPECT_THROW(server.add_drain_subscriber(DrainSubscriber{}), std::logic_error);
}

// --- lifecycle --------------------------------------------------------------

TEST(DrainFanout, RemoveDetachesOnlyThatSubscriber) {
  TraceServer server(PublishMode::kSync);
  std::uint64_t seen_a = 0;
  std::uint64_t seen_b = 0;
  const SubscriberId a = server.add_drain_subscriber(
      [&seen_a](const SpanBatches& b) { seen_a += count_spans(b); }, DrainHandoff::kObserve);
  server.add_drain_subscriber(
      [&seen_b](const SpanBatches& b) { seen_b += count_spans(b); }, DrainHandoff::kObserve);

  publish_n(server, TraceServer::kBatchCapacity);
  server.flush();
  server.remove_drain_subscriber(a);
  publish_n(server, TraceServer::kBatchCapacity);
  server.flush();

  EXPECT_EQ(seen_a, TraceServer::kBatchCapacity);
  EXPECT_EQ(seen_b, 2 * TraceServer::kBatchCapacity);
  // Unknown/stale ids are a harmless no-op.
  server.remove_drain_subscriber(a);
  server.remove_drain_subscriber(9999);
}

TEST(DrainFanout, ThrowingObserverIsDetachedOthersKeepRunningNoSpansLost) {
  TraceServer server(PublishMode::kSync);
  int throw_calls = 0;
  std::uint64_t healthy_seen = 0;
  server.add_drain_subscriber(
      [&throw_calls](const SpanBatches&) {
        ++throw_calls;
        throw std::runtime_error("observer died");
      },
      DrainHandoff::kObserve);
  server.add_drain_subscriber(
      [&healthy_seen](const SpanBatches& b) { healthy_seen += count_spans(b); },
      DrainHandoff::kObserve);

  publish_n(server, TraceServer::kBatchCapacity);
  server.flush();
  publish_n(server, TraceServer::kBatchCapacity);
  server.flush();

  EXPECT_EQ(throw_calls, 1) << "throwing observer must be detached after the first throw";
  EXPECT_EQ(healthy_seen, 2 * TraceServer::kBatchCapacity)
      << "a healthy observer must survive a sibling's failure";
  // No spans were lost to the failure: observers only tee.
  EXPECT_EQ(count_spans(server.take_batches()), 2 * TraceServer::kBatchCapacity);
}

// --- sharded fan-out + load telemetry ---------------------------------------

TEST(DrainFanout, ShardedShardAwareSubscriberReceivesCorrectShardIndices) {
  constexpr std::size_t kShards = 3;
  TraceServer server(kShards, PublishMode::kSync);

  std::vector<std::uint64_t> per_shard(kShards, 0);
  server.add_drain_subscriber(
      [&per_shard](std::size_t shard, const SpanBatches& b) {
        ASSERT_LT(shard, per_shard.size());
        per_shard[shard] += count_spans(b);
      },
      DrainHandoff::kConsume);

  constexpr std::size_t kPerShard = 2 * TraceServer::kBatchCapacity;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    on_shard(server, shard, [&server] {
      for (std::size_t i = 0; i < kPerShard; ++i) {
        server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
      }
    });
  }
  server.flush();

  for (std::size_t shard = 0; shard < kShards; ++shard) {
    EXPECT_EQ(per_shard[shard], kPerShard) << "shard " << shard;
  }
  // The server-side load counters tell the same story, and survive the
  // consumer keeping the shards empty.
  EXPECT_EQ(server.shard_loads(), per_shard);
  EXPECT_TRUE(server.take_batches().empty());
}

TEST(DrainFanout, ShardLoadsAreCumulativeAcrossTakes) {
  TraceServer server(2, PublishMode::kSync);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t shard = 0; shard < 2; ++shard) {
      on_shard(server, shard, [&server] {
        for (std::size_t i = 0; i < TraceServer::kBatchCapacity; ++i) {
          server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
        }
      });
    }
    (void)server.take_batches();
  }
  // span_count() (held) is zero after the takes; the loads are not.
  EXPECT_EQ(server.span_count(), 0u);
  const auto loads = server.shard_loads();
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0], 3 * TraceServer::kBatchCapacity);
  EXPECT_EQ(loads[1], 3 * TraceServer::kBatchCapacity);
}

TEST(DrainFanout, ShardedSecondConsumerThrowsAndLeavesTheFirstInCharge) {
  constexpr std::size_t kShards = 4;
  TraceServer server(kShards, PublishMode::kSync);
  std::vector<std::uint64_t> first(kShards, 0);
  server.add_drain_subscriber(
      [&first](std::size_t shard, const SpanBatches& b) { first[shard] += count_spans(b); },
      DrainHandoff::kConsume);
  bool second_called = false;
  EXPECT_THROW(server.add_drain_subscriber(
                   [&second_called](std::size_t, const SpanBatches&) { second_called = true; },
                   DrainHandoff::kConsume),
               std::logic_error);
  EXPECT_EQ(server.drain_subscriber_count(), 1u);
  // Consumer exclusivity is one check for the whole server: on every
  // shard the first consumer still receives, and owns, the stream.
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    on_shard(server, shard, [&server] {
      server.publish(make_span(server.next_span_id(), 0));
    });
  }
  server.flush();
  EXPECT_EQ(first, std::vector<std::uint64_t>(kShards, 1));
  EXPECT_FALSE(second_called);
  EXPECT_TRUE(server.take_batches().empty());
}

TEST(DrainFanout, ConcurrentPublishersFanOutToObserverAndConsumer) {
  // 4 publisher threads, async collectors, an observer and a consumer on
  // every shard: both must account for every span exactly once.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 3000;
  TraceServer server(2, PublishMode::kAsync);

  std::atomic<std::uint64_t> observed{0};
  std::atomic<std::uint64_t> consumed{0};
  server.add_drain_subscriber(
      [&observed](const SpanBatches& b) {
        observed.fetch_add(count_spans(b), std::memory_order_relaxed);
      },
      DrainHandoff::kObserve);
  server.add_drain_subscriber(
      [&consumed](const SpanBatches& b) {
        consumed.fetch_add(count_spans(b), std::memory_order_relaxed);
      },
      DrainHandoff::kConsume);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
      }
    });
  }
  for (auto& t : threads) t.join();
  server.flush();

  EXPECT_EQ(observed.load(), kThreads * kPerThread);
  EXPECT_EQ(consumed.load(), kThreads * kPerThread);
  std::uint64_t load_total = 0;
  for (const auto load : server.shard_loads()) load_total += load;
  EXPECT_EQ(load_total, kThreads * kPerThread);
  EXPECT_TRUE(server.take_batches().empty());
}

TEST(DrainFanout, AttachDetachAndThrowsRaceMultiShardDrains) {
  // The subscriber registry is read by every shard's collector under that
  // shard's drain lock and changed under all of them. Race attach/detach
  // of observers, and an observer that throws from whichever shard calls
  // it first, against four async collectors: the consumer still sees
  // every span exactly once, and the thrower is detached everywhere.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 20000;
  TraceServer server(4, PublishMode::kAsync);
  std::atomic<std::uint64_t> consumed{0};
  server.add_drain_subscriber(
      [&consumed](const SpanBatches& b) {
        consumed.fetch_add(count_spans(b), std::memory_order_relaxed);
      },
      DrainHandoff::kConsume);
  std::atomic<int> throws{0};
  server.add_drain_subscriber(
      [&throws](std::size_t, const SpanBatches&) {
        throws.fetch_add(1, std::memory_order_relaxed);
        throw std::runtime_error("observer failure");
      },
      DrainHandoff::kObserve);

  std::atomic<bool> done{false};
  std::thread churn([&server, &done] {
    std::atomic<std::uint64_t> seen{0};
    while (!done.load(std::memory_order_acquire)) {
      const SubscriberId id = server.add_drain_subscriber(
          [&seen](const SpanBatches& b) { seen.fetch_add(count_spans(b)); });
      std::this_thread::yield();
      server.remove_drain_subscriber(id);
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&server] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
      }
    });
  }
  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_release);
  churn.join();
  server.flush();

  EXPECT_EQ(consumed.load(), kThreads * kPerThread);
  // Shards draining concurrently may each catch the thrower once before
  // the detach is visible to them, never more.
  EXPECT_GE(throws.load(), 1);
  EXPECT_LE(throws.load(), 4);
  EXPECT_EQ(server.drain_subscriber_count(), 1u);
  EXPECT_TRUE(server.take_batches().empty());
}

}  // namespace
}  // namespace xsp::trace
