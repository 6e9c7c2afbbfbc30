#include "xsp/trace/trace_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace xsp::trace {
namespace {

Span make_span(SpanId id, TimePoint begin, TimePoint end) {
  Span s;
  s.id = id;
  s.begin = begin;
  s.end = end;
  return s;
}

TEST(TraceServer, SyncPublishAggregates) {
  TraceServer server(PublishMode::kSync);
  server.publish(make_span(server.next_span_id(), 0, 10));
  server.publish(make_span(server.next_span_id(), 10, 20));
  EXPECT_EQ(server.span_count(), 2u);
}

TEST(TraceServer, AsyncPublishAggregatesAfterFlush) {
  TraceServer server(PublishMode::kAsync);
  for (int i = 0; i < 100; ++i) {
    server.publish(make_span(server.next_span_id(), i, i + 1));
  }
  server.flush();
  EXPECT_EQ(server.span_count(), 100u);
}

TEST(TraceServer, IdsAreUniqueAndNonZero) {
  TraceServer server(PublishMode::kSync);
  std::vector<SpanId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(server.next_span_id());
  std::sort(ids.begin(), ids.end());
  EXPECT_NE(ids.front(), kNoSpan);
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(TraceServer, CorrelationIdsAreUnique) {
  TraceServer server(PublishMode::kSync);
  const auto a = server.next_correlation_id();
  const auto b = server.next_correlation_id();
  EXPECT_NE(a, b);
}

TEST(TraceServer, TakeTraceDrainsAndResets) {
  TraceServer server(PublishMode::kSync);
  server.publish(make_span(server.next_span_id(), 0, 5));
  auto trace = server.take_trace();
  EXPECT_EQ(trace.size(), 1u);
  EXPECT_EQ(server.span_count(), 0u);
}

TEST(TraceServer, ConcurrentPublishersLoseNothing) {
  // Multiple tracers publish concurrently (CPU + GPU tracers coexist);
  // the server must aggregate every span exactly once.
  TraceServer server(PublishMode::kAsync);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&server] {
      for (int i = 0; i < kPerThread; ++i) {
        Span s;
        s.id = server.next_span_id();
        server.publish(std::move(s));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(server.span_count(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(TraceServer, DroppedAnnotationsAggregateAtAggregationTime) {
  TraceServer server(PublishMode::kSync);
  EXPECT_EQ(server.dropped_annotation_count(), 0u);
  Span a = make_span(server.next_span_id(), 0, 10);
  a.dropped_annotations = 2;
  Span b = make_span(server.next_span_id(), 10, 20);
  b.dropped_annotations = 5;
  server.publish(std::move(a));
  server.publish(std::move(b));
  server.publish(make_span(server.next_span_id(), 20, 30));  // lossless span
  EXPECT_EQ(server.dropped_annotation_count(), 7u);
  // Taking the trace starts the next run's count from zero.
  (void)server.take_batches();
  EXPECT_EQ(server.dropped_annotation_count(), 0u);
}

SpanBatch batch_of(TraceServer& server, std::size_t n) {
  SpanBatch batch;
  batch.reserve(kBatchCapacity);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<TimePoint>(i);
    batch.push_back(make_span(server.next_span_id(), t, t + 1));
  }
  return batch;
}

TEST(TraceServer, PublishBatchDeliversTheBatchOnceWithItsSpansInPlace) {
  TraceServer server(PublishMode::kSync);
  std::vector<const Span*> observed;
  server.add_drain_subscriber([&observed](const SpanBatches& batches) {
    for (const auto& batch : batches) observed.push_back(batch.data());
  });
  server.publish(make_span(server.next_span_id(), 0, 1));  // a partial slot batch too
  SpanBatch batch = batch_of(server, 300);                 // more than one pool block
  const Span* spans = batch.data();
  const SpanId first = batch.front().id;
  server.publish_batch(std::move(batch));
  EXPECT_TRUE(batch.empty());
  server.flush();
  server.flush();
  EXPECT_EQ(std::count(observed.begin(), observed.end(), spans), 1);
  const SpanBatches taken = server.take_batches();
  ASSERT_EQ(taken.size(), 2u);
  const auto handed = std::find_if(taken.begin(), taken.end(),
                                   [spans](const SpanBatch& b) { return b.data() == spans; });
  ASSERT_NE(handed, taken.end());
  EXPECT_EQ(handed->size(), 300u);
  EXPECT_EQ(handed->front().id, first);
  EXPECT_EQ(server.span_count(), 0u);
}

TEST(TraceServer, PublishBatchKeepsThreadOrder) {
  // Spans a thread published one by one, still in its partial batch, were
  // published before the batch it hands over, and must drain first.
  TraceServer server(PublishMode::kSync);
  std::vector<SpanId> published;
  for (int i = 0; i < 3; ++i) {
    published.push_back(server.next_span_id());
    server.publish(make_span(published.back(), i, i + 1));
  }
  SpanBatch batch = batch_of(server, 2);
  for (const Span& s : batch) published.push_back(s.id);
  server.publish_batch(std::move(batch));
  std::vector<SpanId> drained;
  for (const SpanBatch& b : server.take_batches()) {
    for (const Span& s : b) drained.push_back(s.id);
  }
  EXPECT_EQ(drained, published);
}

TEST(TraceServer, PublishBatchCountsItsDroppedAnnotations) {
  TraceServer server(PublishMode::kSync);
  Span a = make_span(server.next_span_id(), 0, 1);
  a.dropped_annotations = 1;
  server.publish(a);
  SpanBatch batch = batch_of(server, 40);
  batch[3].dropped_annotations = 2;
  batch[39].dropped_annotations = 0xFFFF;
  server.publish_batch(std::move(batch));
  EXPECT_EQ(server.dropped_annotation_count(), 1u + 2u + 0xFFFFu);
}

TEST(TraceServer, PublishingAnEmptyBatchDoesNothing) {
  TraceServer server(PublishMode::kSync);
  const std::size_t slots = server.live_slot_count();
  server.publish_batch(SpanBatch());
  SpanBatch reserved;
  reserved.reserve(kBatchCapacity);
  server.publish_batch(std::move(reserved));
  EXPECT_EQ(server.live_slot_count(), slots);
  EXPECT_EQ(server.span_count(), 0u);
  EXPECT_TRUE(server.take_batches().empty());
}

TEST(TraceServer, DestructionWithQueuedSpansIsClean) {
  // No hang or crash when a server with pending async work is destroyed.
  auto server = std::make_unique<TraceServer>(PublishMode::kAsync);
  for (int i = 0; i < 10; ++i) {
    Span s;
    s.id = server->next_span_id();
    server->publish(std::move(s));
  }
  server.reset();
  SUCCEED();
}

/// A kAsync server whose consuming subscriber counts delivered spans, so
/// a test can time how long published spans take to reach it.
class DeliveryClock {
 public:
  using Clock = std::chrono::steady_clock;

  DeliveryClock() {
    server_.add_drain_subscriber(
        [this](const SpanBatches& batches) {
          std::size_t n = 0;
          for (const auto& batch : batches) n += batch.size();
          {
            std::lock_guard lk(mu_);
            delivered_ += n;
          }
          cv_.notify_all();
        },
        DrainHandoff::kConsume);
  }

  void publish(std::size_t spans) {
    for (std::size_t i = 0; i < spans; ++i) {
      server_.publish(make_span(server_.next_span_id(), 0, 1));
    }
    published_ += spans;
  }

  void publish_batch(std::size_t spans) {
    SpanBatch batch;
    for (std::size_t i = 0; i < spans; ++i) batch.push_back(make_span(server_.next_span_id(), 0, 1));
    published_ += spans;
    server_.publish_batch(std::move(batch));
  }

  /// Time until every span published so far is delivered; `limit` when
  /// that does not happen within it.
  Clock::duration wait_delivered(Clock::duration limit) {
    const auto t0 = Clock::now();
    std::unique_lock lk(mu_);
    cv_.wait_for(lk, limit, [&] { return delivered_ >= published_; });
    return delivered_ >= published_ ? Clock::now() - t0 : limit;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t delivered_ = 0;
  std::size_t published_ = 0;
  // Last, so it dies (joining its collector) before what the subscriber uses.
  TraceServer server_{PublishMode::kAsync};
};

// The collector's quiet period: a drain that waits it out was not woken.
constexpr auto kQuietPeriod = std::chrono::milliseconds(50);

TEST(TraceServerAsync, OneSealedBatchWakesTheCollector) {
  // One sealed batch, then nothing: the seal itself must wake the
  // collector rather than leave the batch for the quiet-period timeout.
  DeliveryClock clock;
  std::vector<DeliveryClock::Clock::duration> lags;
  for (int burst = 0; burst < 20; ++burst) {
    clock.publish(TraceServer::kBatchCapacity);  // the last span seals
    lags.push_back(clock.wait_delivered(std::chrono::seconds(1)));
  }
  std::nth_element(lags.begin(), lags.begin() + lags.size() / 2, lags.end());
  EXPECT_LT(lags[lags.size() / 2], std::chrono::milliseconds(10));
}

TEST(TraceServerAsync, AHandedOffBatchWakesTheCollectorLikeASeal) {
  // Ten spans handed off as one batch arrive sealed: they must not wait
  // for the quiet-period sweep that a ten-span partial batch waits for.
  DeliveryClock clock;
  std::vector<DeliveryClock::Clock::duration> lags;
  for (int burst = 0; burst < 20; ++burst) {
    clock.publish_batch(10);
    lags.push_back(clock.wait_delivered(std::chrono::seconds(1)));
  }
  std::nth_element(lags.begin(), lags.begin() + lags.size() / 2, lags.end());
  EXPECT_LT(lags[lags.size() / 2], std::chrono::milliseconds(10));
}

TEST(TraceServerAsync, LiveProducerTrickleDrainsWithoutFlush) {
  // Ten spans never fill a batch and this thread stays alive, so only the
  // quiet-period sweep of partial batches can deliver them.
  DeliveryClock clock;
  clock.publish(10);
  EXPECT_LT(clock.wait_delivered(std::chrono::seconds(1)), std::chrono::seconds(1));
}

TEST(TraceServerAsync, BurstsRarelyWaitOutTheQuietPeriod) {
  // Each burst seals one batch right after the previous delivery, racing
  // the collector back to sleep: a wake lost in that window costs the
  // whole quiet period. Stop early once the bound is already broken.
  constexpr int kBursts = 1000;
  constexpr int kAllowedSlow = kBursts / 100;
  DeliveryClock clock;
  int slow = 0;
  for (int burst = 0; burst < kBursts && slow <= kAllowedSlow; ++burst) {
    clock.publish(TraceServer::kBatchCapacity);
    if (clock.wait_delivered(std::chrono::seconds(1)) >= kQuietPeriod) ++slow;
  }
  EXPECT_LE(slow, kAllowedSlow);
}

}  // namespace
}  // namespace xsp::trace
