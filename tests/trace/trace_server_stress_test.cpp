// Lifecycle and concurrency regression tests for the batched TraceServer.
//
// These pin the contracts the batched publication path must keep:
//   * kSync never spawns a collector thread,
//   * spans sitting in producer batches are never dropped — not by thread
//     exit, not by destruction, not by a take racing the collector,
//   * N tracers publishing simultaneously yield a complete, id-unique
//     trace after flush (paper Section III-A: the server "aggregates the
//     spans published by the different tracers into one trace").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "thread_count.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/tracer.hpp"

namespace xsp::trace {
namespace {

TEST(TraceServerLifecycle, SyncModeSpawnsNoCollectorThread) {
  const std::size_t before = test::thread_count();
  {
    TraceServer sync_server(PublishMode::kSync);
    EXPECT_EQ(test::thread_count(), before);
  }
  TraceServer async_server(PublishMode::kAsync);
  EXPECT_EQ(test::thread_count(), before + 1);  // the one collector
}

TEST(TraceServerLifecycle, SpansFromExitedThreadsSurvive) {
  // A producer thread seals batches and exits with a partial batch still
  // in its slot; the next take must see every span.
  TraceServer server(PublishMode::kAsync);
  constexpr std::size_t kSpans = TraceServer::kBatchCapacity * 3 + 17;
  std::thread producer([&server] {
    for (std::size_t i = 0; i < kSpans; ++i) {
      Span s;
      s.id = server.next_span_id();
      s.begin = static_cast<TimePoint>(i);
      s.end = static_cast<TimePoint>(i + 1);
      server.publish(std::move(s));
    }
  });
  producer.join();
  EXPECT_EQ(server.take_trace().size(), kSpans);
}

TEST(TraceServerLifecycle, TakeWithoutExplicitFlushIsComplete) {
  // take_trace()/take_batches() imply a flush: partial batches included.
  TraceServer server(PublishMode::kSync);
  constexpr std::size_t kSpans = TraceServer::kBatchCapacity + 1;
  for (std::size_t i = 0; i < kSpans; ++i) {
    Span s;
    s.id = server.next_span_id();
    server.publish(std::move(s));
  }
  auto batches = server.take_batches();
  std::size_t total = 0;
  for (const auto& b : batches) total += b.size();
  EXPECT_EQ(total, kSpans);
  EXPECT_EQ(server.span_count(), 0u);
}

TEST(TraceServerLifecycle, DestructionWithQueuedSpansDoesNotHang) {
  // Queued = sealed batches the collector has not yet taken plus a partial
  // active batch. Destruction must join the collector and finish cleanly.
  auto server = std::make_unique<TraceServer>(PublishMode::kAsync);
  for (std::size_t i = 0; i < TraceServer::kBatchCapacity * 2 + 5; ++i) {
    Span s;
    s.id = server->next_span_id();
    server->publish(std::move(s));
  }
  server.reset();
  SUCCEED();
}

TEST(TraceServerStress, ConcurrentTracersFlushCompleteIdUniqueTrace) {
  // N tracers (one per simulated profiler) publish span batches
  // simultaneously; the aggregated trace contains every span exactly once.
  constexpr int kTracers = 8;
  constexpr int kSpansPerTracer = 4000;

  TraceServer server(PublishMode::kAsync);
  std::vector<std::thread> workers;
  workers.reserve(kTracers);
  for (int t = 0; t < kTracers; ++t) {
    workers.emplace_back([&server, t] {
      Tracer tracer(server, t % 2 == 0 ? "cupti" : "framework_profiler",
                    t % 2 == 0 ? kKernelLevel : kLayerLevel);
      for (int i = 0; i < kSpansPerTracer; ++i) {
        const TimePoint begin = static_cast<TimePoint>(t) * 1000000 + i * 10;
        const SpanId id = tracer.start_span("volta_scudnn_128x64_relu", begin);
        tracer.add_tag(id, "kind", "kernel");
        tracer.add_metric(id, "flop_count_sp", 1e9);
        tracer.finish_span(id, begin + 9);
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto trace = server.take_trace();
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(kTracers) * kSpansPerTracer);

  std::unordered_set<SpanId> ids;
  ids.reserve(trace.size());
  for (const auto& s : trace) {
    EXPECT_NE(s.id, kNoSpan);
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id " << s.id;
    EXPECT_EQ(s.duration(), 9);
    EXPECT_EQ(s.tags.at("kind"), "kernel");
  }
}

TEST(TraceServerStress, TakesRacingPublishersLoseNothing) {
  // Regression for the drain/take race: a taker repeatedly steals the
  // trace while producers publish; total spans across every take plus the
  // final take must equal everything published.
  constexpr int kProducers = 4;
  constexpr int kSpansPerProducer = 20000;

  TraceServer server(PublishMode::kAsync);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> taken_total{0};

  std::thread taker([&] {
    while (!done.load(std::memory_order_acquire)) {
      taken_total.fetch_add(server.take_trace().size(), std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&server] {
      for (int i = 0; i < kSpansPerProducer; ++i) {
        Span s;
        s.id = server.next_span_id();
        server.publish(std::move(s));
      }
    });
  }
  for (auto& p : producers) p.join();
  done.store(true, std::memory_order_release);
  taker.join();

  taken_total.fetch_add(server.take_trace().size(), std::memory_order_relaxed);
  EXPECT_EQ(taken_total.load(), static_cast<std::size_t>(kProducers) * kSpansPerProducer);
}

}  // namespace
}  // namespace xsp::trace
