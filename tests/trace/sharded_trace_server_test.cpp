// Shard routing, id uniqueness, and merge-equivalence tests for
// ShardedTraceServer: a multi-shard fleet must behave observably like one
// server — same spans in, same assembled timeline out — while routing
// publication across independent shards.
#include "xsp/trace/sharded_trace_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "xsp/trace/timeline.hpp"
#include "xsp/trace/tracer.hpp"

namespace xsp::trace {
namespace {

Span make_span(SpanId id, TimePoint begin, TimePoint end, int level = kModelLevel) {
  Span s;
  s.id = id;
  s.begin = begin;
  s.end = end;
  s.level = level;
  return s;
}

TEST(ShardedTraceServer, DefaultsToHardwareShardCountCapped) {
  ShardedTraceServer server(0, PublishMode::kSync);
  EXPECT_GE(server.shard_count(), 1u);
  EXPECT_LE(server.shard_count(), 8u);
  EXPECT_EQ(ShardedTraceServer(3, PublishMode::kSync).shard_count(), 3u);
}

TEST(ShardedTraceServer, IdsAreUniqueAcrossShardsAndThreads) {
  // Each shard stripes the id-block sequence; ids drawn by many threads
  // (hashing to different shards) must never collide and never be kNoSpan.
  ShardedTraceServer server(4, PublishMode::kSync);
  constexpr int kThreads = 8;
  constexpr int kIdsPerThread = 5000;  // several blocks per thread

  std::vector<std::vector<SpanId>> per_thread(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&server, &ids = per_thread[t]] {
      ids.reserve(kIdsPerThread);
      for (int i = 0; i < kIdsPerThread; ++i) ids.push_back(server.next_span_id());
    });
  }
  for (auto& w : workers) w.join();

  std::unordered_set<SpanId> seen;
  seen.reserve(kThreads * kIdsPerThread);
  for (const auto& ids : per_thread) {
    for (const SpanId id : ids) {
      EXPECT_NE(id, kNoSpan);
      EXPECT_TRUE(seen.insert(id).second) << "duplicate span id " << id;
    }
  }
}

TEST(ShardedTraceServer, IdStripesAreDisjointPerShard) {
  // Directly check the stripe arithmetic: block numbers of shard i of N
  // are ≡ i (mod N).
  ShardedTraceServer server(3, PublishMode::kSync);
  for (std::size_t i = 0; i < server.shard_count(); ++i) {
    const SpanId first = server.shard(i).next_span_id();
    const std::uint64_t block = (first - 1) / TraceServer::kIdBlock;
    EXPECT_EQ(block % server.shard_count(), i);
    EXPECT_EQ((first - 1) % TraceServer::kIdBlock, 0u);
  }
}

TEST(ShardedTraceServer, ByThreadRoutingSticksToOneShard) {
  ShardedTraceServer server(4, PublishMode::kSync);
  const std::size_t mine = server.shard_for_current_thread();
  for (int i = 0; i < 50; ++i) {
    server.publish(make_span(server.next_span_id(), i, i + 1));
  }
  for (std::size_t i = 0; i < server.shard_count(); ++i) {
    EXPECT_EQ(server.shard(i).span_count(), i == mine ? 50u : 0u);
  }
}

/// Structural fingerprint of an assembled timeline, ignoring span ids
/// (different servers assign different ids for the same logical spans).
std::vector<std::tuple<TimePoint, TimePoint, int, int>> walk_shape(const Timeline& tl) {
  std::vector<std::tuple<TimePoint, TimePoint, int, int>> shape;
  tl.walk([&](const TimelineNode& n, int depth) {
    shape.emplace_back(n.span.begin, n.span.end, n.span.level, depth);
  });
  return shape;
}

TEST(ShardedTraceServer, MergedAssemblyEqualsSingleServerAssembly) {
  // The same logical spans (a model span, two layers, kernels inside them)
  // published to a single server and to a 3-shard fleet must assemble to
  // identical hierarchies — merge order must not matter.
  const auto publish_all = [](SpanSink& ids, const std::function<void(Span)>& publish) {
    publish(make_span(ids.next_span_id(), 0, 1000, kModelLevel));
    publish(make_span(ids.next_span_id(), 100, 400, kLayerLevel));
    publish(make_span(ids.next_span_id(), 500, 900, kLayerLevel));
    publish(make_span(ids.next_span_id(), 150, 250, kKernelLevel));
    publish(make_span(ids.next_span_id(), 550, 650, kKernelLevel));
    publish(make_span(ids.next_span_id(), 700, 800, kKernelLevel));
  };

  TraceServer single(PublishMode::kSync);
  publish_all(single, [&single](Span s) { single.publish(std::move(s)); });
  const Timeline single_tl = Timeline::assemble(single.take_batches());

  // Round-robin over the shards scatters the spans, exercising a merge
  // where one hierarchy spans all three shards.
  ShardedTraceServer sharded(3, PublishMode::kSync);
  std::size_t next = 0;
  publish_all(sharded, [&sharded, &next](Span s) {
    sharded.shard(next++ % sharded.shard_count()).publish(std::move(s));
  });
  const Timeline sharded_tl = Timeline::assemble(sharded.take_batches());

  ASSERT_EQ(single_tl.size(), sharded_tl.size());
  EXPECT_EQ(single_tl.roots().size(), sharded_tl.roots().size());
  EXPECT_EQ(single_tl.ambiguous_count(), sharded_tl.ambiguous_count());
  EXPECT_EQ(walk_shape(single_tl), walk_shape(sharded_tl));
}

TEST(ShardedTraceServer, DroppedAnnotationsSumAcrossShards) {
  ShardedTraceServer server(2, PublishMode::kSync);
  for (int w = 0; w < 4; ++w) {
    Span s = make_span(server.next_span_id(), w * 100, w * 100 + 50);
    s.dropped_annotations = 3;
    server.shard(static_cast<std::size_t>(w) % 2).publish(std::move(s));
  }
  EXPECT_EQ(server.dropped_annotation_count(), 12u);
  EXPECT_GT(server.shard(0).dropped_annotation_count(), 0u);
  EXPECT_GT(server.shard(1).dropped_annotation_count(), 0u);
  // Taking the trace resets the aggregate along with the spans.
  (void)server.take_batches();
  EXPECT_EQ(server.dropped_annotation_count(), 0u);
}

TEST(ShardedTraceServerStress, NThreadsTimesMShardsLoseNothing) {
  // N tracer threads publish through a ShardedTraceServer in async mode;
  // every span must be aggregated exactly once across the fleet.
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 4000;

  ShardedTraceServer server(4, PublishMode::kAsync);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&server, t] {
      Tracer tracer(server, t % 2 == 0 ? "cupti" : "framework_profiler",
                    t % 2 == 0 ? kKernelLevel : kLayerLevel);
      for (int i = 0; i < kSpansPerThread; ++i) {
        const TimePoint begin = static_cast<TimePoint>(t) * 1000000 + i * 10;
        const SpanId id = tracer.start_span("volta_scudnn_128x64_relu", begin);
        tracer.add_tag(id, "kind", "kernel");
        tracer.finish_span(id, begin + 9);
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto trace = server.take_trace();
  ASSERT_EQ(trace.size(), static_cast<std::size_t>(kThreads) * kSpansPerThread);

  std::unordered_set<SpanId> ids;
  ids.reserve(trace.size());
  for (const auto& s : trace) {
    EXPECT_NE(s.id, kNoSpan);
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id " << s.id;
  }
}

TEST(ShardedTraceServerStress, TakesRacingShardedPublishersLoseNothing) {
  // The drain/take race, fleet edition: a taker repeatedly merges all
  // shards while producers publish across them.
  constexpr int kProducers = 4;
  constexpr int kSpansPerProducer = 10000;

  ShardedTraceServer server(2, PublishMode::kAsync);
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
        server.publish(make_span(server.next_span_id(), i, i + 1));
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
