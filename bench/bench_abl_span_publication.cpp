// Ablation: span-publication throughput through the trace server.
//
// Section III-B: XSP publishes CUPTI-derived spans "asynchronously to
// avoid added overhead". This google-benchmark ablation measures the real
// host-side cost a tracer pays per span in steady state — publish plus the
// server's aggregation work, with the trace drained periodically the way a
// long-running evaluation drains it per run — under one producer (sync and
// async modes) and under publisher contention (pre-spawned threads, the
// model + layer + GPU tracer shape).
//
// The per-span work is identical across implementations: build a span with
// a realistic kernel name and publish it. Ratios against
// bench/results/BENCH_abl_span_publication_*.json track the span-pipeline
// refactor (interned names + flat annotations + per-thread batch
// publication vs heap strings + std::maps + one global lock).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdio>
#include <memory>

#include "xsp/trace/trace_server.hpp"

namespace {

using xsp::trace::PublishMode;
using xsp::trace::Span;
using xsp::trace::SpanBatches;
using xsp::trace::TraceServer;

/// Spans between take_trace() drains: large enough to amortize the drain,
/// small enough that the benchmark measures steady-state publication rather
/// than unbounded trace accumulation.
constexpr std::size_t kDrainEvery = 1 << 16;

template <typename Server>
Span make_span(Server& server, int i) {
  Span s;
  s.id = server.next_span_id();
  s.name = "volta_scudnn_128x64_relu_interior_nn_v1";
  s.begin = i * 100;
  s.end = i * 100 + 90;
  return s;
}

/// Drain through each implementation's intended hand-off: batched servers
/// hand whole batches to the aggregation consumer, the pre-refactor server
/// hands the flat trace vector. (Template so the detection also compiles
/// against the pre-refactor server for A/B runs.)
template <typename Server>
void drain_trace(Server& server) {
  if constexpr (requires { server.take_batches(); }) {
    benchmark::DoNotOptimize(server.take_batches());
  } else {
    benchmark::DoNotOptimize(server.take_trace());
  }
}

void publish_loop(benchmark::State& state, TraceServer& server) {
  std::size_t since_drain = 0;
  int i = 0;
  for (auto _ : state) {
    server.publish(make_span(server, i++));
    if (++since_drain == kDrainEvery) {
      since_drain = 0;
      drain_trace(server);
    }
  }
  drain_trace(server);
  state.SetItemsProcessed(state.iterations());
}

void BM_PublishSync(benchmark::State& state) {
  TraceServer server(PublishMode::kSync);
  publish_loop(state, server);
}

void BM_PublishAsync(benchmark::State& state) {
  TraceServer server(PublishMode::kAsync);
  publish_loop(state, server);
}

/// Multiple tracers publish concurrently (model + layer + GPU tracers).
/// Threads are pre-spawned by the benchmark harness; the drain runs on
/// thread 0 so the measured region is publish traffic, not thread churn.
void BM_PublishContended(benchmark::State& state) {
  static std::unique_ptr<TraceServer> server;
  if (state.thread_index() == 0) server = std::make_unique<TraceServer>(PublishMode::kAsync);

  std::size_t since_drain = 0;
  int i = 0;
  for (auto _ : state) {
    server->publish(make_span(*server, i++));
    if (state.thread_index() == 0 && ++since_drain == kDrainEvery) {
      since_drain = 0;
      drain_trace(*server);
    }
  }
  state.SetItemsProcessed(state.iterations());

  if (state.thread_index() == 0) {
    drain_trace(*server);
    server.reset();
  }
}

/// The bounded-interning shape: every span carries one *unique*
/// high-cardinality value (a request id) as an inline tag — value bytes
/// formatted into the span record, nothing interned, the string table
/// flat for the whole run. The delta against BM_PublishSync is the
/// marginal cost of snprintf + InlineTagMap::set on the publish path;
/// interning these values instead would grow the table by one entry per
/// iteration forever.
void BM_PublishSyncInlineTag(benchmark::State& state) {
  TraceServer server(PublishMode::kSync);
  const xsp::trace::StrId key{"request_id"};
  std::size_t since_drain = 0;
  int i = 0;
  for (auto _ : state) {
    Span s = make_span(server, i);
    char rid[xsp::trace::InlineTagMap::kValueCapacity + 1];
    std::snprintf(rid, sizeof rid, "req-%d", i);
    s.inline_tags.set(key, rid);
    server.publish(std::move(s));
    ++i;
    if (++since_drain == kDrainEvery) {
      since_drain = 0;
      drain_trace(server);
    }
  }
  drain_trace(server);
  state.SetItemsProcessed(state.iterations());
}

/// Single producer draining through take_batches() and dropping the
/// result: the intended steady-state hand-off, where batch blocks
/// circulate through the batch pool instead of being malloc'd/freed per
/// batch.
void BM_PublishSyncRecycled(benchmark::State& state) {
  TraceServer server(PublishMode::kSync);
  std::size_t since_drain = 0;
  int i = 0;
  for (auto _ : state) {
    server.publish(make_span(server, i++));
    if (++since_drain == kDrainEvery) {
      since_drain = 0;
      (void)server.take_batches();
    }
  }
  (void)server.take_batches();
  state.SetItemsProcessed(state.iterations());
}

/// Contended publication through a multi-shard TraceServer: the same four
/// pre-spawned publisher threads as BM_PublishContended, fanned out across
/// state.range(0) shards by the thread-hash selector. The merge step
/// (take_batches concatenation + drop) runs on thread 0. On multicore
/// hardware this is the case that scales with shard count; on one core it
/// shows the fleet does not regress under scheduler churn.
void BM_PublishContendedSharded(benchmark::State& state) {
  static std::unique_ptr<TraceServer> server;
  if (state.thread_index() == 0) {
    server = std::make_unique<TraceServer>(static_cast<std::size_t>(state.range(0)),
                                           PublishMode::kAsync);
  }

  std::size_t since_drain = 0;
  int i = 0;
  for (auto _ : state) {
    server->publish(make_span(*server, i++));
    if (state.thread_index() == 0 && ++since_drain == kDrainEvery) {
      since_drain = 0;
      (void)server->take_batches();
    }
  }
  state.SetItemsProcessed(state.iterations());

  if (state.thread_index() == 0) {
    (void)server->take_batches();
    server.reset();
  }
}

BENCHMARK(BM_PublishSync);
BENCHMARK(BM_PublishAsync);
BENCHMARK(BM_PublishSyncInlineTag);
BENCHMARK(BM_PublishSyncRecycled);
BENCHMARK(BM_PublishContended)->Threads(4)->UseRealTime();
BENCHMARK(BM_PublishContendedSharded)
    ->ArgName("shards")
    ->Arg(2)
    ->Arg(4)
    ->Threads(4)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
