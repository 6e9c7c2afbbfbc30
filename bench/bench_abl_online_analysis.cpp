// Ablation: online-analysis subscriber overhead on the drain path.
//
// The OnlineAnalyzer promises live aggregates without meaningfully taxing
// publication. This bench pins that: steady-state publish + drain
// throughput with no subscriber vs with the analyzer attached (observe
// tee, and consume where the analyzer is the stream's only consumer),
// plus the analyzer's raw aggregation rate over pre-built batches. The
// acceptance target is <10% publish-throughput cost for the attached
// analyzer vs the no-subscriber drain.
//
//   BM_DrainNoSubscriber       publish -> flush -> take -> drop, no hooks
//   BM_DrainOnlineObserver     same cycle with the analyzer observing
//   BM_DrainOnlineConsumer     publish -> flush; the analyzer consumes
//                              (batches drop straight back to the pool)
//   BM_ObserveBatchesOnly      analyzer aggregation alone, no server
#include <benchmark/benchmark.h>

#include <cstdint>

#include "xsp/analysis/online.hpp"
#include "xsp/trace/trace_server.hpp"

namespace {

using namespace xsp;
using namespace xsp::trace;

constexpr std::size_t kSpansPerIter = 4096;

/// Realistic mixed stream: alternating layer and kernel-execution spans
/// with the tags/metrics the analyzer actually reads, a handful of
/// distinct keys (the steady-state shape: key set saturates immediately).
Span make_span(std::size_t i, SpanId id) {
  Span s;
  s.id = id;
  s.begin = static_cast<TimePoint>(i * 1000);
  s.end = s.begin + 700 + static_cast<Ns>((i % 7) * 50);
  if (i % 2 == 0) {
    s.level = kLayerLevel;
    s.kind = SpanKind::kRegular;
    s.name = "conv_layer";
    s.tracer = "framework_profiler";
    s.tags.set("layer_type", i % 4 == 0 ? "Conv2D" : "Relu");
    s.metrics.set("alloc_bytes", 1.5e6);
  } else {
    s.level = kKernelLevel;
    s.kind = SpanKind::kExecution;
    s.name = i % 3 == 0 ? "volta_sgemm_128x64" : "eigen_elementwise";
    s.tracer = "cupti";
    s.tags.set("kind", "kernel");
    s.metrics.set("dram_read_bytes", 2.0e5);
    s.metrics.set("dram_write_bytes", 1.0e5);
  }
  return s;
}

void publish_spans(TraceServer& server) {
  for (std::size_t i = 0; i < kSpansPerIter; ++i) {
    server.publish(make_span(i, server.next_span_id()));
  }
}

void BM_DrainNoSubscriber(benchmark::State& state) {
  TraceServer server(PublishMode::kSync);
  for (auto _ : state) {
    publish_spans(server);
    SpanBatches taken = server.take_batches();
    benchmark::DoNotOptimize(taken.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpansPerIter));
}
BENCHMARK(BM_DrainNoSubscriber);

void BM_DrainOnlineObserver(benchmark::State& state) {
  TraceServer server(PublishMode::kSync);
  analysis::OnlineAnalyzer analyzer;
  const SubscriberId sub =
      server.add_drain_subscriber(analyzer.subscriber(), DrainHandoff::kObserve);
  for (auto _ : state) {
    publish_spans(server);
    SpanBatches taken = server.take_batches();
    benchmark::DoNotOptimize(taken.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpansPerIter));
  state.counters["spans_aggregated"] =
      static_cast<double>(analyzer.snapshot().spans);
  server.remove_drain_subscriber(sub);
}
BENCHMARK(BM_DrainOnlineObserver);

void BM_DrainOnlineConsumer(benchmark::State& state) {
  TraceServer server(PublishMode::kSync);
  analysis::OnlineAnalyzer analyzer;
  const SubscriberId sub =
      server.add_drain_subscriber(analyzer.subscriber(), DrainHandoff::kConsume);
  for (auto _ : state) {
    publish_spans(server);
    server.flush();  // analyzer consumed everything; nothing to take
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpansPerIter));
  state.counters["spans_aggregated"] =
      static_cast<double>(analyzer.snapshot().spans);
  server.remove_drain_subscriber(sub);
}
BENCHMARK(BM_DrainOnlineConsumer);

void BM_ObserveBatchesOnly(benchmark::State& state) {
  SpanBatches batches;
  SpanBatch batch;
  batch.reserve(TraceServer::kBatchCapacity);
  for (std::size_t i = 0; i < kSpansPerIter; ++i) {
    batch.push_back(make_span(i, static_cast<SpanId>(i + 1)));
    if (batch.size() == TraceServer::kBatchCapacity) {
      batches.push_back(std::move(batch));
      batch = SpanBatch();
      batch.reserve(TraceServer::kBatchCapacity);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));

  analysis::OnlineAnalyzer analyzer;
  for (auto _ : state) {
    analyzer.observe(batches);
  }
  benchmark::DoNotOptimize(analyzer.snapshot().spans);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpansPerIter));
}
BENCHMARK(BM_ObserveBatchesOnly);

}  // namespace

BENCHMARK_MAIN();
