// Ablation: streaming export vs the materializing wrappers.
//
// The streaming rewrite exists for memory (bounded buffer instead of a
// whole-trace string), but it must not cost throughput: the wrappers are
// now thin drivers of the same emission core, so this bench pins
// (a) spans/s through each path and (b) that the core's fixed-point
// timestamp/round-trip metric formatting did not regress emission speed.
//
//   BM_ExportChromeMaterialized  to_chrome_trace(timeline) -> std::string
//   BM_ExportSpanJsonMaterialized to_span_json(timeline, meta) -> std::string
//                                (the path perfbench's zoo_leveled times)
//   BM_ExportChromeStreaming     StreamingExporter -> null sink, timeline walk
//   BM_ExportChromeFromBatches   StreamingExporter -> null sink, raw batches
//                                (the drain-subscriber path: no assembly at all)
//   BM_ExportSpanJsonFromBatches same, span-JSON with metadata footer
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>

#include "xsp/trace/export.hpp"
#include "xsp/trace/timeline.hpp"
#include "xsp/trace/trace_server.hpp"

namespace {

using namespace xsp;
using namespace xsp::trace;

constexpr std::size_t kSpanCount = 8192;

SpanBatches synthetic_batches() {
  // Realistic span mix: interned names, a tag, two metrics, timestamps
  // past one second so the fixed-point path exercises full-width output.
  SpanBatches batches;
  SpanBatch batch;
  batch.reserve(TraceServer::kBatchCapacity);
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    Span s;
    s.id = i + 1;
    s.level = kKernelLevel;
    s.name = "volta_scudnn_128x64_relu_interior_nn_v1";
    s.tracer = "cupti";
    s.begin = static_cast<TimePoint>(1'000'000'000 + i * 12'345);
    s.end = s.begin + 9'876;
    s.tags.set("kind", "kernel");
    s.metrics.set("flop_count_sp", 123456789012.0);
    s.metrics.set("achieved_occupancy", 0.4375);
    batch.push_back(s);
    if (batch.size() == TraceServer::kBatchCapacity) {
      batches.push_back(std::move(batch));
      batch = SpanBatch();
      batch.reserve(TraceServer::kBatchCapacity);
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

Timeline synthetic_timeline() { return Timeline::assemble(flatten_batches(synthetic_batches())); }

void BM_ExportChromeMaterialized(benchmark::State& state) {
  const Timeline timeline = synthetic_timeline();
  for (auto _ : state) {
    std::string json = to_chrome_trace(timeline);
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_ExportChromeMaterialized);

void BM_ExportSpanJsonMaterialized(benchmark::State& state) {
  const Timeline timeline = synthetic_timeline();
  const TraceMeta meta{};
  for (auto _ : state) {
    std::string json = to_span_json(timeline, meta);
    benchmark::DoNotOptimize(json.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_ExportSpanJsonMaterialized);

void BM_ExportChromeStreaming(benchmark::State& state) {
  const Timeline timeline = synthetic_timeline();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    StreamingExporter exporter(ExportFormat::kChromeTrace,
                               [&bytes](std::string_view chunk) { bytes += chunk.size(); });
    timeline.walk([&exporter](const TimelineNode& node, int) {
      exporter.write_span(node.span, node.parent);
    });
    exporter.finish();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_ExportChromeStreaming);

void BM_ExportChromeFromBatches(benchmark::State& state) {
  const SpanBatches batches = synthetic_batches();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    StreamingExporter exporter(ExportFormat::kChromeTrace,
                               [&bytes](std::string_view chunk) { bytes += chunk.size(); });
    exporter.write_batches(batches);
    exporter.finish();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_ExportChromeFromBatches);

void BM_ExportSpanJsonFromBatches(benchmark::State& state) {
  const SpanBatches batches = synthetic_batches();
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    StreamingExporter exporter(
        ExportFormat::kSpanJson, [&bytes](std::string_view chunk) { bytes += chunk.size(); },
        /*with_metadata=*/true);
    exporter.write_batches(batches);
    exporter.finish();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kSpanCount));
}
BENCHMARK(BM_ExportSpanJsonFromBatches);

}  // namespace

BENCHMARK_MAIN();
