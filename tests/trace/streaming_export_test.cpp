// Streaming export subsystem: the StreamingExporter consuming batches as
// they drain from (sharded) trace servers, with bounded memory, against
// the materializing wrappers as the byte-exact reference.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "json_check.hpp"
#include "test_alloc_count.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

using testjson::count_occurrences;
using testjson::valid_json;

Span make_span(SpanId id, TimePoint t, SpanId parent = kNoSpan) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = "op";
  s.tracer = "test";
  s.begin = t;
  s.end = t + 10;
  return s;
}

/// Spans with explicit parents in begin order: publication order equals
/// walk order and the assembled parent equals the published parent, so a
/// raw batch stream and a timeline walk must produce identical bytes.
SpanBatch linear_trace() {
  SpanBatch spans;
  Span root = make_span(1, 0);
  root.level = kModelLevel;
  root.name = "Model Prediction";
  root.end = 1'000'000;
  spans.push_back(root);
  for (SpanId id = 2; id <= 6; ++id) {
    Span child = make_span(id, static_cast<TimePoint>(id * 1000), /*parent=*/1);
    child.level = kLayerLevel;
    child.metrics.set("alloc_bytes", static_cast<double>(id) * 1e9);
    spans.push_back(child);
  }
  return spans;
}

std::string stream_to_string(ExportFormat format, const SpanBatch& batch, bool with_meta,
                             const TraceMeta* meta) {
  std::string out;
  StreamingExporter exporter(
      format, [&out](std::string_view chunk) { out.append(chunk); }, with_meta);
  if (meta != nullptr) exporter.set_meta(*meta);
  exporter.write_batch(batch);
  exporter.finish();
  return out;
}

/// linear_trace() widened to every shape an event can take — escapable
/// names, tags and inline tags, dropped annotations, NaN, -0 and integer
/// metrics on both sides of 2^53 — and long enough (over 64 KiB of events)
/// that the wrappers splice several chunks.
SpanBatch hostile_trace() {
  SpanBatch spans = linear_trace();
  spans.front().end = 100'000'000;
  const double two_53 = 9007199254740992.0;
  for (SpanId id = 7; id <= 700; ++id) {
    Span child = make_span(id, static_cast<TimePoint>(id * 1000), /*parent=*/1);
    child.level = id % 2 == 0 ? kLayerLevel : kKernelLevel;
    child.kind = id % 3 == 0 ? SpanKind::kExecution : SpanKind::kRegular;
    child.name = "conv \"" + std::to_string(id) + "\"\\\n\t\x01\x7f µs";
    child.tracer = id % 5 == 0 ? "tracer\r" : "test";
    child.correlation_id = id % 3 == 0 ? id : 0;
    child.tags.set("layer_type", id % 4 == 0 ? "Conv2D" : "\"quoted\"\x1f");
    if (id % 2 == 1) {
      child.inline_tags.set("grid", "(" + std::to_string(id) + ",1,1)\b");
      child.inline_tags.set("block\f", "(128,1,1)");
    }
    if (id % 7 == 0) child.note_dropped(static_cast<std::uint32_t>(id));
    child.metrics.set("nan", std::nan(""));
    child.metrics.set("neg_zero", -0.0);
    child.metrics.set("two_53", two_53);
    child.metrics.set("above_2_53", std::nextafter(two_53, 2 * two_53));
    spans.push_back(child);
  }
  return spans;
}

// --- acceptance: one emission path ----------------------------------------

TEST(StreamingExport, BytesIdenticalToMaterializingWrappers) {
  // The wrappers format timeline-walk events in chunks, write_batch formats
  // a batch's events: two callers of the one event writer, so equal bytes
  // here are the one-path guarantee.
  const SpanBatch spans = hostile_trace();
  const Timeline timeline = Timeline::assemble(SpanBatches{spans});
  ASSERT_EQ(timeline.size(), spans.size());

  const std::string chrome = to_chrome_trace(timeline);
  EXPECT_GT(chrome.size(), 2 * StreamingExporter::kFlushThreshold);
  EXPECT_EQ(stream_to_string(ExportFormat::kChromeTrace, spans, false, nullptr), chrome);
  EXPECT_EQ(stream_to_string(ExportFormat::kSpanJson, spans, false, nullptr),
            to_span_json(timeline));
  const TraceMeta meta{5, 3};
  const std::string with_meta = to_span_json(timeline, meta);
  EXPECT_EQ(stream_to_string(ExportFormat::kSpanJson, spans, true, &meta), with_meta);
  std::string error;
  EXPECT_TRUE(valid_json(chrome, &error)) << error;
  EXPECT_TRUE(valid_json(with_meta, &error)) << error;
  EXPECT_NE(with_meta.find("\"dropped_annotations\":7,"), std::string::npos);
  EXPECT_NE(with_meta.find("\"above_2_53\":9007199254740994"), std::string::npos);
}

// --- consuming drain subscriber -------------------------------------------

TEST(StreamingExport, ConsumeModeStreamsEverySpanAndLeavesServerEmpty) {
  TraceServer server(PublishMode::kSync);
  std::string out;
  StreamingExporter exporter(ExportFormat::kChromeTrace,
                             [&out](std::string_view chunk) { out.append(chunk); });
  const SubscriberId sub = server.add_drain_subscriber(
      [&exporter](const SpanBatches& batches) { exporter.write_batches(batches); },
      DrainHandoff::kConsume);

  const std::size_t total = 3 * TraceServer::kBatchCapacity + 7;
  for (std::size_t i = 0; i < total; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  server.flush();
  server.remove_drain_subscriber(sub);
  exporter.finish();

  EXPECT_EQ(exporter.spans_written(), total);
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"X\""), total);
  std::string error;
  EXPECT_TRUE(valid_json(out, &error)) << error;
  // The exporter consumed the trace: nothing accumulated for take_batches.
  EXPECT_TRUE(server.take_batches().empty());
}

TEST(StreamingExport, ConsumeModeReturnsBatchBuffersToThePool) {
  TraceServer server(PublishMode::kSync);
  std::vector<const Span*> seen;
  const SubscriberId sub = server.add_drain_subscriber(
      [&seen](const SpanBatches& batches) {
        for (const auto& b : batches) seen.push_back(b.data());
      },
      DrainHandoff::kConsume);

  for (std::size_t i = 0; i < TraceServer::kBatchCapacity; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  server.flush();
  ASSERT_EQ(seen.size(), 1u);
  const Span* first = seen.front();
  seen.clear();

  // The consumed buffer must go back to the batch pool and come out of it
  // for a later seal instead of being freed.
  for (std::size_t i = 0; i < 2 * TraceServer::kBatchCapacity; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  server.flush();
  bool reused = false;
  for (const Span* p : seen) reused = reused || p == first;
  EXPECT_TRUE(reused);
  server.remove_drain_subscriber(sub);
}

TEST(StreamingExport, ObserveModeTeesWithoutConsuming) {
  TraceServer server(PublishMode::kSync);
  std::string out;
  StreamingExporter exporter(ExportFormat::kSpanJson,
                             [&out](std::string_view chunk) { out.append(chunk); });
  const SubscriberId sub = server.add_drain_subscriber(
      [&exporter](const SpanBatches& batches) { exporter.write_batches(batches); },
      DrainHandoff::kObserve);

  const std::size_t total = TraceServer::kBatchCapacity + 11;
  for (std::size_t i = 0; i < total; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  SpanBatches batches = server.take_batches();
  server.remove_drain_subscriber(sub);
  exporter.finish();

  // The subscriber saw every span AND the consumer still got the trace.
  EXPECT_EQ(exporter.spans_written(), total);
  EXPECT_EQ(flatten_batches(batches).size(), total);
  EXPECT_TRUE(valid_json(out));
}

// --- concurrent publishers: one collector, one sink -------------------------

TEST(StreamingExport, ConcurrentPublishersFunnelIntoOneValidDocument) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 1500;
  TraceServer server(PublishMode::kAsync);

  std::string out;
  StreamingExporter exporter(
      ExportFormat::kSpanJson, [&out](std::string_view chunk) { out.append(chunk); },
      /*with_metadata=*/true);
  const SubscriberId sub = server.add_drain_subscriber(
      [&exporter](const SpanBatches& batches) { exporter.write_batches(batches); },
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
  server.remove_drain_subscriber(sub);
  exporter.set_meta(server.meta());
  exporter.finish();

  EXPECT_EQ(exporter.spans_written(), kThreads * kPerThread);
  EXPECT_EQ(count_occurrences(out, "\"kind\":\"regular\""), kThreads * kPerThread);
  EXPECT_NE(out.find("\"dropped_annotations\":0,"), std::string::npos);
  EXPECT_NE(out.find("\"span_count\":6000"), std::string::npos);
  std::string error;
  EXPECT_TRUE(valid_json(out, &error)) << error;
  EXPECT_TRUE(server.take_batches().empty());
}

TEST(StreamingExport, ThrowingSubscriberIsDetachedWithoutLosingSpans) {
  TraceServer server(PublishMode::kSync);
  int calls = 0;
  server.add_drain_subscriber(
      [&calls](const SpanBatches&) {
        ++calls;
        throw std::runtime_error("sink failed");
      },
      DrainHandoff::kConsume);

  const std::size_t total = TraceServer::kBatchCapacity + 5;
  for (std::size_t i = 0; i < total; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
  server.flush();  // must not propagate; subscriber detached on the throw
  EXPECT_EQ(calls, 1);
  server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(total)));
  server.flush();
  EXPECT_EQ(calls, 1) << "throwing subscriber must be detached";
  // Every span fell back to in-server accumulation, none delivered twice.
  EXPECT_EQ(flatten_batches(server.take_batches()).size(), total + 1);
}

#if defined(NDEBUG)
// In release builds a write after finish() must be dropped, not corrupt
// the already-footered document (debug builds assert instead).
TEST(StreamingExport, WritesAfterFinishAreDroppedNotAppended) {
  std::string out;
  StreamingExporter exporter(ExportFormat::kChromeTrace,
                             [&out](std::string_view chunk) { out.append(chunk); });
  exporter.write_span(make_span(1, 0), kNoSpan);
  exporter.finish();
  const std::string finished = out;
  exporter.write_span(make_span(2, 100), kNoSpan);
  exporter.finish();
  EXPECT_EQ(out, finished);
  EXPECT_EQ(exporter.spans_written(), 1u);
  EXPECT_TRUE(valid_json(out));
}
#endif

// --- acceptance: bounded memory --------------------------------------------

std::uint64_t exporter_allocations(std::size_t batches) {
  std::uint64_t bytes = 0;
  StreamingExporter exporter(ExportFormat::kChromeTrace,
                             [&bytes](std::string_view chunk) { bytes += chunk.size(); });
  SpanBatch batch;
  batch.reserve(TraceServer::kBatchCapacity);
  for (std::size_t i = 0; i < TraceServer::kBatchCapacity; ++i) {
    batch.push_back(make_span(static_cast<SpanId>(i + 1), static_cast<TimePoint>(i)));
  }
  // Warm-up: internal buffer reaches steady state, per-thread scratch grows.
  for (int i = 0; i < 4; ++i) exporter.write_batch(batch);

  const std::uint64_t before = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < batches; ++i) exporter.write_batch(batch);
  const std::uint64_t during =
      g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before;
  exporter.finish();
  EXPECT_GT(bytes, batches * TraceServer::kBatchCapacity * 32);  // it really streamed
  return during;
}

TEST(StreamingExport, ExporterAllocationIsIndependentOfSpanCount) {
  const std::uint64_t small = exporter_allocations(4);
  const std::uint64_t large = exporter_allocations(256);  // 64x the spans
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Sanitizer runtimes allocate on their own; the functional streaming
  // assertions above still ran.
  (void)small;
  (void)large;
#else
  EXPECT_EQ(small, large) << "exporter memory must not scale with span count";
  EXPECT_EQ(large, 0u) << "steady-state streaming allocated";
#endif
}

}  // namespace
}  // namespace xsp::trace
