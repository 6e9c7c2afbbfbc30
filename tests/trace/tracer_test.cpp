#include "xsp/trace/tracer.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

TEST(Tracer, StartFinishPublishesOneSpan) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "model_timer", kModelLevel);
  const SpanId id = tracer.start_span("Predict", us(5));
  tracer.finish_span(id, us(105));

  auto trace = server.take_trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].name, "Predict");
  EXPECT_EQ(trace[0].tracer, "model_timer");
  EXPECT_EQ(trace[0].level, kModelLevel);
  EXPECT_EQ(trace[0].begin, us(5));
  EXPECT_EQ(trace[0].end, us(105));
}

TEST(Tracer, DisabledTracerDropsSpans) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "t", kLayerLevel);
  tracer.set_enabled(false);
  const SpanId id = tracer.start_span("x", 0);
  EXPECT_EQ(id, kNoSpan);
  tracer.finish_span(id, 10);  // no-op, no crash
  EXPECT_EQ(server.span_count(), 0u);

  Span completed;
  completed.name = "offline";
  EXPECT_EQ(tracer.publish_completed(completed), kNoSpan);
  EXPECT_EQ(server.span_count(), 0u);
}

TEST(Tracer, ReEnablingRestoresPublication) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "t", kLayerLevel);
  tracer.set_enabled(false);
  tracer.set_enabled(true);
  const SpanId id = tracer.start_span("y", 0);
  tracer.finish_span(id, 1);
  EXPECT_EQ(server.span_count(), 1u);
}

TEST(Tracer, TagsAndMetricsAttach) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "gpu", kKernelLevel);
  const SpanId id = tracer.start_span("kernel", 0);
  tracer.add_tag(id, "grid", "[4,1,1]");
  tracer.add_metric(id, "flop_count_sp", 1e9);
  tracer.set_correlation(id, 77);
  tracer.finish_span(id, 100);

  auto trace = server.take_trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].tags.at("grid"), "[4,1,1]");
  EXPECT_DOUBLE_EQ(trace[0].metrics.at("flop_count_sp"), 1e9);
  EXPECT_EQ(trace[0].correlation_id, 77u);
}

TEST(Tracer, ExplicitParentIsKept) {
  TraceServer server(PublishMode::kSync);
  Tracer model(server, "m", kModelLevel);
  Tracer layer(server, "l", kLayerLevel);
  const SpanId parent = model.start_span("Predict", 0);
  const SpanId child = layer.start_span("conv0", 1, parent);
  layer.finish_span(child, 5);
  model.finish_span(parent, 10);

  auto trace = server.take_trace();
  ASSERT_EQ(trace.size(), 2u);
  // conv0 was finished (and published) first.
  EXPECT_EQ(trace[0].name, "conv0");
  EXPECT_EQ(trace[0].parent, parent);
}

TEST(Tracer, PublishCompletedStampsTracerAndLevel) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "cupti", kKernelLevel);
  Span offline;
  offline.name = "volta_sgemm";
  offline.level = kModelLevel;  // wrong on purpose; must be overwritten
  const SpanId id = tracer.publish_completed(offline);
  EXPECT_NE(id, kNoSpan);

  auto trace = server.take_trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].level, kKernelLevel);
  EXPECT_EQ(trace[0].tracer, "cupti");
  EXPECT_EQ(trace[0].id, id);
}

TEST(Tracer, PublishCompletedBatchesStampsInOrderAndHandsBlocksOver) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "cupti", kKernelLevel);
  SpanBatches batches(2);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batches[b].reserve(kBatchCapacity);
    for (std::size_t i = 0; i < 3 - b; ++i) {
      Span& s = batches[b].emplace_back();
      s.level = kModelLevel;  // wrong on purpose; must be overwritten
    }
  }
  const Span* first_block = batches[0].data();
  tracer.publish_completed(std::move(batches));
  EXPECT_TRUE(batches.empty());

  const SpanBatches taken = server.take_batches();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].data(), first_block) << "the block is taken whole, not copied";
  SpanId previous = kNoSpan;
  for (const SpanBatch& batch : taken) {
    for (const Span& s : batch) {
      EXPECT_GT(s.id, previous) << "ids follow batch order";
      previous = s.id;
      EXPECT_EQ(s.level, kKernelLevel);
      EXPECT_EQ(s.tracer, "cupti");
    }
  }

  tracer.set_enabled(false);
  SpanBatches dropped(1);
  dropped[0].emplace_back();
  tracer.publish_completed(std::move(dropped));
  EXPECT_TRUE(dropped.empty());
  EXPECT_EQ(server.span_count(), 0u);
}

TEST(Tracer, OpenCountTracksUnfinishedSpans) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "t", kModelLevel);
  const SpanId a = tracer.start_span("a", 0);
  const SpanId b = tracer.start_span("b", 0);
  EXPECT_EQ(tracer.open_count(), 2u);
  tracer.finish_span(a, 1);
  EXPECT_EQ(tracer.open_count(), 1u);
  tracer.finish_span(b, 1);
  EXPECT_EQ(tracer.open_count(), 0u);
}

TEST(Tracer, AnnotationOverflowIsCountedNotSilent) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "gpu", kKernelLevel);
  const SpanId id = tracer.start_span("kernel", 0);
  for (int i = 0; i < static_cast<int>(TagMap::capacity()) + 2; ++i) {
    tracer.add_tag(id, "tag_" + std::to_string(i), "v");
  }
  tracer.finish_span(id, 10);

  auto trace = server.take_trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].tags.size(), TagMap::capacity());
  EXPECT_EQ(trace[0].dropped_annotations, 2u);
}

TEST(Tracer, ScopedSpanFinishesOnDestruction) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "t", kModelLevel);
  TimePoint now = 0;
  {
    ScopedSpan scoped(tracer, "scoped", [&now] { return now; });
    now = us(50);
  }
  auto trace = server.take_trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].end, us(50));
}

TEST(Tracer, MovedFromScopedSpanDoesNotDoubleFinish) {
  TraceServer server(PublishMode::kSync);
  Tracer tracer(server, "t", kModelLevel);
  TimePoint now = 0;
  auto now_fn = [&now] { return now; };
  // optional forces a real move construction (a factory `return` could be
  // elided by NRVO) and lets the moved-from object die first.
  std::optional<ScopedSpan<decltype(now_fn)>> moved_to;
  {
    ScopedSpan inner(tracer, "factory", now_fn);
    moved_to.emplace(std::move(inner));
    now = us(10);
    // inner's destructor runs here, at 10us — it must finish nothing.
  }
  EXPECT_EQ(tracer.open_count(), 1u);
  now = us(20);
  moved_to.reset();
  auto trace = server.take_trace();
  ASSERT_EQ(trace.size(), 1u) << "span finished once, not per ScopedSpan object";
  // Finished by the moved-to span at 20us, not by the moved-from at 10us.
  EXPECT_EQ(trace[0].end, us(20));
  EXPECT_EQ(tracer.open_count(), 0u);
}

}  // namespace
}  // namespace xsp::trace
