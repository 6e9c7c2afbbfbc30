// Spans published from several threads must assemble exactly like the
// same spans published from one: the server's per-thread producer slots
// are merged at drain, and each slot's annotation drops and sampler
// counts add up in the server's totals. (Id uniqueness, loss-freedom and
// takes racing publishers are pinned by id_block_test.cpp and
// trace_server_stress_test.cpp.)
#include "xsp/trace/trace_server.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "xsp/common/string_table.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/timeline.hpp"

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

/// Run `fn` on a fresh thread that exits right after, so its producer
/// slot is retired by the next drain pass.
void on_new_thread(const std::function<void()>& fn) { std::thread(fn).join(); }

/// Structural fingerprint of an assembled timeline, ignoring span ids
/// (different servers assign different ids for the same logical spans).
std::vector<std::tuple<TimePoint, TimePoint, int, int>> walk_shape(const Timeline& tl) {
  std::vector<std::tuple<TimePoint, TimePoint, int, int>> shape;
  tl.walk([&](const TimelineNode& n, int depth) {
    shape.emplace_back(n.span.begin, n.span.end, n.span.level, depth);
  });
  return shape;
}

TEST(MultiThreadPublish, AssemblyEqualsSingleThreadAssembly) {
  // The same logical spans (a model span, two layers, kernels inside them)
  // published from one thread and scattered over three threads must
  // assemble to identical hierarchies — merge order must not matter.
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

  // Round-robin over three publisher threads, two spans each, so one
  // hierarchy spans three producer slots. Each thread keeps its slot until
  // the drain, so the merge really interleaves three slots.
  TraceServer scattered(PublishMode::kSync);
  std::vector<std::vector<Span>> per_thread(3);
  std::size_t next = 0;
  publish_all(scattered, [&per_thread, &next](Span s) { per_thread[next++ % 3].push_back(s); });
  std::vector<std::thread> publishers;
  for (const auto& spans : per_thread) {
    publishers.emplace_back([&scattered, &spans] {
      for (const Span& s : spans) scattered.publish(s);
    });
  }
  for (auto& t : publishers) t.join();
  EXPECT_EQ(scattered.retired_slot_count(), 0u);  // not drained yet
  const Timeline scattered_tl = Timeline::assemble(scattered.take_batches());
  EXPECT_EQ(scattered.retired_slot_count(), 3u);

  ASSERT_EQ(single_tl.size(), scattered_tl.size());
  EXPECT_EQ(single_tl.roots().size(), scattered_tl.roots().size());
  EXPECT_EQ(single_tl.ambiguous_count(), scattered_tl.ambiguous_count());
  EXPECT_EQ(walk_shape(single_tl), walk_shape(scattered_tl));
}

TEST(MultiThreadPublish, DroppedAnnotationsSumAcrossThreads) {
  TraceServer server(PublishMode::kSync);
  for (int w = 0; w < 4; ++w) {
    Span s = make_span(server.next_span_id(), w * 100, w * 100 + 50);
    s.dropped_annotations = 3;
    on_new_thread([&server, &s] { server.publish(s); });
  }
  // Four slots drained annotated spans, and the total is their sum.
  EXPECT_EQ(server.span_count(), 4u);
  EXPECT_EQ(server.dropped_annotation_count(), 12u);
  // Taking the trace resets the aggregate along with the spans.
  (void)server.take_batches();
  EXPECT_EQ(server.dropped_annotation_count(), 0u);
}

TEST(TraceServer, MetaMatchesTheAccessors) {
  TraceServer server(PublishMode::kSync);
  SamplerOptions sopts;
  sopts.rate = 0.5;
  server.set_sampler(std::make_shared<const Sampler>(sopts));
  // Two workers that exit (two retired slots); this thread's own slot
  // stays live.
  std::uint64_t corr = 1;
  const auto publish = [&server, &corr](int n) {
    for (int i = 0; i < n; ++i) {
      Span s = make_span(server.next_span_id(), i, i + 1);
      s.correlation_id = corr++;
      s.dropped_annotations = 3;
      server.publish(s);
    }
  };
  on_new_thread([&] { publish(200); });
  on_new_thread([&] { publish(200); });
  publish(100);

  const TraceMeta meta = server.meta();
  EXPECT_EQ(meta.sampled_kept + meta.sampled_dropped, 500u);
  EXPECT_GT(meta.sampled_dropped, 0u);
  EXPECT_EQ(meta.dropped_annotations, 3 * meta.sampled_kept);
  EXPECT_EQ(meta.live_slots, 1u);
  EXPECT_EQ(meta.retired_slots, 2u);
  EXPECT_GT(meta.slot_bytes, 0u);
  // Every field meta() fills equals its accessor (nothing publishes now).
  EXPECT_EQ(meta.dropped_annotations, server.dropped_annotation_count());
  EXPECT_EQ(meta.live_slots, server.live_slot_count());
  EXPECT_EQ(meta.retired_slots, server.retired_slot_count());
  EXPECT_EQ(meta.slot_bytes, server.approx_slot_bytes());
  EXPECT_EQ(meta.sampled_kept, server.sampled_kept_count());
  EXPECT_EQ(meta.sampled_dropped, server.sampled_dropped_count());
  const auto& table = common::StringTable::global();
  EXPECT_EQ(meta.interned_strings, table.size());
  EXPECT_EQ(meta.interned_bytes, table.approx_bytes());
  EXPECT_EQ(meta.strtab_budget_bytes, table.budget_bytes());
  EXPECT_EQ(meta.rejected_interns, table.rejected_interns());
  // The transport fields belong to a RemoteSink, not the server.
  EXPECT_EQ(meta.remote_dropped_spans, 0u);
  EXPECT_EQ(meta.remote_reconnects, 0u);
}

}  // namespace
}  // namespace xsp::trace
