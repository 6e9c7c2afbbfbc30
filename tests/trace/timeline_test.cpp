#include "xsp/trace/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "xsp/trace/export.hpp"

namespace xsp::trace {
namespace {

Span make(SpanId id, int level, TimePoint b, TimePoint e, std::string name,
          SpanId parent = kNoSpan) {
  Span s;
  s.id = id;
  s.level = level;
  s.begin = b;
  s.end = e;
  s.name = std::move(name);
  s.parent = parent;
  return s;
}

// model [0,1000] > layer1 [10,400] > k1 [20,100], k2 [150,300];
//                  layer2 [420,900] > k3 [500,600]
std::vector<Span> nested_trace() {
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 1000, "Predict"));
  spans.push_back(make(2, kLayerLevel, 10, 400, "conv0"));
  spans.push_back(make(3, kLayerLevel, 420, 900, "relu0"));
  spans.push_back(make(4, kKernelLevel, 20, 100, "k1"));
  spans.push_back(make(5, kKernelLevel, 150, 300, "k2"));
  spans.push_back(make(6, kKernelLevel, 500, 600, "k3"));
  return spans;
}

TEST(Timeline, ReconstructsNestedHierarchyByIntervals) {
  auto tl = Timeline::assemble(nested_trace());
  ASSERT_EQ(tl.roots().size(), 1u);
  const SpanId root = tl.roots()[0];
  EXPECT_EQ(tl.node(root).span.name, "Predict");
  ASSERT_EQ(tl.children(root).size(), 2u);
  EXPECT_EQ(tl.node(tl.children(root)[0]).span.name, "conv0");
  EXPECT_EQ(tl.node(tl.children(root)[1]).span.name, "relu0");

  const SpanId conv0 = tl.children(root)[0];
  ASSERT_EQ(tl.children(conv0).size(), 2u);
  EXPECT_EQ(tl.node(tl.children(conv0)[0]).span.name, "k1");
  EXPECT_EQ(tl.node(tl.children(conv0)[1]).span.name, "k2");

  const SpanId relu0 = tl.children(root)[1];
  ASSERT_EQ(tl.children(relu0).size(), 1u);
  EXPECT_EQ(tl.node(tl.children(relu0)[0]).span.name, "k3");
  EXPECT_EQ(tl.ambiguous_count(), 0u);
}

TEST(Timeline, ExplicitParentOverridesIntervals) {
  auto spans = nested_trace();
  // Attach k3 explicitly to conv0 even though its interval sits in relu0.
  spans[5].parent = 2;
  auto tl = Timeline::assemble(spans);
  const auto& k3 = tl.node(6);
  EXPECT_EQ(k3.parent, 2u);
}

TEST(Timeline, AbsentLevelsAreSkippedInParentSearch) {
  // A kernel-level span with no layer or library profiling enabled:
  // those levels are empty, so the parent search falls through to the
  // model span (Section III-E: tracers can be enabled per level, and the
  // hierarchy must still assemble).
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 100, "Predict"));
  spans.push_back(make(2, kKernelLevel, 10, 20, "k"));
  auto tl = Timeline::assemble(spans);
  ASSERT_EQ(tl.roots().size(), 1u);
  EXPECT_EQ(tl.node(2).parent, 1u);
}

TEST(Timeline, LibraryLevelNestsBetweenLayerAndKernel) {
  // With an ML-library tracer attached, kernels parent onto the library
  // call span and the library span onto the layer.
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 1000, "Predict"));
  spans.push_back(make(2, kLayerLevel, 10, 400, "conv0"));
  spans.push_back(make(3, kLibraryLevel, 20, 120, "cudnnConvolutionForward"));
  spans.push_back(make(4, kKernelLevel, 30, 100, "volta_scudnn"));
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.node(4).parent, 3u);
  EXPECT_EQ(tl.node(3).parent, 2u);
  EXPECT_EQ(tl.node(2).parent, 1u);
}

TEST(Timeline, KernelOutsideLibraryWindowFallsToNoParent) {
  // A kernel whose interval is not contained by any library span stays
  // unparented rather than mis-attaching (the level exists, so no
  // fall-through happens).
  std::vector<Span> spans;
  spans.push_back(make(1, kLibraryLevel, 0, 50, "cublasSgemm"));
  spans.push_back(make(2, kKernelLevel, 60, 80, "stray"));
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.node(2).parent, kNoSpan);
}

TEST(Timeline, CorrelatesLaunchAndExecutionSpans) {
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 1000, "Predict"));
  spans.push_back(make(2, kLayerLevel, 10, 100, "conv0"));

  // Launch inside the layer; execution completes after the layer ended.
  Span launch = make(3, kKernelLevel, 20, 25, "k_launch");
  launch.kind = SpanKind::kLaunch;
  launch.correlation_id = 42;
  Span exec = make(4, kKernelLevel, 120, 200, "volta_scudnn");
  exec.kind = SpanKind::kExecution;
  exec.correlation_id = 42;
  exec.metrics.set("flop_count_sp", 5e9);
  spans.push_back(launch);
  spans.push_back(exec);

  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.correlated_async_count(), 1u);
  EXPECT_EQ(tl.unmatched_async_count(), 0u);

  // The merged kernel node: parent via launch interval, timing from exec.
  const auto kid = tl.find_by_name("volta_scudnn");
  ASSERT_TRUE(kid.has_value());
  const auto& node = tl.node(*kid);
  EXPECT_TRUE(node.is_async);
  EXPECT_EQ(node.parent, 2u);
  EXPECT_EQ(node.span.begin, 120);
  EXPECT_EQ(node.span.end, 200);
  EXPECT_EQ(node.launch_begin, 20);
  EXPECT_EQ(node.launch_end, 25);
  EXPECT_DOUBLE_EQ(node.span.metrics.at("flop_count_sp"), 5e9);
}

TEST(Timeline, UnmatchedAsyncSpansDegradeGracefully) {
  std::vector<Span> spans;
  Span launch = make(1, kKernelLevel, 0, 5, "k_launch");
  launch.kind = SpanKind::kLaunch;
  launch.correlation_id = 7;
  spans.push_back(launch);
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.unmatched_async_count(), 1u);
  EXPECT_EQ(tl.size(), 1u);
}

TEST(Timeline, AmbiguousParentDetectedForParallelEvents) {
  // Two identical overlapping layer spans both contain the kernel: parallel
  // execution makes the parent ambiguous, requiring a serialized re-run.
  std::vector<Span> spans;
  spans.push_back(make(1, kLayerLevel, 0, 100, "branch_a"));
  spans.push_back(make(2, kLayerLevel, 0, 100, "branch_b"));
  spans.push_back(make(3, kKernelLevel, 10, 20, "k"));
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.ambiguous_count(), 1u);
}

TEST(Timeline, SmallestEnclosingIntervalWins) {
  // Nested same-level spans: the tighter one is the parent.
  std::vector<Span> spans;
  spans.push_back(make(1, kLayerLevel, 0, 1000, "outer"));
  spans.push_back(make(2, kLayerLevel, 100, 300, "inner"));
  spans.push_back(make(3, kKernelLevel, 150, 200, "k"));
  auto tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.node(3).parent, 2u);
  EXPECT_EQ(tl.ambiguous_count(), 0u);
}

TEST(Timeline, InvertedSpanOnOverlappingLevelIsNobodysParent) {
  // Layers a and b partially overlap, so the layer level is not laminar.
  // Layer 4 ends before it begins: it contains no point,
  // so it must parent nothing, and everything else keeps its parent.
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 1000, "Predict"));
  spans.push_back(make(2, kLayerLevel, 0, 100, "a"));
  spans.push_back(make(3, kLayerLevel, 50, 200, "b"));
  spans.push_back(make(10, kKernelLevel, 10, 20, "k_a"));
  spans.push_back(make(11, kKernelLevel, 60, 70, "k_ab"));
  spans.push_back(make(12, kKernelLevel, 110, 120, "k_b"));
  spans.push_back(make(13, kKernelLevel, 75, 78, "k_in_inverted"));
  spans.push_back(make(14, kKernelLevel, 90, 30, "k_inverted"));
  const auto without = Timeline::assemble(spans);
  spans.push_back(make(4, kLayerLevel, 80, 40, "inverted"));
  const auto with = Timeline::assemble(spans);

  ASSERT_EQ(with.size(), without.size() + 1);
  for (const SpanId id : {1, 2, 3, 10, 11, 12, 13, 14}) {
    EXPECT_EQ(with.node(id).parent, without.node(id).parent) << "span " << id;
    EXPECT_EQ(with.node(id).ambiguous_parent, without.node(id).ambiguous_parent) << "span " << id;
  }
  EXPECT_TRUE(with.children(4).empty());
  EXPECT_EQ(with.node(11).parent, 2u);
  EXPECT_EQ(with.node(14).parent, 2u);
  EXPECT_EQ(with.ambiguous_count(), without.ambiguous_count());
}

TEST(Timeline, AtLevelReturnsSpansInTimeOrder) {
  auto tl = Timeline::assemble(nested_trace());
  const auto kernels = tl.at_level(kKernelLevel);
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_EQ(tl.node(kernels[0]).span.name, "k1");
  EXPECT_EQ(tl.node(kernels[1]).span.name, "k2");
  EXPECT_EQ(tl.node(kernels[2]).span.name, "k3");
}

TEST(Timeline, WalkVisitsEveryNodeWithDepths) {
  auto tl = Timeline::assemble(nested_trace());
  int count = 0;
  int max_depth = 0;
  tl.walk([&](const TimelineNode&, int depth) {
    ++count;
    max_depth = std::max(max_depth, depth);
  });
  EXPECT_EQ(count, 6);
  EXPECT_EQ(max_depth, 2);
}

TEST(Timeline, EmptyTraceYieldsEmptyTimeline) {
  auto tl = Timeline::assemble(std::vector<Span>{});
  EXPECT_TRUE(tl.empty());
  EXPECT_TRUE(tl.roots().empty());
}

TEST(Timeline, FindByNamePicksEarliest) {
  std::vector<Span> spans;
  spans.push_back(make(1, kLayerLevel, 100, 200, "conv"));
  spans.push_back(make(2, kLayerLevel, 0, 50, "conv"));
  auto tl = Timeline::assemble(spans);
  const auto found = tl.find_by_name("conv");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 2u);
}

TEST(Timeline, DeterministicRegardlessOfPublicationOrder) {
  auto spans = nested_trace();
  std::vector<Span> reversed(spans.rbegin(), spans.rend());
  auto a = Timeline::assemble(spans);
  auto b = Timeline::assemble(reversed);
  ASSERT_EQ(a.roots().size(), b.roots().size());
  const auto ka = a.at_level(kKernelLevel);
  const auto kb = b.at_level(kKernelLevel);
  ASSERT_EQ(ka.size(), kb.size());
  for (std::size_t i = 0; i < ka.size(); ++i) {
    EXPECT_EQ(a.node(ka[i]).span.name, b.node(kb[i]).span.name);
    EXPECT_EQ(a.node(ka[i]).parent, b.node(kb[i]).parent);
  }
}

TEST(Timeline, WalkHandlesDeepExplicitChain) {
  // Each span names the previous one as its parent: a hierarchy 400k
  // levels deep, which a recursive walk cannot follow on a default stack.
  constexpr SpanId kDepth = 400'000;
  std::vector<Span> spans;
  spans.reserve(kDepth);
  for (SpanId id = 1; id <= kDepth; ++id) {
    const auto t = static_cast<TimePoint>(id);
    spans.push_back(make(id, kLayerLevel, t, 2 * static_cast<TimePoint>(kDepth) - t, "s",
                         id == 1 ? kNoSpan : id - 1));
  }
  const auto tl = Timeline::assemble(std::move(spans));
  ASSERT_EQ(tl.size(), kDepth);
  ASSERT_EQ(tl.roots().size(), 1u);

  SpanId expected = 1;
  tl.walk([&](const TimelineNode& n, int depth) {
    EXPECT_EQ(n.span.id, expected);
    EXPECT_EQ(depth, static_cast<int>(expected - 1));
    ++expected;
  });
  EXPECT_EQ(expected, kDepth + 1);

  // The export follows the same walk: every span, in pre-order.
  const std::string json = to_span_json(tl);
  const std::string marker = "{\"id\":";
  SpanId next = 1;
  for (std::size_t at = json.find(marker); at != std::string::npos;
       at = json.find(marker, at + 1)) {
    const auto id = std::strtoull(json.c_str() + at + marker.size(), nullptr, 10);
    if (id != next) {
      ADD_FAILURE() << "span " << id << " exported where " << next << " was due";
      break;
    }
    ++next;
  }
  EXPECT_EQ(next, kDepth + 1);
}

TEST(Timeline, ExplicitParentCyclesBecomeCountedRoots) {
  // A root, a span naming itself as parent, two spans naming each other,
  // and a span hanging off that 2-cycle that begins before it: every span
  // stays reachable, and the earliest span of each cycle becomes a root
  // whose parent could not be determined.
  std::vector<Span> spans;
  spans.push_back(make(1, kModelLevel, 0, 100, "root"));
  spans.push_back(make(2, kLayerLevel, 10, 20, "self", 2));
  spans.push_back(make(3, kLayerLevel, 30, 40, "a", 4));
  spans.push_back(make(4, kLayerLevel, 35, 38, "b", 3));
  spans.push_back(make(5, kLayerLevel, 25, 28, "tail", 4));
  const auto tl = Timeline::assemble(spans);
  ASSERT_EQ(tl.size(), 5u);
  EXPECT_EQ(tl.roots(), (std::vector<SpanId>{1, 2, 3}));
  EXPECT_EQ(tl.ambiguous_count(), 2u);

  EXPECT_EQ(tl.node(2).parent, kNoSpan);
  EXPECT_TRUE(tl.node(2).ambiguous_parent);
  EXPECT_EQ(tl.node(3).parent, kNoSpan);
  EXPECT_TRUE(tl.node(3).ambiguous_parent);
  EXPECT_EQ(tl.node(4).parent, 3u);
  EXPECT_FALSE(tl.node(4).ambiguous_parent);
  EXPECT_EQ(tl.node(5).parent, 4u);
  EXPECT_EQ(tl.children(3), std::vector<SpanId>{4});

  std::vector<SpanId> visited;
  tl.walk([&](const TimelineNode& n, int) { visited.push_back(n.span.id); });
  EXPECT_EQ(visited, (std::vector<SpanId>{1, 2, 3, 4, 5}));
  const std::string json = to_span_json(tl);
  for (const char* name : {"\"root\"", "\"self\"", "\"a\"", "\"b\"", "\"tail\""}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace xsp::trace
