// Property tests: randomized nested traces checked against a brute-force
// parent-assignment oracle, and structural invariants of assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "xsp/common/rng.hpp"
#include "xsp/trace/timeline.hpp"

namespace xsp::trace {
namespace {

/// Generate a random strictly-nested trace: the model span covers
/// disjoint layer spans, each covering disjoint kernel spans.
std::vector<Span> random_nested_trace(std::uint64_t seed, int layers, int kernels_per_layer) {
  SplitMix64 rng(seed);
  std::vector<Span> spans;
  SpanId next_id = 1;

  Span model;
  model.id = next_id++;
  model.level = kModelLevel;
  model.name = "Predict";
  model.begin = 0;

  TimePoint t = 10;
  for (int l = 0; l < layers; ++l) {
    Span layer;
    layer.id = next_id++;
    layer.level = kLayerLevel;
    layer.name = "layer_" + std::to_string(l);
    layer.begin = t;
    TimePoint kt = t + 1 + static_cast<TimePoint>(rng.below(5));
    for (int k = 0; k < kernels_per_layer; ++k) {
      Span kernel;
      kernel.id = next_id++;
      kernel.level = kKernelLevel;
      kernel.name = "kernel_" + std::to_string(l) + "_" + std::to_string(k);
      kernel.begin = kt;
      kernel.end = kt + 1 + static_cast<TimePoint>(rng.below(50));
      kt = kernel.end + 1 + static_cast<TimePoint>(rng.below(5));
      spans.push_back(kernel);
    }
    layer.end = kt + static_cast<TimePoint>(rng.below(5));
    t = layer.end + 1 + static_cast<TimePoint>(rng.below(10));
    spans.push_back(layer);
  }
  model.end = t + 5;
  spans.push_back(model);
  return spans;
}

/// Brute-force oracle: smallest enclosing span at the nearest lower level
/// that has any spans (mirroring assembly's absent-level fall-through).
std::map<SpanId, SpanId> oracle_parents(const std::vector<Span>& spans) {
  std::map<SpanId, SpanId> parents;
  std::map<int, int> level_counts;
  for (const auto& s : spans) level_counts[s.level] += 1;

  for (const auto& child : spans) {
    int parent_level = child.level - 1;
    while (parent_level >= kApplicationLevel && level_counts[parent_level] == 0) {
      --parent_level;
    }
    SpanId best = kNoSpan;
    Ns best_len = 0;
    for (const auto& cand : spans) {
      if (cand.level != parent_level) continue;
      if (cand.begin <= child.begin && cand.end >= child.end) {
        if (best == kNoSpan || cand.duration() < best_len) {
          best = cand.id;
          best_len = cand.duration();
        }
      }
    }
    parents[child.id] = best;
  }
  return parents;
}

class TimelineRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineRandomized, MatchesBruteForceOracle) {
  const auto spans = random_nested_trace(GetParam(), 20, 4);
  const auto expected = oracle_parents(spans);
  const auto tl = Timeline::assemble(spans);
  ASSERT_EQ(tl.size(), spans.size());
  for (const auto& s : spans) {
    EXPECT_EQ(tl.node(s.id).parent, expected.at(s.id)) << s.name;
  }
  EXPECT_EQ(tl.ambiguous_count(), 0u);
}

TEST_P(TimelineRandomized, EveryNodeReachableExactlyOnceFromRoots) {
  const auto spans = random_nested_trace(GetParam(), 15, 3);
  const auto tl = Timeline::assemble(spans);
  std::map<SpanId, int> visits;
  tl.walk([&](const TimelineNode& n, int) { visits[n.span.id] += 1; });
  EXPECT_EQ(visits.size(), spans.size());
  for (const auto& [id, count] : visits) {
    EXPECT_EQ(count, 1) << "span " << id;
  }
}

TEST_P(TimelineRandomized, ChildrenIntervalsWithinParent) {
  const auto spans = random_nested_trace(GetParam(), 15, 3);
  const auto tl = Timeline::assemble(spans);
  tl.walk([&](const TimelineNode& n, int) {
    for (const SpanId c : tl.children(n.span.id)) {
      const auto& child = tl.node(c).span;
      EXPECT_GE(child.begin, n.span.begin);
      EXPECT_LE(child.end, n.span.end);
    }
  });
}

TEST_P(TimelineRandomized, ChildrenSortedByBeginTime) {
  const auto spans = random_nested_trace(GetParam(), 15, 3);
  const auto tl = Timeline::assemble(spans);
  tl.walk([&](const TimelineNode& n, int) {
    const std::vector<SpanId> children = tl.children(n.span.id);
    for (std::size_t i = 1; i < children.size(); ++i) {
      EXPECT_LE(tl.node(children[i - 1]).span.begin, tl.node(children[i]).span.begin);
    }
  });
}

TEST_P(TimelineRandomized, ShuffledPublicationOrderIsIrrelevant) {
  auto spans = random_nested_trace(GetParam(), 12, 3);
  const auto reference = Timeline::assemble(spans);
  SplitMix64 rng(GetParam() ^ 0xABCDEF);
  for (std::size_t i = spans.size(); i > 1; --i) {
    std::swap(spans[i - 1], spans[rng.below(i)]);
  }
  const auto shuffled = Timeline::assemble(spans);
  ASSERT_EQ(shuffled.size(), reference.size());
  reference.walk([&](const TimelineNode& n, int) {
    EXPECT_EQ(shuffled.node(n.span.id).parent, n.parent) << n.span.name;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineRandomized,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u, 88u));

// --- Full assembly against a brute-force oracle ----------------------------
// The generator covers what the nested one above does not: launch/execution
// pairs whose parent search uses the launch window, unmatched halves,
// duplicate correlation ids, explicit parents (valid and dangling) mixed
// with interval search, parallel equal-duration parents, parallel layers
// that partially overlap (so the layer level is not laminar), an optional
// library and application level, and publication split over many batches
// in shuffled order.

Span make_span(SpanId id, int level, TimePoint begin, TimePoint end,
               SpanKind kind = SpanKind::kRegular, std::uint64_t corr = 0) {
  Span s;
  s.id = id;
  s.level = level;
  s.begin = begin;
  s.end = end;
  s.kind = kind;
  s.correlation_id = corr;
  s.name = "span_" + std::to_string(id);
  return s;
}

/// Random leveled trace in arrival order, split into publication batches.
SpanBatches random_async_trace(std::uint64_t seed, bool duplicate_correlation_ids) {
  SplitMix64 rng(seed);
  const bool library_level = rng.below(2) == 0;
  const bool application_level = rng.below(2) == 0;
  std::vector<Span> spans;
  SpanId next_id = 1;
  std::uint64_t next_corr = 1;

  const SpanId app_id = next_id++;
  const SpanId model_id = next_id++;
  TimePoint t = 10;
  const int layers = 6 + static_cast<int>(rng.below(6));
  for (int l = 0; l < layers; ++l) {
    const TimePoint layer_begin = t;
    // Container for the launches: a library span inside the layer when the
    // library level is present (most of the time), else the layer itself.
    std::vector<Span> children;
    TimePoint kt = layer_begin + 1 + static_cast<TimePoint>(rng.below(4));
    SpanId layer_id = next_id++;
    const int kernels = 1 + static_cast<int>(rng.below(5));
    for (int k = 0; k < kernels; ++k) {
      SpanId container = layer_id;
      Span library;
      const bool wrap = library_level && rng.below(4) != 0;
      if (wrap) {
        library = make_span(next_id++, kLibraryLevel, kt, 0);
        container = library.id;
        kt += 1 + static_cast<TimePoint>(rng.below(3));
      }
      if (rng.below(5) == 0) {
        // A synchronous kernel-level span (e.g. a host-side memset).
        const TimePoint len = 1 + static_cast<TimePoint>(rng.below(20));
        children.push_back(make_span(next_id++, kKernelLevel, kt, kt + len));
        kt += len + 1;
      } else {
        const std::uint64_t corr = next_corr++;
        Span launch = make_span(next_id++, kKernelLevel, kt,
                                kt + 1 + static_cast<TimePoint>(rng.below(4)),
                                SpanKind::kLaunch, corr);
        // The device side starts after the launch and may outlive the layer.
        const TimePoint exec_begin = launch.end + static_cast<TimePoint>(rng.below(40));
        Span exec = make_span(next_id++, kKernelLevel, exec_begin,
                              exec_begin + 1 + static_cast<TimePoint>(rng.below(120)),
                              SpanKind::kExecution, corr);
        exec.level = rng.below(8) == 0 ? kKernelLevel + 1 : kKernelLevel;
        switch (rng.below(8)) {
          case 0: launch.parent = container; break;    // explicit, correct
          case 1: exec.parent = container; break;      // explicit on the device side
          case 2: launch.parent = 1'000'000; break;    // dangling explicit parent
          default: break;
        }
        const std::uint64_t drop = rng.below(10);
        if (drop != 0) children.push_back(launch);  // unmatched execution half
        if (drop != 1) children.push_back(exec);    // unmatched launch half
        if (duplicate_correlation_ids && rng.below(6) == 0) {
          // A second launch or execution span reusing the id.
          const bool dup_launch = rng.below(2) == 0;
          Span dup = dup_launch ? launch : exec;
          dup.id = next_id++;
          dup.begin += 1;
          dup.end += 2;
          children.push_back(dup);
        }
        kt = launch.end + 1 + static_cast<TimePoint>(rng.below(3));
      }
      if (wrap) {
        library.end = kt + static_cast<TimePoint>(rng.below(3));
        kt = library.end + 1;
        children.push_back(library);
      }
    }
    const TimePoint layer_end = kt + static_cast<TimePoint>(rng.below(5));
    Span layer = make_span(layer_id, kLayerLevel, layer_begin, layer_end);
    if (rng.below(2) == 0) layer.parent = model_id;
    spans.push_back(layer);
    if (rng.below(4) == 0) {
      // A parallel branch with the identical interval: every span searching
      // the layer level inside it has two equal-duration candidates.
      Span branch = make_span(next_id++, kLayerLevel, layer_begin, layer_end);
      spans.push_back(branch);
    }
    if (rng.below(4) == 0) {
      // A parallel branch a few ticks behind: it partially overlaps the
      // layer, so the layer level is not laminar.
      const auto shift = 1 + static_cast<TimePoint>(rng.below(3));
      spans.push_back(make_span(next_id++, kLayerLevel, layer_begin + shift, layer_end + shift));
    }
    spans.insert(spans.end(), children.begin(), children.end());
    t = layer_end + 1 + static_cast<TimePoint>(rng.below(10));
  }
  Span model = make_span(model_id, kModelLevel, 5, t + 5);
  spans.push_back(model);
  if (application_level) spans.push_back(make_span(app_id, kApplicationLevel, 0, t + 10));

  // Shuffle, then split into many batches (some empty).
  for (std::size_t i = spans.size(); i > 1; --i) {
    std::swap(spans[i - 1], spans[rng.below(i)]);
  }
  SpanBatches batches;
  std::size_t at = 0;
  while (at < spans.size()) {
    const std::size_t n = std::min<std::size_t>(rng.below(8), spans.size() - at);
    batches.emplace_back(spans.begin() + static_cast<std::ptrdiff_t>(at),
                         spans.begin() + static_cast<std::ptrdiff_t>(at + n));
    at += n;
  }
  return batches;
}

struct OracleNode {
  SpanId id = kNoSpan;
  int level = 0;
  TimePoint begin = 0;
  TimePoint end = 0;
  TimePoint search_lo = 0;  // launch window for async events
  TimePoint search_hi = 0;
  SpanId explicit_parent = kNoSpan;
  bool is_async = false;
};

struct OracleResult {
  std::vector<OracleNode> nodes;
  std::set<SpanId> merged_launches;  // launch ids folded into a merged node
  std::map<SpanId, std::set<SpanId>> parents;  // every equally-good parent
  std::size_t correlated = 0;
  std::size_t unmatched = 0;
  std::size_t ambiguous = 0;
};

OracleNode regular_node(const Span& s) {
  return {s.id, s.level, s.begin, s.end, s.begin, s.end, s.parent, false};
}

/// Brute force: per correlation id, the first launch and the first
/// execution in arrival order form the pair; every other async span stays
/// a regular node and counts as unmatched. Parents: an explicit
/// reference if it names a node, else the smallest enclosing span at the
/// nearest present lower level; a tie on duration is ambiguous.
OracleResult oracle(const SpanBatches& batches) {
  OracleResult out;
  std::map<std::uint64_t, std::vector<const Span*>> groups;
  for (const auto& batch : batches) {
    for (const auto& s : batch) {
      if (s.kind != SpanKind::kRegular && s.correlation_id != 0) {
        groups[s.correlation_id].push_back(&s);
      } else {
        out.nodes.push_back(regular_node(s));
      }
    }
  }
  for (const auto& [corr, group] : groups) {
    const Span* launch = nullptr;
    const Span* exec = nullptr;
    for (const Span* s : group) {
      if (s->kind == SpanKind::kLaunch && launch == nullptr) {
        launch = s;
      } else if (s->kind == SpanKind::kExecution && exec == nullptr) {
        exec = s;
      }
    }
    if (launch == nullptr || exec == nullptr) launch = exec = nullptr;
    for (const Span* s : group) {
      if (s == launch || s == exec) continue;
      out.nodes.push_back(regular_node(*s));
      ++out.unmatched;
    }
    if (launch != nullptr) {
      OracleNode n = regular_node(*exec);
      n.search_lo = launch->begin;
      n.search_hi = launch->end;
      if (n.explicit_parent == kNoSpan) n.explicit_parent = launch->parent;
      n.is_async = true;
      out.nodes.push_back(n);
      out.merged_launches.insert(launch->id);
      ++out.correlated;
    }
  }

  std::set<int> levels;
  std::set<SpanId> ids;
  for (const auto& n : out.nodes) {
    levels.insert(n.level);
    ids.insert(n.id);
  }
  for (const auto& n : out.nodes) {
    std::set<SpanId>& best = out.parents[n.id];
    if (n.explicit_parent != kNoSpan) {
      best.insert(ids.count(n.explicit_parent) != 0 ? n.explicit_parent : kNoSpan);
      continue;
    }
    auto below = levels.lower_bound(n.level);
    if (below == levels.begin() || *std::prev(below) < kApplicationLevel) {
      best.insert(kNoSpan);
      continue;
    }
    const int parent_level = *std::prev(below);
    Ns best_duration = 0;
    for (const auto& c : out.nodes) {
      if (c.level != parent_level || c.begin > n.search_lo || c.end < n.search_hi) continue;
      const Ns d = c.end - c.begin;
      if (best.empty() || d < best_duration) {
        best = {c.id};
        best_duration = d;
      } else if (d == best_duration) {
        best.insert(c.id);
      }
    }
    if (best.empty()) best.insert(kNoSpan);
    if (best.size() > 1) ++out.ambiguous;
  }
  return out;
}

void expect_matches_oracle(const SpanBatches& batches) {
  const OracleResult want = oracle(batches);
  const Timeline tl = Timeline::assemble(batches);

  ASSERT_EQ(tl.size(), want.nodes.size());
  EXPECT_EQ(tl.correlated_async_count(), want.correlated);
  EXPECT_EQ(tl.unmatched_async_count(), want.unmatched);
  EXPECT_EQ(tl.ambiguous_count(), want.ambiguous);
  for (const SpanId launch : want.merged_launches) EXPECT_FALSE(tl.contains(launch));

  // Expected children of every parent (kNoSpan = roots), in (begin, id)
  // order, from the parents assembly chose.
  std::map<SpanId, std::vector<std::tuple<TimePoint, SpanId>>> children;
  for (const auto& n : want.nodes) {
    ASSERT_TRUE(tl.contains(n.id)) << "span " << n.id;
    const TimelineNode& got = tl.node(n.id);
    const std::set<SpanId>& parents = want.parents.at(n.id);
    EXPECT_EQ(parents.count(got.parent), 1u) << "span " << n.id << " parent " << got.parent;
    EXPECT_EQ(got.ambiguous_parent, parents.size() > 1) << "span " << n.id;
    EXPECT_EQ(got.is_async, n.is_async) << "span " << n.id;
    EXPECT_EQ(got.span.begin, n.begin);
    EXPECT_EQ(got.span.end, n.end);
    if (n.is_async) {
      EXPECT_EQ(got.launch_begin, n.search_lo);
      EXPECT_EQ(got.launch_end, n.search_hi);
    }
    children[got.parent].emplace_back(n.begin, n.id);
  }
  const auto ids_of = [](std::vector<std::tuple<TimePoint, SpanId>> v) {
    std::sort(v.begin(), v.end());
    std::vector<SpanId> ids;
    for (const auto& [begin, id] : v) ids.push_back(id);
    return ids;
  };
  EXPECT_EQ(tl.roots(), ids_of(children[kNoSpan]));
  for (const auto& n : want.nodes) {
    EXPECT_EQ(tl.children(n.id), ids_of(children[n.id])) << "children of " << n.id;
  }
}

/// Whether two spans of one level partially overlap, on a level some
/// other span searches (the nearest present level below its own), found
/// by brute force: such a level is not laminar.
bool has_partial_overlap_on_searched_level(const SpanBatches& batches) {
  std::vector<const Span*> spans;
  std::set<int> levels;
  for (const auto& batch : batches) {
    for (const auto& s : batch) {
      spans.push_back(&s);
      levels.insert(s.level);
    }
  }
  std::set<int> searched;
  for (auto it = std::next(levels.begin()); it != levels.end(); ++it) {
    if (*std::prev(it) >= kApplicationLevel) searched.insert(*std::prev(it));
  }
  for (const Span* a : spans) {
    for (const Span* b : spans) {
      if (a->level == b->level && searched.count(a->level) != 0 && a->begin < b->begin &&
          b->begin <= a->end && a->end < b->end) {
        return true;
      }
    }
  }
  return false;
}

class TimelineOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineOracle, MatchesBruteForce) {
  expect_matches_oracle(
      random_async_trace(GetParam(), /*duplicate_correlation_ids=*/false));
}

TEST_P(TimelineOracle, MatchesBruteForceWithDuplicateCorrelationIds) {
  expect_matches_oracle(
      random_async_trace(GetParam(), /*duplicate_correlation_ids=*/true));
}

TEST(TimelineOracleCoverage, GeneratorExercisesEveryCase) {
  // Guard against a generator change silently dropping a case: over the
  // seeds below, each feature shows up at least once.
  std::size_t correlated = 0, unmatched = 0, ambiguous = 0, batches = 0, non_laminar = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const SpanBatches b = random_async_trace(seed, true);
    const Timeline tl = Timeline::assemble(b);
    correlated += tl.correlated_async_count();
    unmatched += tl.unmatched_async_count();
    ambiguous += tl.ambiguous_count();
    batches += b.size();
    non_laminar += has_partial_overlap_on_searched_level(b) ? 1 : 0;
  }
  EXPECT_GT(correlated, 0u);
  EXPECT_GT(unmatched, 0u);
  EXPECT_GT(ambiguous, 0u);
  EXPECT_GT(batches, 12u * 10u);
  EXPECT_GT(non_laminar, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineOracle,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u));

// --- Fixed cases for both shapes of level ------------------------------------
// Levels whose intervals are all nested or disjoint (laminar) and levels
// whose intervals partially overlap resolve by the same Fenwick sweep.
// Each case runs against the oracle, except where the oracle's own
// arithmetic would overflow.

/// `spans` published in the given order, `per_batch` spans to a batch.
SpanBatches batches_of(const std::vector<Span>& spans, std::size_t per_batch) {
  SpanBatches batches;
  for (std::size_t at = 0; at < spans.size(); at += per_batch) {
    const std::size_t end = std::min(spans.size(), at + per_batch);
    batches.emplace_back(spans.begin() + static_cast<std::ptrdiff_t>(at),
                         spans.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

/// A launch/execution pair: the launch's CPU window is the search window.
void add_pair(std::vector<Span>& spans, SpanId id, std::uint64_t corr, TimePoint launch_begin,
              TimePoint launch_end, TimePoint exec_begin, TimePoint exec_end) {
  spans.push_back(
      make_span(id, kKernelLevel, exec_begin, exec_end, SpanKind::kExecution, corr));
  spans.push_back(
      make_span(id + 1, kKernelLevel, launch_begin, launch_end, SpanKind::kLaunch, corr));
}

TEST(TimelineOracleFixed, LaminarLevelNestedDeepWithDuplicatesAndLateLaunches) {
  // Layers nest four deep (1 > 2 > 3 > 6), with 4 an identical copy of 3:
  // searches inside 3 but not 6 tie between 3 and 4. Launch windows arrive
  // out of begin order: the device runs the kernels in another order than
  // the host launched them.
  std::vector<Span> spans;
  spans.push_back(make_span(100, kModelLevel, 0, 3000));
  spans.push_back(make_span(1, kLayerLevel, 100, 1000));
  spans.push_back(make_span(2, kLayerLevel, 200, 800));
  spans.push_back(make_span(3, kLayerLevel, 300, 500));
  spans.push_back(make_span(4, kLayerLevel, 300, 500));  // identical to 3
  spans.push_back(make_span(5, kLayerLevel, 600, 700));
  spans.push_back(make_span(6, kLayerLevel, 350, 400));
  spans.push_back(make_span(7, kLayerLevel, 1000, 1000));  // zero-width, at 1's end
  spans.push_back(make_span(8, kLayerLevel, 1200, 1500));
  spans.back().parent = 100;  // an explicit parent among searching siblings
  add_pair(spans, 10, 1, 360, 380, 2000, 2100);  // in 6
  add_pair(spans, 12, 2, 310, 320, 2200, 2300);  // in 3 and 4: a tie
  add_pair(spans, 14, 3, 500, 500, 1900, 1950);  // at 3's and 4's end: a tie
  add_pair(spans, 16, 4, 650, 690, 1800, 1850);  // in 5
  add_pair(spans, 18, 5, 1000, 1000, 2400, 2500);  // in 7, the zero-width layer
  add_pair(spans, 20, 6, 850, 900, 1700, 1750);  // in 1 only
  add_pair(spans, 22, 7, 1100, 1150, 2600, 2700);  // in no layer
  add_pair(spans, 24, 8, 1300, 1400, 1600, 1650);  // in 8
  spans.push_back(make_span(26, kKernelLevel, 620, 630));  // synchronous, in 5
  spans.push_back(make_span(27, kKernelLevel, 200, 800));  // synchronous, fills 2
  std::reverse(spans.begin(), spans.end());
  const SpanBatches batches = batches_of(spans, 3);

  const Timeline tl = Timeline::assemble(batches);
  EXPECT_EQ(tl.node(10).parent, 6u);
  EXPECT_TRUE(tl.node(12).ambiguous_parent);
  EXPECT_TRUE(tl.node(14).ambiguous_parent);
  EXPECT_EQ(tl.node(18).parent, 7u);
  EXPECT_EQ(tl.node(22).parent, kNoSpan);
  EXPECT_EQ(tl.node(27).parent, 2u);
  EXPECT_EQ(tl.ambiguous_count(), 2u);
  expect_matches_oracle(batches);
}

TEST(TimelineOracleFixed, NonLaminarLevelWithPartialOverlapsAndEqualWidthTies) {
  // Layers 2 and 3 partially overlap with equal widths (parallel branches
  // of two executor threads); 4 nests in 3 but crosses 2's end.
  std::vector<Span> spans;
  spans.push_back(make_span(1, kLayerLevel, 0, 1000));
  spans.push_back(make_span(2, kLayerLevel, 100, 400));
  spans.push_back(make_span(3, kLayerLevel, 300, 600));
  spans.push_back(make_span(4, kLayerLevel, 350, 450));
  add_pair(spans, 10, 1, 320, 380, 700, 800);  // in 1, 2 and 3: 2 and 3 tie
  add_pair(spans, 12, 2, 360, 390, 650, 690);  // in 4, the narrowest
  add_pair(spans, 14, 3, 410, 440, 900, 950);  // in 4 and 3
  add_pair(spans, 16, 4, 150, 200, 610, 640);  // in 2
  add_pair(spans, 18, 5, 500, 700, 960, 990);  // in 1 only
  const SpanBatches batches = batches_of(spans, 4);

  const Timeline tl = Timeline::assemble(batches);
  EXPECT_TRUE(tl.node(10).ambiguous_parent);
  EXPECT_EQ(tl.node(10).parent, 2u);  // the earliest tied candidate in node order
  EXPECT_EQ(tl.node(12).parent, 4u);
  EXPECT_EQ(tl.node(14).parent, 4u);
  EXPECT_EQ(tl.node(16).parent, 2u);
  EXPECT_EQ(tl.node(18).parent, 1u);
  EXPECT_EQ(tl.ambiguous_count(), 1u);
  expect_matches_oracle(batches);
}

TEST(TimelineOracleFixed, NonLaminarLevelWithExtremeTimesComparesTrueDurations) {
  // Layers 2 and 3 partially overlap; layer 1 spans the whole int64 range,
  // a duration of 2^64 - 1 ns that overflows a signed difference. Kernel 10
  // lies in 1 and 2 only, kernel 11 in all three.
  constexpr TimePoint kMin = std::numeric_limits<TimePoint>::min();
  constexpr TimePoint kMax = std::numeric_limits<TimePoint>::max();
  std::vector<Span> spans;
  spans.push_back(make_span(1, kLayerLevel, kMin, kMax));
  spans.push_back(make_span(2, kLayerLevel, -10, 10));
  spans.push_back(make_span(3, kLayerLevel, 5, 20));
  spans.push_back(make_span(10, kKernelLevel, 0, 1));
  spans.push_back(make_span(11, kKernelLevel, 6, 7));

  const Timeline tl = Timeline::assemble(spans);
  EXPECT_EQ(tl.node(10).parent, 2u);
  EXPECT_EQ(tl.node(11).parent, 3u);
  EXPECT_EQ(tl.ambiguous_count(), 0u);

  // The same rule on a laminar level: [INT64_MIN, INT64_MAX] ⊃ [-10,10] ⊃
  // [0,1]. Each kernel goes to the narrowest layer that contains it.
  std::vector<Span> nested;
  nested.push_back(make_span(1, kLayerLevel, kMin, kMax));
  nested.push_back(make_span(2, kLayerLevel, -10, 10));
  nested.push_back(make_span(3, kLayerLevel, 0, 1));
  nested.push_back(make_span(10, kKernelLevel, 0, 1));
  nested.push_back(make_span(11, kKernelLevel, -5, -4));
  nested.push_back(make_span(12, kKernelLevel, 100, 200));
  const Timeline laminar = Timeline::assemble(nested);
  EXPECT_EQ(laminar.node(10).parent, 3u);
  EXPECT_EQ(laminar.node(11).parent, 2u);
  EXPECT_EQ(laminar.node(12).parent, 1u);
  EXPECT_EQ(laminar.ambiguous_count(), 0u);
}

TEST(TimelineOracleFixed, TouchingClosedIntervalsOverlapAtTheirSharedPoint) {
  // [a,b] and [b,c] both contain b, so a zero-width search at b has two
  // candidates: a tie when the widths are equal, else the narrower one.
  struct Case {
    TimePoint a;
    TimePoint c;
    SpanId parent;  // kNoSpan: a tie
  };
  for (const Case& k : {Case{100, 300, kNoSpan}, Case{100, 250, 2}, Case{150, 400, 1}}) {
    SCOPED_TRACE(::testing::Message() << "layers [" << k.a << ",200] and [200," << k.c << "]");
    std::vector<Span> spans;
    spans.push_back(make_span(1, kLayerLevel, k.a, 200));
    spans.push_back(make_span(2, kLayerLevel, 200, k.c));
    spans.push_back(make_span(3, kKernelLevel, 200, 200));
    const SpanBatches batches = batches_of(spans, 1);

    const Timeline tl = Timeline::assemble(batches);
    EXPECT_EQ(tl.node(3).ambiguous_parent, k.parent == kNoSpan);
    if (k.parent != kNoSpan) {
      EXPECT_EQ(tl.node(3).parent, k.parent);
    }
    expect_matches_oracle(batches);
  }
}

}  // namespace
}  // namespace xsp::trace
