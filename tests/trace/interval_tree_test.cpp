#include "xsp/trace/interval_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "xsp/common/rng.hpp"

namespace xsp::trace {
namespace {

using Tree = IntervalTree<int>;

Tree make_tree(std::vector<Tree::Entry> entries) { return Tree(std::move(entries)); }

TEST(IntervalTree, EmptyTreeHasNoMatches) {
  Tree t;
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.containing(0, 1).empty());
}

TEST(IntervalTree, StabbingFindsContainingIntervals) {
  auto t = make_tree({{0, 100, 1}, {10, 20, 2}, {50, 60, 3}});
  std::vector<int> hits;
  t.visit_stabbing(15, [&](const Tree::Entry& e) { hits.push_back(e.value); });
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int>{1, 2}));
}

TEST(IntervalTree, StabbingAtBoundariesIsInclusive) {
  auto t = make_tree({{10, 20, 1}});
  int count = 0;
  t.visit_stabbing(10, [&](const Tree::Entry&) { ++count; });
  t.visit_stabbing(20, [&](const Tree::Entry&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(IntervalTree, ContainingRequiresFullInclusion) {
  auto t = make_tree({{0, 100, 1}, {10, 40, 2}, {30, 60, 3}});
  auto res = t.containing(35, 38);
  std::vector<int> hits;
  for (const auto* e : res) hits.push_back(e->value);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int>{1, 2, 3}));

  res = t.containing(35, 50);  // extends past entry 2's end
  hits.clear();
  for (const auto* e : res) hits.push_back(e->value);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int>{1, 3}));
}

TEST(IntervalTree, DisjointQueriesMissEverything) {
  auto t = make_tree({{0, 10, 1}, {20, 30, 2}});
  EXPECT_TRUE(t.containing(11, 12).empty());
}

TEST(IntervalTree, InvertedIntervalContainsNoPoint) {
  // hi < lo: once made build() recurse until the stack overflowed.
  const auto alone = make_tree({{10, 5, 1}});
  EXPECT_TRUE(alone.empty());
  int visits = 0;
  for (const TimePoint p : {4, 5, 7, 10, 11}) {
    alone.visit_stabbing(p, [&](const Tree::Entry&) { ++visits; });
  }
  EXPECT_EQ(visits, 0);
  EXPECT_TRUE(alone.containing(10, 5).empty());

  const auto mixed = make_tree({{0, 100, 1}, {10, 5, 2}, {20, 30, 3}});
  EXPECT_EQ(mixed.size(), 2u);
  std::vector<int> hits;
  for (const auto* e : mixed.containing(10, 5)) hits.push_back(e->value);
  EXPECT_EQ(hits, (std::vector<int>{1}));
}

TEST(IntervalTree, HandlesNestedSpanStructure) {
  // The shape timeline assembly produces: model contains layers contains
  // kernels; siblings are disjoint.
  auto t = make_tree({{0, 1000, 1},   // model
                      {0, 300, 10},   // layer 1
                      {300, 700, 11}, // layer 2
                      {700, 1000, 12}});
  auto res = t.containing(350, 400);
  std::vector<int> hits;
  for (const auto* e : res) hits.push_back(e->value);
  std::sort(hits.begin(), hits.end());
  EXPECT_EQ(hits, (std::vector<int>{1, 11}));
}

// Property check against a brute-force oracle over random interval sets.
class IntervalTreeRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalTreeRandomized, MatchesBruteForce) {
  SplitMix64 rng(GetParam());
  std::vector<Tree::Entry> entries;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const auto lo = static_cast<TimePoint>(rng.below(10'000));
    const auto len = static_cast<TimePoint>(rng.below(500));
    entries.push_back({lo, lo + len, i});
  }
  Tree tree(entries);
  EXPECT_EQ(tree.size(), static_cast<std::size_t>(n));

  for (int q = 0; q < 100; ++q) {
    const auto lo = static_cast<TimePoint>(rng.below(10'500));
    const auto hi = lo + static_cast<TimePoint>(rng.below(300));

    std::vector<int> expected_contain;
    for (const auto& e : entries) {
      if (e.lo <= lo && e.hi >= hi) expected_contain.push_back(e.value);
    }
    std::sort(expected_contain.begin(), expected_contain.end());

    std::vector<int> got_contain;
    for (const auto* e : tree.containing(lo, hi)) got_contain.push_back(e->value);
    std::sort(got_contain.begin(), got_contain.end());

    EXPECT_EQ(got_contain, expected_contain) << "containing query [" << lo << "," << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalTreeRandomized,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(IntervalTree, DegenerateAllIdenticalIntervals) {
  std::vector<Tree::Entry> entries;
  for (int i = 0; i < 50; ++i) entries.push_back({100, 200, i});
  Tree t(std::move(entries));
  EXPECT_EQ(t.containing(150, 160).size(), 50u);
  EXPECT_TRUE(t.containing(50, 60).empty());
}

TEST(IntervalTree, PointIntervals) {
  auto t = make_tree({{5, 5, 1}, {7, 7, 2}});
  EXPECT_EQ(t.containing(5, 5).size(), 1u);
  EXPECT_TRUE(t.containing(5, 7).empty());
}

}  // namespace
}  // namespace xsp::trace
