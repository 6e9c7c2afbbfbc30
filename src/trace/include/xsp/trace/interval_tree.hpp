// Centered interval tree: the general structure for reconstructing span
// parent-child links.
//
// "XSP's profile analysis builds an interval tree and populates it with
//  intervals corresponding to the spans' start/end timestamps. Using the
//  interval tree, XSP reconstructs the parent-child relationship by checking
//  for interval set inclusion."                          — paper, Section III-A
//
// Timeline assembly resolves a level whose intervals are laminar (every two
// nested or disjoint, as layers on one executor thread are) by one sorted
// sweep instead, and builds this tree only for a level that is not: parallel
// events whose intervals partially overlap (src/trace/README.md, "Assembly").
//
// The tree is built once from a fixed set of intervals (spans of one trace)
// and then queried many times, so a static centered interval tree is the
// right structure: O(n log n) build, O(log n + k) stabbing query.
//
// Layout: the tree is flat. Nodes live in one array in build (pre-)order,
// the root first, and link to their children by int32 index (-1 = none).
// Every interval is stored at exactly one node — the first whose center it
// crosses — so the crossing sets of all nodes partition the input: they sit
// in two contiguous entry arrays, `by_lo_` (each node's slice ascending by
// lo) and `by_hi_` (the same slice descending by hi), and a node names its
// slice by offset and count. A build performs a constant number of
// allocations whatever the input size, and a query none.
// An inverted interval (hi < lo) contains no point: the build drops it,
// so it is never anyone's parent.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "xsp/common/time.hpp"

namespace xsp::trace {

/// Static interval tree over closed intervals [lo, hi] with a payload.
template <typename T>
class IntervalTree {
 public:
  struct Entry {
    TimePoint lo = 0;
    TimePoint hi = 0;
    T value{};
  };

  IntervalTree() = default;

  explicit IntervalTree(std::vector<Entry> entries) {
    std::erase_if(entries, [](const Entry& e) { return e.hi < e.lo; });  // build() would loop
    if (entries.empty()) return;
    const std::size_t n = entries.size();
    nodes_.reserve(n);  // every node holds at least its center's interval
    by_lo_.reserve(n);
    by_hi_.reserve(n);
    std::vector<TimePoint> points(2 * n);
    std::vector<Entry> rights(n);
    build(entries.data(), n, points, rights);
  }

  [[nodiscard]] std::size_t size() const noexcept { return by_lo_.size(); }
  [[nodiscard]] bool empty() const noexcept { return by_lo_.empty(); }

  /// Invoke `fn(const Entry&)` for every interval containing point `p`.
  template <typename Fn>
  void visit_stabbing(TimePoint p, Fn&& fn) const {
    std::int32_t i = nodes_.empty() ? -1 : 0;
    while (i >= 0) {
      const Node& node = nodes_[static_cast<std::size_t>(i)];
      const Entry* lo_first = by_lo_.data() + node.first;
      if (p < node.center) {
        // Only intervals with lo <= p can contain p; by_lo is sorted asc.
        for (const Entry* e = lo_first; e != lo_first + node.count && e->lo <= p; ++e) fn(*e);
        i = node.left;
      } else if (p > node.center) {
        // Only intervals with hi >= p can contain p; by_hi is sorted desc.
        const Entry* hi_first = by_hi_.data() + node.first;
        for (const Entry* e = hi_first; e != hi_first + node.count && e->hi >= p; ++e) fn(*e);
        i = node.right;
      } else {
        for (const Entry* e = lo_first; e != lo_first + node.count; ++e) fn(*e);  // all cross
        return;
      }
    }
  }

  /// All entries whose interval fully contains [lo, hi].
  [[nodiscard]] std::vector<const Entry*> containing(TimePoint lo, TimePoint hi) const {
    std::vector<const Entry*> out;
    visit_stabbing(lo, [&](const Entry& e) {
      if (e.lo <= lo && e.hi >= hi) out.push_back(&e);
    });
    return out;
  }

 private:
  struct Node {
    TimePoint center = 0;
    std::uint32_t first = 0;  ///< slice start in by_lo_ and by_hi_
    std::uint32_t count = 0;  ///< intervals crossing `center`
    std::int32_t left = -1;   ///< intervals entirely left of center
    std::int32_t right = -1;  ///< intervals entirely right of center
  };

  /// Build the subtree over `entries[0, n)` and return its node index.
  /// Reorders the range in place (lefts first, then rights), keeping each
  /// side in input order; `points` and `rights` are scratch of >= 2n / n.
  std::int32_t build(Entry* entries, std::size_t n, std::vector<TimePoint>& points,
                     std::vector<Entry>& rights) {
    if (n == 0) return -1;
    // Median of endpoints keeps the tree balanced for adversarial inputs:
    // each side holds at most half the intervals, so depth <= log2(n).
    for (std::size_t i = 0; i < n; ++i) {
      points[2 * i] = entries[i].lo;
      points[2 * i + 1] = entries[i].hi;
    }
    const auto mid = points.begin() + static_cast<std::ptrdiff_t>(n);
    std::nth_element(points.begin(), mid, points.begin() + static_cast<std::ptrdiff_t>(2 * n));
    const TimePoint center = *mid;

    const auto index = static_cast<std::int32_t>(nodes_.size());
    const auto first = static_cast<std::uint32_t>(by_lo_.size());
    std::size_t lefts = 0;
    std::size_t right_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Entry& e = entries[i];
      if (e.hi < center) {
        entries[lefts++] = e;
      } else if (e.lo > center) {
        rights[right_count++] = e;
      } else {
        by_lo_.push_back(e);
        by_hi_.push_back(e);
      }
    }
    std::copy_n(rights.begin(), right_count, entries + lefts);
    const auto count = static_cast<std::uint32_t>(by_lo_.size() - first);
    std::sort(by_lo_.begin() + first, by_lo_.end(),
              [](const Entry& a, const Entry& b) { return a.lo < b.lo; });
    std::sort(by_hi_.begin() + first, by_hi_.end(),
              [](const Entry& a, const Entry& b) { return a.hi > b.hi; });
    nodes_.push_back({center, first, count, -1, -1});

    const std::int32_t left = build(entries, lefts, points, rights);
    const std::int32_t right = build(entries + lefts, right_count, points, rights);
    nodes_[static_cast<std::size_t>(index)].left = left;
    nodes_[static_cast<std::size_t>(index)].right = right;
    return index;
  }

  std::vector<Node> nodes_;
  std::vector<Entry> by_lo_;
  std::vector<Entry> by_hi_;
};

}  // namespace xsp::trace
