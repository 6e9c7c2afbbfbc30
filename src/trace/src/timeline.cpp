#include "xsp/trace/timeline.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace xsp::trace {

namespace {

/// An async span waiting for its other half. Sorting by (correlation id,
/// arrival) puts each id's spans together in publication order, so the
/// first launch and the first execution of an id form its pair.
struct AsyncRecord {
  std::uint64_t correlation_id;
  std::uint64_t arrival;
  Span* span;
};

/// What one node is built from: a span, plus the launch half when the
/// node is a correlated launch/execution pair.
struct Source {
  Span* span;
  const Span* launch;
};

/// Sort key of one node. Nodes are ordered by (begin, id); `source` (an
/// index into the sources) makes the order total even for duplicated ids.
struct NodeKey {
  TimePoint begin;
  SpanId id;
  std::uint32_t source;
};
static_assert(sizeof(NodeKey) == 24);

/// A node's pending parent search: the window a parent must contain.
/// Searches are kept per level searched.
struct Search {
  TimePoint lo;
  TimePoint hi;
  std::uint32_t node;
};

/// A candidate parent: a node's interval and its position.
struct Entry {
  TimePoint lo;
  TimePoint hi;
  std::uint32_t value;
};

/// What a parent search found: no containing interval.
constexpr std::uint32_t kNoParent = UINT32_MAX;

/// Merge the launch half of a correlated pair into its execution span, in
/// place: the launch's parent (if the execution lacks one) and the
/// annotations the execution side lacks. The launch's CPU window goes to
/// the node, which uses it for interval-containment parent search.
void merge_launch(Span& span, const Span& launch) {
  if (span.parent == kNoSpan) span.parent = launch.parent;
  for (const auto& e : launch.tags) {
    if (span.tags.count(e.key) == 0 && !span.tags.set(e.key, e.value)) span.note_dropped();
  }
  for (const auto& e : launch.metrics) {
    if (span.metrics.count(e.key) == 0 && !span.metrics.set(e.key, e.value)) {
      span.note_dropped();
    }
  }
  for (const auto& e : launch.inline_tags) {
    if (span.inline_tags.count(e.key) == 0 && !span.inline_tags.set(e.key, e.value())) {
      span.note_dropped();
    }
  }
  span.note_dropped(launch.dropped_annotations);
}

/// Sort `v` by `less`, a strict total order. A natural merge sort: it
/// finds the ascending runs already present, then merges neighbouring
/// runs pass by pass, so an input made of r sorted runs costs O(n log r).
/// That is the shape assembly sees — each tracer publishes its spans in
/// time order and correlation ids are issued in launch order — where an
/// introsort's median-of-three pivots degrade towards its heapsort
/// fallback. Random input costs O(n log n), like any merge sort.
/// Scratch is sized up front, so a sort allocates the same few arrays
/// whatever the number of runs.
template <typename T, typename Less>
void sort_runs(std::vector<T>& v, Less less) {
  std::size_t runs = 1;
  for (std::size_t i = 1; i < v.size(); ++i) runs += less(v[i], v[i - 1]) ? 1 : 0;
  if (runs == 1) return;
  std::vector<std::size_t> bounds;
  bounds.reserve(runs + 1);
  bounds.push_back(0);
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (less(v[i], v[i - 1])) bounds.push_back(i);
  }
  bounds.push_back(v.size());
  std::vector<T> out(v.size());
  std::vector<std::size_t> merged;
  merged.reserve(runs / 2 + 2);
  while (bounds.size() > 2) {
    merged.assign(1, 0);
    for (std::size_t r = 0; r + 1 < bounds.size(); r += 2) {
      const auto first = v.begin() + static_cast<std::ptrdiff_t>(bounds[r]);
      const auto mid = v.begin() + static_cast<std::ptrdiff_t>(bounds[r + 1]);
      const std::size_t end = r + 2 < bounds.size() ? bounds[r + 2] : bounds[r + 1];
      std::merge(first, mid, mid, v.begin() + static_cast<std::ptrdiff_t>(end),
                 out.begin() + static_cast<std::ptrdiff_t>(bounds[r]), less);
      merged.push_back(end);
    }
    v.swap(out);
    bounds.swap(merged);
  }
}

/// Smallest prime >= n (n >= 2), by trial division: a few thousand
/// divisions for a million-node timeline, against a second of assembly.
std::size_t prime_at_least(std::size_t n) {
  for (;; ++n) {
    bool prime = true;
    for (std::size_t d = 2; d * d <= n && prime; ++d) prime = n % d != 0;
    if (prime) return n;
  }
}

/// A set of stack levels, ascending (a handful: the paper has at most
/// five), with a node count per level.
class Levels {
 public:
  static constexpr std::size_t kNone = SIZE_MAX;

  /// Count one node at `level`. Spans of one level arrive in long
  /// stretches, so a node costs a compare and an increment: the set itself
  /// changes only when the level does, and at close().
  void add(int level) {
    if (level != run_level_) {
      close();
      run_level_ = level;
    }
    ++run_;
  }

  /// Add the stretch counted last to the set; call once counting ends.
  void close() {
    if (run_ == 0) return;
    const auto it = std::lower_bound(levels_.begin(), levels_.end(), run_level_);
    const auto i = static_cast<std::size_t>(it - levels_.begin());
    if (it == levels_.end() || *it != run_level_) {
      levels_.insert(it, run_level_);
      counts_.insert(counts_.begin() + static_cast<std::ptrdiff_t>(i), 0);
    }
    counts_[i] += run_;
    run_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return levels_.size(); }
  [[nodiscard]] int level(std::size_t index) const noexcept { return levels_[index]; }
  [[nodiscard]] std::size_t count(std::size_t index) const noexcept { return counts_[index]; }

  /// Index of a level in the set.
  [[nodiscard]] std::size_t index_of(int level) const noexcept {
    return static_cast<std::size_t>(std::lower_bound(levels_.begin(), levels_.end(), level) -
                                    levels_.begin());
  }

  /// Index of the level a node at `level` searches for its parent: the
  /// nearest level below it in the set. Levels with no tracer attached are
  /// skipped (e.g. kernels parent directly onto layers when no ML-library
  /// tracer ran — Section III-E extensibility); nothing searches below the
  /// application level.
  [[nodiscard]] std::size_t parent_of(int level) const noexcept {
    const std::size_t i = index_of(level);
    if (i == 0 || levels_[i - 1] < kApplicationLevel) return kNone;
    return i - 1;
  }

 private:
  std::vector<int> levels_;
  std::vector<std::size_t> counts_;
  int run_level_ = 0;    ///< level of the stretch being counted
  std::size_t run_ = 0;  ///< nodes counted in that stretch
};

/// Steps 1-2 of assembly: what each node is built from, in node order.
struct NodePlan {
  std::vector<Source> sources;  ///< what each node is built from
  std::vector<NodeKey> keys;    ///< one per node, in final node order
  Levels levels;                ///< every level holding a node
  Levels searching;             ///< levels holding a node that searches
  std::size_t correlated = 0;
  std::size_t unmatched = 0;
};

NodePlan plan_nodes(SpanBatches& batches) {
  std::size_t span_count = 0;
  for (const auto& batch : batches) span_count += batch.size();

  NodePlan plan;
  plan.sources.reserve(span_count);
  plan.keys.reserve(span_count);
  const auto add_source = [&](Span* span, const Span* launch) {
    plan.keys.push_back({span->begin, span->id, static_cast<std::uint32_t>(plan.sources.size())});
    plan.sources.push_back({span, launch});
    plan.levels.add(span->level);
    const bool has_parent =
        span->parent != kNoSpan || (launch != nullptr && launch->parent != kNoSpan);
    if (!has_parent) plan.searching.add(span->level);
  };

  // --- Step 1: correlate launch/execution pairs. -------------------------
  // Regular spans become node sources directly. Async spans are sorted by
  // correlation id; the first launch and first execution of an id merge
  // into one node carrying the execution span's timing and metrics plus
  // the launch window. Every other async span — the halves of an
  // incomplete pair, and any launch or execution beyond the first of its
  // kind for an id — degrades to a regular node (counted).
  std::vector<AsyncRecord> async;
  async.reserve(span_count);
  for (auto& batch : batches) {
    for (auto& s : batch) {
      if (s.kind != SpanKind::kRegular && s.correlation_id != 0) {
        async.push_back({s.correlation_id, async.size(), &s});
      } else {
        add_source(&s, nullptr);
      }
    }
  }
  sort_runs(async, [](const AsyncRecord& a, const AsyncRecord& b) {
    if (a.correlation_id != b.correlation_id) return a.correlation_id < b.correlation_id;
    return a.arrival < b.arrival;
  });
  for (std::size_t first = 0; first < async.size();) {
    std::size_t last = first;
    Span* launch = nullptr;
    Span* exec = nullptr;
    for (; last < async.size() && async[last].correlation_id == async[first].correlation_id;
         ++last) {
      Span* s = async[last].span;
      if (s->kind == SpanKind::kLaunch && launch == nullptr) {
        launch = s;
      } else if (s->kind == SpanKind::kExecution && exec == nullptr) {
        exec = s;
      } else {
        add_source(s, nullptr);
        ++plan.unmatched;
      }
    }
    if (launch != nullptr && exec != nullptr) {
      add_source(exec, launch);
      ++plan.correlated;
    } else {
      add_source(launch != nullptr ? launch : exec, nullptr);
      ++plan.unmatched;
    }
    first = last;
  }
  plan.levels.close();
  plan.searching.close();

  // --- Step 2: order the nodes. -------------------------------------------
  // Deterministic order regardless of publication order (async publication
  // may interleave arbitrarily): by begin time, then id.
  sort_runs(plan.keys, [](const NodeKey& a, const NodeKey& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    if (a.id != b.id) return a.id < b.id;
    return a.source < b.source;
  });
  return plan;
}

/// The smallest intervals over a range of ends: their duration, the
/// first position among them, and how many there are.
struct Smallest {
  std::uint64_t duration = UINT64_MAX;
  std::uint32_t position = kNoParent;
  std::uint32_t count = 0;
};

Smallest smaller(Smallest a, const Smallest& b) {
  if (b.duration < a.duration) return b;
  if (b.duration == a.duration) {
    a.position = std::min(a.position, b.position);
    a.count += b.count;
  }
  return a;
}

/// Resolve the searches of one level by one offline sweep. Calls
/// found(search, parent position or kNoParent, ambiguous) per search.
///
/// Entries arrive in lo order; searches are sorted into (lo, node) order,
/// which costs O(n) on their nearly sorted input. Before a search, every
/// entry with lo <= the search's lo enters a Fenwick tree over the level's
/// distinct ends that answers suffix queries: node i combines the ranks
/// [i, i + lowbit(i)). The search asks for the ends >= max(lo, hi), so
/// each interval it sees contains both its window and the point lo (the
/// rule for an inverted window), and it gets the smallest one. A tie on
/// duration means parallel events (identical intervals included), and the
/// earliest tied entry in node order stands as the parent.
template <typename Found>
void fenwick_parents(const std::vector<Entry>& entries, std::vector<Search>& searches,
                     Found&& found) {
  sort_runs(searches, [](const Search& a, const Search& b) {
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.node < b.node;
  });
  std::vector<TimePoint> ends;
  ends.reserve(entries.size());
  for (const Entry& e : entries) ends.push_back(e.hi);
  sort_runs(ends, std::less<>());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  std::vector<Smallest> tree(ends.size() + 1);
  // 1-based rank of the first end >= x. Successive calls on one `at` ask
  // for nearby ends, so the search gallops out from the last answer: it
  // costs O(log d) for an answer d ends away, and stays in cache.
  const auto rank = [&](TimePoint x, std::size_t& at) {
    std::size_t lo = 0, hi = ends.size(), step = 1;  // the answer lies in [lo, hi]
    if (at < hi && ends[at] < x) {
      for (lo = at + 1; at + step < hi && ends[at + step] < x; step *= 2) lo = at + step + 1;
      hi = std::min(hi, at + step);
    } else {
      for (hi = at; step <= at && ends[at - step] >= x; step *= 2) hi = at - step;
      lo = step <= at ? at - step + 1 : 0;
    }
    at = static_cast<std::size_t>(
        std::lower_bound(ends.begin() + static_cast<std::ptrdiff_t>(lo),
                         ends.begin() + static_cast<std::ptrdiff_t>(hi), x) -
        ends.begin());
    return at + 1;
  };
  std::size_t next = 0, entry_at = 0, search_at = 0;
  for (const Search& q : searches) {
    for (; next < entries.size() && entries[next].lo <= q.lo; ++next) {
      const Entry& e = entries[next];
      if (e.hi < e.lo) continue;  // contains no point
      const Smallest s{static_cast<std::uint64_t>(e.hi) - static_cast<std::uint64_t>(e.lo),
                       e.value, 1};
      for (std::size_t i = rank(e.hi, entry_at); i > 0; i -= i & -i) tree[i] = smaller(tree[i], s);
    }
    Smallest best;
    for (std::size_t i = rank(std::max(q.lo, q.hi), search_at); i < tree.size(); i += i & -i) {
      best = smaller(best, tree[i]);
    }
    found(q, best.position, best.count > 1);
  }
}

}  // namespace

Timeline Timeline::assemble(SpanBatches batches) {
  static_assert(kNoParent == kAbsent);
  Timeline tl;
  tl.batches_ = std::move(batches);
  Levels levels;
  // Per level some node searches: the level's nodes as candidate parents,
  // and the searches aimed at it. A level no node searches (in a leveled
  // run: the kernel level, and the model level once layers carry explicit
  // parents) collects neither.
  std::vector<std::vector<Entry>> entries;
  std::vector<std::vector<Search>> searches;
  std::vector<bool> searched;

  {  // The plan (keys, sources) is scratch: freed once the nodes exist.
    NodePlan plan = plan_nodes(tl.batches_);
    levels = std::move(plan.levels);
    tl.correlated_async_ = plan.correlated;
    tl.unmatched_async_ = plan.unmatched;
    entries.resize(levels.size());
    searches.resize(levels.size());
    searched.assign(levels.size(), false);
    for (std::size_t i = 0; i < plan.searching.size(); ++i) {
      const std::size_t target = levels.parent_of(plan.searching.level(i));
      if (target == Levels::kNone) continue;
      searched[target] = true;
      entries[target].reserve(levels.count(target));
      searches[target].reserve(plan.searching.count(i));
    }

    // --- Step 3: lay out the nodes in final order. ------------------------
    // A node points at its span where the batch holds it; a pair's launch
    // half is merged into its execution span there. Alongside: the id
    // index, the candidate-parent entries (whose payload is the node
    // position), and each node's parent source, read while the span is at
    // hand. An explicit parent resolves now when the index already holds
    // it: the index keeps each id's first node, so the whole index would
    // give the same answer. Otherwise it waits for step 4, as do parent
    // searches.
    const std::size_t n = plan.keys.size();
    tl.nodes_.resize(n);
    tl.index_.assign(prime_at_least(2 * n + 2), IndexSlot{});
    for (std::uint32_t i = 0; i < n; ++i) {
      const Source& src = plan.sources[plan.keys[i].source];
      Node& node = tl.nodes_[i];
      node.span = src.span;
      if (src.launch != nullptr) {
        merge_launch(*src.span, *src.launch);
        node.launch_begin = src.launch->begin;
        node.launch_end = src.launch->end;
        node.is_async = true;
      }
      const Span& s = *src.span;

      IndexSlot& slot = tl.index_[tl.find_slot(s.id)];
      if (slot.pos == kAbsent) slot = {s.id, i};

      // Nodes come in (begin, id, source) order, so each level's entries
      // are pushed already in lo order, as fenwick_parents needs.
      const std::size_t l = levels.index_of(s.level);
      if (searched[l]) entries[l].push_back({s.begin, s.end, i});

      if (s.parent != kNoSpan) {
        node.parent = tl.position(s.parent);
        if (node.parent == kAbsent) node.parent = kUnresolved;
      } else if (const std::size_t target = levels.parent_of(s.level);
                 target != Levels::kNone) {
        // Async events search with their CPU-side launch window: the
        // launch call happens inside the parent layer's interval even when
        // the device-side execution outlives the layer (Section III-B).
        searches[target].push_back({node.is_async ? node.launch_begin : s.begin,
                                    node.is_async ? node.launch_end : s.end, i});
      }
    }
  }
  const auto n = static_cast<std::uint32_t>(tl.nodes_.size());

  // --- Step 4: resolve parents. -------------------------------------------
  // A node's parent is a position, or kAbsent for a root (no parent, or an
  // explicit parent that is not in the trace). For a search, the smallest
  // enclosing interval is the immediate parent; a tie between distinct
  // enclosing intervals means parallel events, and the earliest of them in
  // node order stands as the parent. Each searched level resolves by
  // fenwick_parents.
  for (std::size_t l = 0; l < levels.size(); ++l) {
    if (!searched[l]) continue;
    fenwick_parents(entries[l], searches[l],
                    [&](const Search& q, std::uint32_t parent, bool ambiguous_parent) {
                      Node& node = tl.nodes_[q.node];
                      node.parent = parent;
                      node.ambiguous_parent = ambiguous_parent;
                      if (ambiguous_parent) ++tl.ambiguous_;
                    });
  }
  // Explicit parents later in node order resolve against the whole index.
  // Only an edge to the same or a later position can close a cycle.
  bool later_parent = false;
  for (std::uint32_t i = 0; i < n; ++i) {
    Node& node = tl.nodes_[i];
    if (node.parent == kUnresolved) node.parent = tl.position(node.span->parent);
    later_parent = later_parent || (node.parent != kAbsent && node.parent >= i);
  }

  // --- Step 5: break explicit-parent cycles. ------------------------------
  // A node whose parent chain never reaches a root sits on (or hangs off)
  // a cycle of explicit references, and no walk from a root would reach
  // it. The earliest node of each cycle becomes a root whose parent could
  // not be determined. Each chain is followed once: `state` marks nodes
  // on the chain being followed (1) and nodes known to reach a root (2).
  if (later_parent) {
    std::vector<std::uint8_t> state(n, 0);
    std::vector<std::uint32_t> chain;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint32_t at = i;
      while (at != kAbsent && state[at] == 0) {
        state[at] = 1;
        chain.push_back(at);
        at = tl.nodes_[at].parent;
      }
      if (at != kAbsent && state[at] == 1) {
        const auto cycle = std::find(chain.begin(), chain.end(), at);
        Node& earliest = tl.nodes_[*std::min_element(cycle, chain.end())];
        earliest.parent = kAbsent;
        earliest.ambiguous_parent = true;
        ++tl.ambiguous_;
      }
      for (const std::uint32_t c : chain) state[c] = 2;
      chain.clear();
    }
  }

  // --- Step 6: materialize the hierarchy. ---------------------------------
  // Children as CSR: count per parent, prefix-sum into offsets, then fill
  // in node order, which keeps every child range and the roots in begin
  // order. The fill advances child_begin_[p] from p's start to its end,
  // which is p + 1's start; shifting by one slot restores the starts.
  tl.child_begin_.assign(std::size_t{n} + 1, 0);
  std::size_t root_count = 0;
  for (const Node& node : tl.nodes_) {
    if (node.parent == kAbsent) {
      ++root_count;
    } else {
      ++tl.child_begin_[node.parent + 1];
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) tl.child_begin_[i + 1] += tl.child_begin_[i];
  tl.child_pos_.resize(n - root_count);
  tl.roots_.reserve(root_count);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Node& node = tl.nodes_[i];
    if (node.parent == kAbsent) {
      tl.roots_.push_back(node.span->id);
    } else {
      tl.child_pos_[tl.child_begin_[node.parent]++] = i;
    }
  }
  std::copy_backward(tl.child_begin_.begin(), tl.child_begin_.end() - 1, tl.child_begin_.end());
  tl.child_begin_[0] = 0;
  return tl;
}

std::vector<SpanId> Timeline::at_level(int level) const {
  // nodes_ is ordered by (begin, id) already.
  std::vector<SpanId> out;
  for (const auto& n : nodes_) {
    if (n.span->level == level) out.push_back(n.span->id);
  }
  return out;
}

std::vector<SpanId> Timeline::children(SpanId id) const {
  const std::uint32_t pos = position(id);
  if (pos == kAbsent) throw std::out_of_range("Timeline::children: unknown span id");
  std::vector<SpanId> out;
  out.reserve(child_begin_[pos + 1] - child_begin_[pos]);
  for (std::uint32_t c = child_begin_[pos]; c < child_begin_[pos + 1]; ++c) {
    out.push_back(nodes_[child_pos_[c]].span->id);
  }
  return out;
}

std::optional<SpanId> Timeline::find_by_name(StrId name) const {
  for (const auto& n : nodes_) {
    if (n.span->name == name) return n.span->id;
  }
  return std::nullopt;
}

}  // namespace xsp::trace
