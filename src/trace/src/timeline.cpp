#include "xsp/trace/timeline.hpp"

#include <algorithm>
#include <utility>

#include "xsp/trace/interval_tree.hpp"

namespace xsp::trace {

namespace {

/// An async span waiting for its other half. Sorting by (correlation id,
/// arrival) puts each id's spans together in publication order, so the
/// first launch and the first execution of an id form its pair.
struct AsyncRecord {
  std::uint64_t correlation_id;
  std::uint64_t arrival;
  const Span* span;
};

/// What one node is built from: a span, plus the launch half when the
/// node is a correlated launch/execution pair.
struct Source {
  const Span* span;
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

/// Merge the launch half of a correlated pair into the node that holds
/// its execution span: parent, CPU window, and the annotations the
/// execution side lacks.
void merge_launch(TimelineNode& into, const Span& launch) {
  Span& span = into.span;
  // The launch span carries the explicit parent (if any) and the CPU
  // window used for interval-containment parent search.
  if (span.parent == kNoSpan) span.parent = launch.parent;
  into.launch_begin = launch.begin;
  into.launch_end = launch.end;
  into.is_async = true;
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
template <typename T, typename Less>
void sort_runs(std::vector<T>& v, Less less) {
  std::vector<std::size_t> bounds{0};
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (less(v[i], v[i - 1])) bounds.push_back(i);
  }
  bounds.push_back(v.size());
  if (bounds.size() <= 2) return;
  std::vector<T> out(v.size());
  std::vector<std::size_t> merged;
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

  void add(int level) {
    const auto it = std::lower_bound(levels_.begin(), levels_.end(), level);
    const auto i = it - levels_.begin();
    if (it == levels_.end() || *it != level) {
      levels_.insert(it, level);
      counts_.insert(counts_.begin() + i, 0);
    }
    ++counts_[static_cast<std::size_t>(i)];
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
};

/// Steps 1-2 of assembly, up to but excluding any node copy.
struct NodePlan {
  std::vector<Source> sources;  ///< what each node is built from
  std::vector<NodeKey> keys;    ///< one per node, in final node order
  Levels levels;                ///< every level holding a node
  Levels searching;             ///< levels holding a node that searches
  std::size_t correlated = 0;
  std::size_t unmatched = 0;
};

NodePlan plan_nodes(const SpanBatches& batches, const AssembleOptions& options) {
  std::size_t span_count = 0;
  for (const auto& batch : batches) span_count += batch.size();

  NodePlan plan;
  plan.sources.reserve(span_count);
  plan.keys.reserve(span_count);
  const auto add_source = [&](const Span* span, const Span* launch) {
    plan.keys.push_back({span->begin, span->id, static_cast<std::uint32_t>(plan.sources.size())});
    plan.sources.push_back({span, launch});
    plan.levels.add(span->level);
    const bool has_parent =
        span->parent != kNoSpan || (launch != nullptr && launch->parent != kNoSpan);
    if (!(options.trust_explicit_parents && has_parent)) plan.searching.add(span->level);
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
  for (const auto& batch : batches) {
    for (const auto& s : batch) {
      if (options.correlate_async && s.kind != SpanKind::kRegular && s.correlation_id != 0) {
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
    const Span* launch = nullptr;
    const Span* exec = nullptr;
    for (; last < async.size() && async[last].correlation_id == async[first].correlation_id;
         ++last) {
      const Span* s = async[last].span;
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

}  // namespace

Timeline Timeline::assemble(const SpanBatches& batches, const AssembleOptions& options) {
  using Tree = IntervalTree<std::uint32_t>;
  Timeline tl;
  Levels levels;
  // Entries of the interval tree of each level some node searches; a
  // level no node searches (in a leveled run: the kernel level, and the
  // model level once layers carry explicit parents) gets no tree.
  std::vector<std::vector<Tree::Entry>> entries;
  std::vector<bool> searched;

  {  // The plan (keys, sources) is scratch: freed once the nodes exist.
    NodePlan plan = plan_nodes(batches, options);
    levels = std::move(plan.levels);
    tl.correlated_async_ = plan.correlated;
    tl.unmatched_async_ = plan.unmatched;
    entries.resize(levels.size());
    searched.assign(levels.size(), false);
    for (std::size_t i = 0; i < plan.searching.size(); ++i) {
      const std::size_t target = levels.parent_of(plan.searching.level(i));
      if (target == Levels::kNone || searched[target]) continue;
      searched[target] = true;
      entries[target].reserve(levels.count(target));
    }

    // --- Step 3: copy each span once, into its final node. ---------------
    // Alongside: the id index, and the tree entries, whose payload is the
    // node position.
    const std::size_t n = plan.keys.size();
    tl.nodes_.reserve(n);
    tl.index_.assign(prime_at_least(2 * n + 2), IndexSlot{});
    for (std::uint32_t i = 0; i < n; ++i) {
      const Source& src = plan.sources[plan.keys[i].source];
      TimelineNode& node = tl.nodes_.emplace_back(*src.span);
      if (src.launch != nullptr) merge_launch(node, *src.launch);
      const Span& s = node.span;

      IndexSlot& slot = tl.index_[tl.find_slot(s.id)];
      if (slot.pos == kAbsent) slot = {s.id, i};

      const std::size_t l = levels.index_of(s.level);
      if (searched[l]) entries[l].push_back({s.begin, s.end, i});
    }
  }
  const std::size_t n = tl.nodes_.size();
  std::vector<Tree> trees(levels.size());
  for (std::size_t l = 0; l < levels.size(); ++l) {
    if (searched[l]) trees[l] = Tree(std::move(entries[l]));
  }

  // --- Step 4: resolve parents. -------------------------------------------
  // parent_pos[i] is the position of node i's parent, or kAbsent for a
  // root (no parent, or an explicit parent that is not in the trace).
  std::vector<std::uint32_t> parent_pos(n, kAbsent);
  std::vector<std::uint32_t> child_count(n, 0);
  std::size_t root_count = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    TimelineNode& node = tl.nodes_[i];
    if (options.trust_explicit_parents && node.span.parent != kNoSpan) {
      parent_pos[i] = tl.position(node.span.parent);
    } else if (const std::size_t target = levels.parent_of(node.span.level);
               target != Levels::kNone) {
      // Async events search with their CPU-side launch window: the launch
      // call happens inside the parent layer's interval even when the
      // device-side execution outlives the layer (Section III-B).
      const TimePoint lo = node.is_async ? node.launch_begin : node.span.begin;
      const TimePoint hi = node.is_async ? node.launch_end : node.span.end;
      // Smallest enclosing interval is the immediate parent; a tie
      // between distinct enclosing intervals means parallel events.
      std::uint32_t best = kAbsent;
      Ns best_duration = 0;
      std::size_t equal_best = 0;
      trees[target].visit_stabbing(lo, [&](const Tree::Entry& e) {
        if (e.lo > lo || e.hi < hi) return;  // must contain [lo, hi]
        const Ns duration = e.hi - e.lo;
        if (best == kAbsent || duration < best_duration) {
          best = e.value;
          best_duration = duration;
          equal_best = 1;
        } else if (duration == best_duration) {
          ++equal_best;
        }
      });
      parent_pos[i] = best;
      node.ambiguous_parent = equal_best > 1;
      if (node.ambiguous_parent) ++tl.ambiguous_;
    }
    if (parent_pos[i] == kAbsent) {
      ++root_count;
    } else {
      ++child_count[parent_pos[i]];
    }
  }

  // --- Step 5: materialize the hierarchy. ---------------------------------
  // Nodes are in begin-time order, so walking them in order keeps children
  // lists and roots deterministic; each list is allocated once, exactly.
  tl.roots_.reserve(root_count);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (child_count[i] != 0) tl.nodes_[i].children.reserve(child_count[i]);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    TimelineNode& node = tl.nodes_[i];
    if (parent_pos[i] == kAbsent) {
      node.parent = kNoSpan;
      tl.roots_.push_back(node.span.id);
    } else {
      node.parent = tl.nodes_[parent_pos[i]].span.id;
      tl.nodes_[parent_pos[i]].children.push_back(node.span.id);
    }
  }
  return tl;
}

std::vector<SpanId> Timeline::at_level(int level) const {
  // nodes_ is ordered by (begin, id) already.
  std::vector<SpanId> out;
  for (const auto& n : nodes_) {
    if (n.span.level == level) out.push_back(n.span.id);
  }
  return out;
}

std::optional<SpanId> Timeline::find_by_name(StrId name) const {
  for (const auto& n : nodes_) {
    if (n.span.name == name) return n.span.id;
  }
  return std::nullopt;
}

void Timeline::walk(const std::function<void(const TimelineNode&, int depth)>& fn) const {
  for (SpanId root : roots_) walk_from(root, 0, fn);
}

void Timeline::walk_from(SpanId id, int depth,
                         const std::function<void(const TimelineNode&, int depth)>& fn) const {
  const auto& n = node(id);
  fn(n, depth);
  for (SpanId c : n.children) walk_from(c, depth + 1, fn);
}

}  // namespace xsp::trace
