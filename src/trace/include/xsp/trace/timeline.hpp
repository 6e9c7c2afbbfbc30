// Timeline: the assembled hierarchical trace of one evaluation.
//
// Assembly performs the two correlation steps of the paper's design:
//   1. join kLaunch/kExecution span pairs by correlation_id into one
//      logical async event (timing/metrics from the execution span, parent
//      derived from the launch span — Section III-B), and
//   2. reconstruct missing parent references by interval set inclusion via
//      an interval tree (Section III-A): span s1 is the parent of s2 iff
//      s1's interval contains s2's and s1 is exactly one level higher.
//
// When several candidate parents contain a span (parallel events), the
// parent is ambiguous; XSP then "requires another profiling run where the
// parallel events are serialized" — assembly records the ambiguity count so
// the caller knows a serialized re-run is needed.
//
// Storage: the timeline owns the publication batches it was assembled
// from and never copies a span. A pair's launch half is merged into its
// execution span in place, inside the owned batch. Each node is 32 bytes
// — a pointer to its span, the launch window, the parent's node position
// and flags — in one flat vector ordered by (begin, id), with a flat
// open-addressed side index from span id to position. Children are node
// positions in one flat array with per-node offsets (CSR), filled in node
// order. walk() follows positions with an explicit stack, so a hierarchy
// of any depth walks without recursion. A trace of n spans costs
// O(n log n) work and a constant number of heap allocations, none per
// span or per parent (src/trace/README.md, "Assembly").
//
// Because nodes point into the owned batches, a Timeline is move-only;
// moving it (or the RunTrace holding it) keeps every node valid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "xsp/trace/span.hpp"

namespace xsp::trace {

/// One node in the assembled hierarchy, as node() and walk() present it:
/// a view built on the fly over the timeline's storage, valid while the
/// timeline lives.
struct TimelineNode {
  const Span& span;  ///< merged view; for async events: execution timing + metrics
  SpanId parent = kNoSpan;
  /// For async events: the CPU-side launch window (begin/end of the launch
  /// span). Zero-width for regular spans.
  TimePoint launch_begin = 0;
  TimePoint launch_end = 0;
  bool is_async = false;
  bool ambiguous_parent = false;
};

struct AssembleOptions {
  /// Parent search uses the launch span's interval for async events (the
  /// launch happens inside the parent's CPU interval, while the execution
  /// may complete after the parent returned).
  bool correlate_async = true;
  /// When true, spans with an explicit parent reference keep it even if
  /// interval containment would disagree.
  bool trust_explicit_parents = true;
};

class Timeline {
 public:
  Timeline() = default;
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;
  Timeline(Timeline&&) noexcept = default;
  Timeline& operator=(Timeline&&) noexcept = default;

  /// Assemble a hierarchy from the raw spans of one run, in the publication
  /// batches TraceServer::take_batches() hands off. The timeline keeps the
  /// batches: nodes refer to their spans in place, and each correlated
  /// launch/execution pair is merged into its execution span.
  static Timeline assemble(SpanBatches batches, const AssembleOptions& options = {});

  /// Convenience overload for tests and benches: copies `spans` into one SpanBatch.
  static Timeline assemble(const std::vector<Span>& spans, const AssembleOptions& options = {}) {
    SpanBatches batches;
    batches.emplace_back(spans.begin(), spans.end());
    return assemble(std::move(batches), options);
  }

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// Spans with no parent (normally the single model-prediction span plus
  /// any uncorrelated stragglers), ordered by begin time.
  [[nodiscard]] const std::vector<SpanId>& roots() const noexcept { return roots_; }

  /// Node lookup; throws std::out_of_range on an unknown id.
  [[nodiscard]] TimelineNode node(SpanId id) const {
    const std::uint32_t pos = position(id);
    if (pos == kAbsent) throw std::out_of_range("Timeline::node: unknown span id");
    return view(pos);
  }
  [[nodiscard]] bool contains(SpanId id) const { return position(id) != kAbsent; }

  /// All node ids at a stack level, ordered by begin time.
  [[nodiscard]] std::vector<SpanId> at_level(int level) const;

  /// Children of `id` ordered by begin time (empty for a leaf); built on
  /// demand. Throws std::out_of_range on an unknown id.
  [[nodiscard]] std::vector<SpanId> children(SpanId id) const;

  /// First node (in begin-time order) whose span name equals `name`.
  [[nodiscard]] std::optional<SpanId> find_by_name(StrId name) const;

  /// Depth-first pre-order walk over the whole hierarchy: roots in begin
  /// order, each followed by its subtree, children in begin order. Calls
  /// fn(const TimelineNode&, int depth) once per node.
  template <typename Fn>
  void walk(Fn&& fn) const {
    // Roots are the parentless nodes, in node order. Children are pushed in
    // reverse so the first pops first: pre-order, at any depth.
    struct Pending {
      std::uint32_t pos;
      int depth;
    };
    std::vector<Pending> stack;
    const auto n = static_cast<std::uint32_t>(nodes_.size());
    for (std::uint32_t root = 0; root < n; ++root) {
      if (nodes_[root].parent != kAbsent) continue;
      stack.push_back({root, 0});
      while (!stack.empty()) {
        const Pending at = stack.back();
        stack.pop_back();
        fn(view(at.pos), at.depth);
        for (std::uint32_t c = child_begin_[at.pos + 1]; c-- > child_begin_[at.pos];) {
          stack.push_back({child_pos_[c], at.depth + 1});
        }
      }
    }
  }

  /// Number of spans whose parent could not be determined unambiguously:
  /// parallel candidates of equal duration, or explicit parent references
  /// that form a cycle (the earliest node of each cycle becomes a root).
  /// Non-zero means a serialized re-run is required for exact correlation.
  [[nodiscard]] std::size_t ambiguous_count() const noexcept { return ambiguous_; }

  /// Number of launch/execution pairs that were merged during assembly.
  [[nodiscard]] std::size_t correlated_async_count() const noexcept { return correlated_async_; }

  /// Launch spans with no matching execution span (or vice versa), and
  /// every launch or execution span beyond the first of its kind for one
  /// correlation id, are kept as regular nodes; this counts them.
  [[nodiscard]] std::size_t unmatched_async_count() const noexcept { return unmatched_async_; }

 private:
  static constexpr std::uint32_t kAbsent = UINT32_MAX;
  /// Node::parent of an explicit reference not yet looked up (assembly only).
  static constexpr std::uint32_t kUnresolved = UINT32_MAX - 1;

  /// One assembled node. `parent` is a node position (kAbsent for a root).
  struct Node {
    const Span* span = nullptr;
    TimePoint launch_begin = 0;
    TimePoint launch_end = 0;
    std::uint32_t parent = kAbsent;
    bool is_async = false;
    bool ambiguous_parent = false;
  };
  static_assert(sizeof(Node) == 32);

  /// One slot of the id index; `pos == kAbsent` marks an empty slot.
  struct IndexSlot {
    SpanId id = kNoSpan;
    std::uint32_t pos = kAbsent;
  };

  [[nodiscard]] TimelineNode view(std::uint32_t pos) const {
    const Node& n = nodes_[pos];
    return {*n.span, n.parent == kAbsent ? kNoSpan : nodes_[n.parent].span->id,
            n.launch_begin, n.launch_end, n.is_async, n.ambiguous_parent};
  }

  /// The index slot holding `id`, or the empty slot where it would go.
  /// Probing starts at the id modulo the (prime) table size, so ids issued
  /// in sequence — as tracers issue them — land in neighbouring slots and
  /// a walk in id order reads the index in order.
  [[nodiscard]] std::size_t find_slot(SpanId id) const noexcept {
    const auto size = static_cast<std::uint32_t>(index_.size());
    std::size_t i = static_cast<std::uint32_t>(id ^ (id >> 32)) % size;
    while (index_[i].pos != kAbsent && index_[i].id != id) i = i + 1 == size ? 0 : i + 1;
    return i;
  }

  /// Position of `id` in nodes_, or kAbsent.
  [[nodiscard]] std::uint32_t position(SpanId id) const noexcept {
    return index_.empty() ? kAbsent : index_[find_slot(id)].pos;
  }

  /// The spans every node points into; never resized after assembly.
  SpanBatches batches_;
  /// Ordered by (span.begin, span.id); `index_` maps span id -> position,
  /// linear probing over a table of prime size at most half full. A
  /// duplicated id resolves to its first node.
  std::vector<Node> nodes_;
  std::vector<IndexSlot> index_;
  /// CSR children: node i's children are child_pos_[child_begin_[i],
  /// child_begin_[i + 1]), in node (begin-time) order.
  std::vector<std::uint32_t> child_begin_;
  std::vector<std::uint32_t> child_pos_;
  std::vector<SpanId> roots_;
  std::size_t ambiguous_ = 0;
  std::size_t correlated_async_ = 0;
  std::size_t unmatched_async_ = 0;
};

}  // namespace xsp::trace
