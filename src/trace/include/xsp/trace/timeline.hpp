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
// Storage: nodes live in one flat vector ordered by (begin, id), with a
// flat open-addressed side index from span id to vector position. Assembly
// copies each span once, straight into its final node: it sorts 24-byte
// (begin, id, source) keys rather than nodes, correlates async halves by
// sorting small (correlation id, arrival, span) records, and builds an
// interval tree only for the levels some node's parent search uses. A
// trace of n spans costs O(n log n) work and a bounded number of heap
// allocations: a constant number of arrays plus one children list per
// parent node — none per span (src/trace/README.md, "Assembly").
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "xsp/trace/span.hpp"

namespace xsp::trace {

/// One node in the assembled hierarchy.
struct TimelineNode {
  Span span;  ///< merged view; for async events: execution timing + metrics
  SpanId parent = kNoSpan;
  std::vector<SpanId> children;  ///< ordered by begin time
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
  /// Assemble a hierarchy from the raw spans of one run, in the publication
  /// batches TraceServer::take_batches() hands off. Spans are copied out
  /// (they are trivially copyable), so the caller keeps the batch buffers
  /// and can hand them back via TraceServer::recycle().
  static Timeline assemble(const SpanBatches& batches, const AssembleOptions& options = {});

  /// Convenience overload for a flat span vector (wrapped as one batch).
  static Timeline assemble(std::vector<Span> spans, const AssembleOptions& options = {}) {
    SpanBatches batches;
    batches.push_back(std::move(spans));
    return assemble(std::move(batches), options);
  }

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] bool empty() const noexcept { return nodes_.empty(); }

  /// Spans with no parent (normally the single model-prediction span plus
  /// any uncorrelated stragglers), ordered by begin time.
  [[nodiscard]] const std::vector<SpanId>& roots() const noexcept { return roots_; }

  /// Node lookup; throws std::out_of_range on an unknown id.
  [[nodiscard]] const TimelineNode& node(SpanId id) const {
    const std::uint32_t pos = position(id);
    if (pos == kAbsent) throw std::out_of_range("Timeline::node: unknown span id");
    return nodes_[pos];
  }
  [[nodiscard]] bool contains(SpanId id) const { return position(id) != kAbsent; }

  /// All node ids at a stack level, ordered by begin time.
  [[nodiscard]] std::vector<SpanId> at_level(int level) const;

  /// Children of `id` ordered by begin time (empty for a leaf).
  [[nodiscard]] const std::vector<SpanId>& children(SpanId id) const {
    return node(id).children;
  }

  /// First node (in begin-time order) whose span name equals `name`.
  [[nodiscard]] std::optional<SpanId> find_by_name(StrId name) const;

  /// Depth-first pre-order walk over the whole hierarchy.
  void walk(const std::function<void(const TimelineNode&, int depth)>& fn) const;

  /// Number of spans whose parent could not be determined unambiguously.
  /// Non-zero means a serialized re-run is required for exact correlation.
  [[nodiscard]] std::size_t ambiguous_count() const noexcept { return ambiguous_; }

  /// Number of launch/execution pairs that were merged during assembly.
  [[nodiscard]] std::size_t correlated_async_count() const noexcept { return correlated_async_; }

  /// Launch spans with no matching execution span (or vice versa), and
  /// every launch or execution span beyond the first of its kind for one
  /// correlation id, are kept as regular nodes; this counts them.
  [[nodiscard]] std::size_t unmatched_async_count() const noexcept { return unmatched_async_; }

 private:
  void walk_from(SpanId id, int depth,
                 const std::function<void(const TimelineNode&, int depth)>& fn) const;

  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  /// One slot of the id index; `pos == kAbsent` marks an empty slot.
  struct IndexSlot {
    SpanId id = kNoSpan;
    std::uint32_t pos = kAbsent;
  };

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

  /// Ordered by (span.begin, span.id); `index_` maps span id -> position,
  /// linear probing over a table of prime size at most half full. A
  /// duplicated id resolves to its first node.
  std::vector<TimelineNode> nodes_;
  std::vector<IndexSlot> index_;
  std::vector<SpanId> roots_;
  std::size_t ambiguous_ = 0;
  std::size_t correlated_async_ = 0;
  std::size_t unmatched_async_ = 0;
};

}  // namespace xsp::trace
