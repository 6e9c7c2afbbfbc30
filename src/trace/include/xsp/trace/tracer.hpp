// Tracer: per-profiler span factory and publisher.
//
// "Each service in a distributed application has a tracer — some code to
//  create and publish spans. ... 1. each profiler within a stack is turned
//  into a tracer, 2. the profiled events each form a span, 3. each span is
//  tagged with its stack level ... As a feature supported by distributed
//  tracing, tracers can be enabled or disabled at runtime."  — Section III-A
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "xsp/trace/span.hpp"
#include "xsp/trace/span_sink.hpp"

namespace xsp::trace {

/// One tracer per profiler (model timer, framework profiler, CUPTI, ...).
/// Multiple tracers may share a stack level (e.g. CPU and GPU tracers at
/// the hardware level).
class Tracer {
 public:
  /// `name` identifies the publishing profiler; `level` is the stack level
  /// all spans from this tracer are tagged with. The name is interned once
  /// here, so publishing stamps a 32-bit id instead of copying a string.
  /// The sink may be a TraceServer or a RemoteSink;
  /// the tracer neither knows nor cares.
  Tracer(SpanSink& server, StrId name, int level)
      : server_(&server), name_(name), level_(level) {}

  [[nodiscard]] const std::string& name() const { return name_.str(); }
  [[nodiscard]] StrId name_id() const noexcept { return name_; }
  [[nodiscard]] int level() const noexcept { return level_; }

  /// Tracers can be toggled at runtime; a disabled tracer drops all spans.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool e) noexcept { enabled_ = e; }

  /// Begin an open span at simulated time `t`. Returns kNoSpan when the
  /// tracer is disabled (finish_span on kNoSpan is a no-op, so call sites
  /// need no enabled() checks).
  SpanId start_span(StrId span_name, TimePoint t, SpanId parent = kNoSpan,
                    SpanKind kind = SpanKind::kRegular);

  /// Attach a string tag to an open span.
  void add_tag(SpanId id, StrId key, StrId value);

  /// Attach an inline value tag to an open span: the value bytes are
  /// stored in the span itself and never interned. Use this for
  /// high-cardinality values (grid/block dims, request ids) so a
  /// long-running service's StringTable stays bounded; values longer
  /// than InlineTagMap::kValueCapacity are truncated.
  void tag_inline(SpanId id, StrId key, std::string_view value);

  /// Attach a numeric metric to an open span.
  void add_metric(SpanId id, StrId key, double value);

  /// Set the correlation id of an open span (async launch/execution pairs).
  void set_correlation(SpanId id, std::uint64_t correlation_id);

  /// Close an open span at time `t` and publish it to the server.
  void finish_span(SpanId id, TimePoint t);

  /// Publish a span that was fully formed elsewhere (offline conversion of
  /// a profiler's output — Section III-A: "the conversion from the profiled
  /// events to spans can be performed ... off-line by processing the output
  /// of the profiler"). The span's id is assigned here; tracer name and
  /// level are stamped on. Returns the assigned id, or kNoSpan if disabled.
  SpanId publish_completed(Span span);

  /// Publish spans formed elsewhere in batches (a profiler's records built
  /// straight into pooled blocks): ids are assigned, and tracer name and
  /// level stamped, in batch order, exactly as publish_completed(Span)
  /// would one span at a time; each batch then goes to the sink whole.
  /// Leaves `batches` empty; a disabled tracer drops them.
  void publish_completed(SpanBatches&& batches);

  /// Number of spans currently open (started, not yet finished).
  [[nodiscard]] std::size_t open_count() const noexcept { return open_.size(); }

  /// Access to the owning sink (e.g. for correlation-id allocation).
  [[nodiscard]] SpanSink& server() noexcept { return *server_; }

 private:
  /// Open spans live in a flat stack-like vector: tracer nesting depth is
  /// small, and finish almost always closes a recently started span, so a
  /// backwards linear scan beats a hash map and allocates nothing after
  /// warm-up.
  Span* find_open(SpanId id) noexcept;

  SpanSink* server_;
  StrId name_;
  int level_;
  bool enabled_ = true;
  std::vector<Span> open_;
};

/// RAII helper that finishes a span when destroyed. The close timestamp is
/// read from a caller-supplied callable so simulated clocks work naturally.
template <typename NowFn>
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, StrId name, NowFn now, SpanId parent = kNoSpan)
      : tracer_(&tracer), now_(std::move(now)) {
    id_ = tracer_->start_span(name, now_(), parent);
  }
  ~ScopedSpan() {
    if (id_ != kNoSpan) tracer_->finish_span(id_, now_());
  }

  /// Move-constructible so helper factories can return a ScopedSpan; the
  /// moved-from object relinquishes the span (id kNoSpan) and its
  /// destructor finishes nothing.
  ScopedSpan(ScopedSpan&& other) noexcept
      : tracer_(other.tracer_),
        now_(std::move(other.now_)),
        id_(std::exchange(other.id_, kNoSpan)) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  [[nodiscard]] SpanId id() const noexcept { return id_; }

  /// Attach an inline value tag to the guarded span (see
  /// Tracer::tag_inline); no-op on a relinquished/disabled span.
  void tag_inline(StrId key, std::string_view value) {
    if (id_ != kNoSpan) tracer_->tag_inline(id_, key, value);
  }

 private:
  Tracer* tracer_;
  NowFn now_;
  SpanId id_;
};

}  // namespace xsp::trace
