// SpanSink: the minimal interface a tracer needs from a span collector.
//
// The paper's tracers only ever do three things against the tracing server
// (Section III-A): obtain ids and publish completed spans, one at a time
// or a batch at once. Everything else
// — aggregation, flushing, trace hand-off — is a consumer-side concern.
// Splitting that producer surface out lets Tracer/ScopedSpan publish
// through a TraceServer or a RemoteSink without
// caring which, and keeps the hot publish call as one virtual dispatch
// into a `final` implementation the compiler can devirtualize at
// concrete call sites.
//
// Deliberately NOT part of this surface: producer-slot lifecycle. A
// publishing thread needs no attach/detach hook — sink implementations
// key per-thread state on process-unique thread and server uids, register
// it lazily on first publish, and reclaim it through a TLS exit hook that
// is weak against the sink dying first (see TraceServer "Producer-slot
// lifecycle"). Producers stay fire-and-forget.
#pragma once

#include <cstdint>

#include "xsp/trace/span.hpp"

namespace xsp::trace {

/// Producer-facing surface of a span collector.
class SpanSink {
 public:
  virtual ~SpanSink() = default;

  /// Allocate a fresh sink-unique span id (never kNoSpan).
  virtual SpanId next_span_id() noexcept = 0;

  /// Allocate a fresh correlation id for an async launch/execution pair.
  virtual std::uint64_t next_correlation_id() noexcept = 0;

  /// Publish one completed span. Thread-safe. By reference: the sink's
  /// own batch append is the one copy of the record publication makes.
  virtual void publish(const Span& span) = 0;

  /// Publish spans built in a batch, in order, leaving `batch` empty.
  /// Thread-safe. This default publishes them one by one; TraceServer
  /// takes the block whole, so the spans are never copied.
  virtual void publish_batch(SpanBatch&& batch) {
    for (const Span& span : batch) publish(span);
    batch.clear();
  }
};

}  // namespace xsp::trace
