// SpanSink: the minimal interface a tracer needs from a span collector.
//
// The paper's tracers only ever do three things against the tracing server
// (Section III-A): obtain ids and publish completed spans. Everything else
// — aggregation, flushing, trace hand-off — is a consumer-side concern.
// Splitting that producer surface out lets Tracer/ScopedSpan publish
// through a TraceServer (of any shard count) or a RemoteSink without
// caring which, and keeps the hot publish call as one virtual dispatch
// into a `final` implementation the compiler can devirtualize at
// concrete call sites. The block reservations serve
// relays (the collector) that lift another sink's ids into this one's id
// space a block at a time instead of one id at a time.
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

  /// Ids reserved per next_span_block / next_correlation_block call.
  static constexpr std::uint64_t kIdBlock = 1024;

  /// Reserve kIdBlock fresh contiguous span ids and return the first.
  /// The whole range [first, first + kIdBlock) is disjoint from every id
  /// this sink hands out elsewhere and never contains kNoSpan.
  virtual SpanId next_span_block() noexcept = 0;

  /// Reserve kIdBlock fresh contiguous correlation ids and return the
  /// first; same guarantees as next_span_block (never contains 0).
  virtual std::uint64_t next_correlation_block() noexcept = 0;

  /// Publish one completed span. Thread-safe.
  virtual void publish(Span span) = 0;
};

}  // namespace xsp::trace
