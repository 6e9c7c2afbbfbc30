// Trace exporters: Chrome trace-event JSON (chrome://tracing, Perfetto)
// and a flat span JSON for downstream tooling.
//
// The tracing server aggregates spans the way Jaeger/Zipkin-style backends
// do; exporting the assembled timeline in the Chrome trace-event format
// gives the same "smooth hierarchical step-through" experience the paper
// describes, inside a standard viewer.
//
// There is exactly one JSON-emission path: StreamingExporter. It consumes
// spans incrementally (single spans, publication batches, or whole batch
// lists) and writes through a bounded internal buffer to any std::ostream
// or sink callback — no whole-trace string is ever materialized, so a
// long-running service can export an unbounded trace with bounded memory.
// The classic to_chrome_trace()/to_span_json() helpers are thin wrappers
// that drive the same core over an assembled timeline into a string.
// Batch framing and the byte sink live in wire.hpp (FrameSink): the same
// seam the binary wire writer drives, so "which bytes" (JSON text vs
// binary frames) is the only difference between export backends.
//
// Number formatting is exact by construction:
//   * Chrome "ts"/"dur" are fixed-point microseconds computed from the
//     integer nanosecond timestamps (123456789 ns -> "123456.789"), never
//     default-precision double streaming — a >1 s trace keeps microsecond
//     positions instead of snapping to 6 significant digits.
//   * Metric values print integers up to 2^53 exactly and round-trip every
//     other finite double (shortest-round-trip via std::to_chars);
//     non-finite values emit null.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "xsp/trace/span.hpp"
#include "xsp/trace/timeline.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::trace {

// TraceMeta lives in wire.hpp (the format-agnostic serialization core);
// every backend — this JSON exporter's metadata footer, the binary
// writer's Footer frame — ships the same telemetry struct.

/// Output document shape of a streamed export.
enum class ExportFormat : std::uint8_t {
  /// Chrome trace-event JSON: {"displayTimeUnit":"ms","traceEvents":[...]}
  /// with one complete "X" event per span and per-level track names.
  kChromeTrace,
  /// Flat span JSON — lossless for re-analysis. A plain array [...] by
  /// default; with_metadata wraps it as {"spans":[...],"metadata":{...}}
  /// (metadata in the footer, so counts/drops can be filled in after the
  /// last span has streamed).
  kSpanJson,
  /// XSP binary wire format (wire.hpp): length-prefixed memcpy'd span
  /// batches + string-table deltas. Not a StreamingExporter format —
  /// handled by BinaryWriter; the StreamingExporter constructor rejects
  /// it with std::invalid_argument.
  kBinary,
};

const char* export_format_name(ExportFormat f);

/// Incremental JSON exporter with bounded memory.
///
/// Spans stream through a fixed-size internal buffer into the sink; the
/// exporter's footprint is independent of how many spans pass through it
/// (pinned by StreamingExport.ExporterAllocationIsIndependentOfSpanCount).
///
/// Thread safety: write_span/write_batch/write_batches/set_meta/finish may
/// be called from any thread; batches are formatted into a per-thread
/// scratch buffer outside the sink lock, so N shard collector threads pay
/// the lock only to splice finished chunks into the one ordered output.
/// Events never interleave mid-object; cross-batch order is the arrival
/// order at the sink, which is as arbitrary as publication order itself
/// (viewers and re-analysis order by timestamp, not array position).
class StreamingExporter {
 public:
  using WriteFn = FrameSink::WriteFn;

  /// Internal buffer size at which buffered output is pushed to the sink
  /// (the FrameSink threshold). The buffer may transiently exceed this by
  /// one formatted event.
  static constexpr std::size_t kFlushThreshold = FrameSink::kFlushThreshold;

  /// Stream to a sink callback. `with_metadata` selects the span-JSON
  /// wrapped form (ignored for kChromeTrace). Throws std::invalid_argument
  /// for ExportFormat::kBinary — that format is BinaryWriter's (wire.hpp).
  StreamingExporter(ExportFormat format, WriteFn sink, bool with_metadata = false);

  /// Stream to an ostream (file, socket, stringstream). The stream must
  /// outlive the exporter.
  StreamingExporter(ExportFormat format, std::ostream& os, bool with_metadata = false);

  /// Finishes the document if finish() was not called explicitly.
  ~StreamingExporter();

  StreamingExporter(const StreamingExporter&) = delete;
  StreamingExporter& operator=(const StreamingExporter&) = delete;

  /// Write one span. `parent` is the parent reference to emit for span
  /// JSON (wrappers pass the timeline-resolved parent; raw streaming uses
  /// the span's own explicit parent).
  void write_span(const Span& span, SpanId parent);

  /// Write every span of a publication batch (parents: span.parent).
  void write_batch(const SpanBatch& batch);

  /// Write every span of a batch list — the TraceServer drain-subscriber
  /// shape (parents: span.parent).
  void write_batches(const SpanBatches& batches);

  /// Set/update the metadata emitted in the span-JSON footer. May be
  /// called any time before finish() — telemetry like the dropped-
  /// annotation count is only final after the last drain.
  void set_meta(const TraceMeta& meta);

  /// Attach an extra section to the span-JSON metadata footer:
  /// `"key":<json_value>` is spliced verbatim after the built-in fields.
  /// `json_value` must be a complete, valid JSON value — the caller owns
  /// its well-formedness (exports are pinned by a real JSON parser in
  /// tests). This is how subsystems layered above trace (the online
  /// analysis aggregates) ship their final numbers in the document
  /// without the exporter knowing their types. Setting the same key again
  /// replaces the section; ignored for kChromeTrace. May be called any
  /// time before finish().
  void set_footer_section(std::string key, std::string json_value);

  /// Write the document footer and flush. Idempotent. Writes arriving
  /// after finish() are dropped (asserted in debug builds) — detach drain
  /// subscribers before finishing so no spans are lost. Chrome footer
  /// carries the per-level track-name events; span-JSON footer carries
  /// the metadata section when enabled.
  void finish();

  /// Spans written so far (also the "span_count" the footer reports).
  [[nodiscard]] std::uint64_t spans_written() const;

  /// Bytes accepted by the sink so far, including buffered bytes — the
  /// "export_bytes" cost figure the span-JSON footer reports.
  [[nodiscard]] std::uint64_t bytes_written() const { return sink_.bytes_written(); }

 private:
  void append_event(std::string& out, const Span& span, SpanId parent) const;
  /// Splice pre-formatted events (each ','-prefixed) into the output.
  void append_chunk_locked(std::string_view chunk, std::uint64_t span_count);

  ExportFormat format_;
  bool with_metadata_;
  FrameSink sink_;

  mutable std::mutex mu_;
  bool wrote_event_ = false;
  bool finished_ = false;
  std::uint64_t spans_written_ = 0;
  TraceMeta meta_{};
  /// Extra footer sections (key, pre-serialized JSON value), emitted in
  /// set order after the built-in metadata fields.
  std::vector<std::pair<std::string, std::string>> footer_sections_;
};

/// Chrome trace-event JSON ("traceEvents" array of complete "X" events).
/// Stack levels map to track (tid) ids so the viewer shows one lane per
/// level; tags and metrics become event args. Thin wrapper over
/// StreamingExporter collecting into a string.
std::string to_chrome_trace(const Timeline& timeline);

/// Flat JSON array of spans with ids, parents, levels, timestamps, tags,
/// and metrics — lossless for re-analysis.
std::string to_span_json(const Timeline& timeline);

/// Like to_span_json(timeline), but wraps the span array in an object with
/// a trailing "metadata" section: {"spans":[...],"metadata":{...}} — the
/// same layout the streaming path produces, where final telemetry is only
/// known after the last span.
std::string to_span_json(const Timeline& timeline, const TraceMeta& meta);

}  // namespace xsp::trace
