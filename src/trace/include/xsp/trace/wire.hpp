// XSP binary span-batch wire format (v6, the only version) and the
// format-agnostic serialization core shared by every exporter backend.
//
// The JSON path (StreamingExporter) re-formats every span as text (its
// throughput is recorded in bench/results/BENCH_abl_export_stream.json).
// Spans are trivially copyable fixed-size PODs whose strings are interned
// 32-bit StrIds, so the binary format moves whole sealed batches with
// memcpy and ships string bytes exactly once, as deltas of the
// process-wide StringTable — an order of magnitude more throughput through
// the same drain-subscriber seam, and the on-disk / on-socket format a
// cross-process collector daemon will speak (ROADMAP: cross-process trace
// ingestion).
//
// Layered as:
//   FrameSink      — bounded-buffer byte sink (ostream or callback), the
//                    seam both StreamingExporter and BinaryWriter drive.
//   wire::*        — the format itself: versioned stream header, then
//                    length-prefixed frames (StringDelta, SpanBatch,
//                    Footer), all little-into-host-endian POD structs.
//   BinaryWriter   — drain-subscriber-compatible encoder: per flush, a
//                    StringDelta frame carrying only interns new since the
//                    last flush (StringTable::for_each_since cursor), then
//                    one SpanBatch frame per sealed batch (payload is the
//                    batch memory itself, handed to the sink uncopied).
//                    finish() appends a Footer frame with the collection
//                    telemetry (TraceMeta).
//   wire::FrameParser — the one parser: per-stream state and every
//                    framing rule (header, length bounds, frame types,
//                    span counts, footer, trailing bytes), re-interning
//                    the deltas into this process's StringTable and
//                    rewriting each span's StrIds. Hostile input
//                    (truncation, oversized prefixes, unknown ids,
//                    out-of-bounds annotation counts) throws WireError —
//                    never UB.
//   BinaryReader   — the istream driver over FrameParser, yielding
//                    SpanBatches ready for Timeline::assemble or
//                    OnlineAnalyzer replay. net::CollectorService is the
//                    socket driver.
//
// Format spec (layout, delta semantics, the versioning rule):
// src/trace/README.md, "XSP binary wire format".
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "xsp/common/string_table.hpp"
#include "xsp/trace/span.hpp"
#include "xsp/trace/trace_meta.hpp"

namespace xsp::trace {

/// Bounded-buffer byte sink: the serialization core's output seam. Bytes
/// append into a fixed-threshold internal buffer and are pushed to the
/// underlying ostream/callback whenever the threshold is reached — the
/// sink's footprint is independent of how many bytes stream through it.
/// write_through() — and any write() at or above the threshold — bypasses
/// the buffer entirely (after a flush, to preserve order), so a
/// whole-batch span payload is handed to the sink zero-copy. Thread-safe;
/// bytes of concurrent write() calls never interleave.
///
/// Fallible sinks (sockets): construct with a TryWriteFn, which reports
/// how many bytes it accepted. A short count keeps the unaccepted suffix
/// buffered — in order, ahead of later writes — and retries it on the
/// next write()/flush(), so a saturated socket never tears a frame; a
/// kWriteError return latches failure (failed()), after which all bytes
/// are discarded and write()/flush() return false. Infallible WriteFn
/// sinks behave exactly as before (never short, never failed).
class FrameSink {
 public:
  using WriteFn = std::function<void(std::string_view)>;
  /// Fallible sink callback: returns bytes accepted (0..size — a short
  /// count is backpressure, the rest stays buffered for retry) or
  /// kWriteError for a hard, unrecoverable failure.
  using TryWriteFn = std::function<std::size_t(std::string_view)>;
  static constexpr std::size_t kWriteError = static_cast<std::size_t>(-1);
  /// Constructor tag selecting the TryWriteFn overload (a callable
  /// returning size_t is also invocable-as-void, so the overload must be
  /// explicit, not deduced).
  struct Fallible {};

  /// Buffered bytes at which the buffer is pushed to the sink. The buffer
  /// may transiently exceed this by one sub-threshold write.
  static constexpr std::size_t kFlushThreshold = 64 * 1024;

  explicit FrameSink(WriteFn fn);
  FrameSink(TryWriteFn fn, Fallible);
  /// The stream must outlive the sink.
  explicit FrameSink(std::ostream& os);

  FrameSink(const FrameSink&) = delete;
  FrameSink& operator=(const FrameSink&) = delete;

  /// Append bytes (buffered; auto-flush at the threshold). Returns false
  /// once the sink has failed — from this call or a previous one — at
  /// which point the bytes were discarded, not sent.
  bool write(std::string_view bytes);

  /// Append bytes without copying them through the buffer: flush what is
  /// buffered, then pass `bytes` to the underlying sink directly. Bytes a
  /// saturated sink does not accept are buffered as by write(). For bulk
  /// payloads already laid out in the caller's memory (a span batch).
  /// Same return contract as write().
  bool write_through(std::string_view bytes);

  /// Push buffered bytes to the underlying sink. Returns true when the
  /// buffer fully drained; false when the sink is saturated (bytes remain
  /// pending, see pending_bytes()) or has failed.
  bool flush();

  /// Bytes accepted so far, including bytes still buffered — the
  /// export-cost telemetry exporters surface in their footers.
  [[nodiscard]] std::uint64_t bytes_written() const;

  /// True after the sink reported kWriteError; latched. Buffered bytes
  /// were discarded and later writes are dropped — the caller (e.g. a
  /// socket-backed exporter) decides whether to reconnect with a fresh
  /// sink or give up.
  [[nodiscard]] bool failed() const;

  /// Bytes a saturated sink has not accepted yet (0 for infallible
  /// sinks outside a write call). The number a bounded-send-buffer
  /// policy compares against its cap.
  [[nodiscard]] std::size_t pending_bytes() const;

 private:
  /// Drain buf_ into fn_; returns true when buf_ emptied. Caller holds mu_.
  bool drain_locked();
  /// write_through() with mu_ held and bytes_ already counted.
  bool write_through_locked(std::string_view bytes);

  TryWriteFn fn_;
  mutable std::mutex mu_;
  std::string buf_;
  bool failed_ = false;
  std::uint64_t bytes_ = 0;
};

/// Malformed or truncated binary wire input. Every decoder failure path
/// raises this with a position/context message; no input can reach UB.
struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

namespace wire {

/// Stream header magic: "XSPB".
inline constexpr char kMagic[4] = {'X', 'S', 'P', 'B'};
/// The format version: the one this build writes and the only one it
/// reads. Any change to the header, frame, span, heartbeat or footer
/// layout bumps it. Readers accept exactly one version until a persisted
/// stream exists that must stay readable, so an older stream is rejected
/// at open instead of misread. (Versions 1–5 are earlier layouts and are
/// rejected like any other.)
inline constexpr std::uint16_t kVersion = 6;
/// Endianness marker as written by the producer; a consumer reading the
/// byte-swapped value rejects the stream (frames are host-endian memcpy).
inline constexpr std::uint16_t kEndianMark = 0xFEFF;
/// Upper bound a reader accepts for one frame payload — any larger length
/// prefix is hostile or corrupt, not data.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 26;  // 64 MiB
/// Spans per SpanBatch frame; the writer splits larger batches so frames
/// stay bounded and a reader can validate count * sizeof(Span) exactly.
inline constexpr std::size_t kMaxSpansPerFrame = 4096;

enum class FrameType : std::uint8_t {
  /// Payload: repeated { u32 string_id, u32 byte_len, byte_len bytes } —
  /// the producer-table interns new since the previous delta.
  kStringDelta = 1,
  /// Payload: u32 span_count, then span_count * sizeof(Span) raw span
  /// bytes (a sealed publication batch's memory, verbatim).
  kSpanBatch = 2,
  /// Payload: one Footer struct. Terminates the stream.
  kFooter = 3,
  /// Payload: one Heartbeat struct. Periodic producer-health counters;
  /// legal anywhere between header and footer.
  kHeartbeat = 4,
};

/// Fixed 16-byte stream header. span_size pins the producer's span layout
/// so a consumer built against a different Span rejects the stream instead
/// of misinterpreting it (consumers never guess).
struct Header {
  char magic[4];
  std::uint16_t version;
  std::uint16_t endianness;
  std::uint32_t span_size;
  std::uint32_t header_size;
};
static_assert(sizeof(Header) == 16);
static_assert(std::is_trivially_copyable_v<Header>);

/// 8-byte frame prefix: every frame is self-delimiting, so a consumer can
/// skip-validate a stream without decoding payloads.
struct FrameHeader {
  std::uint8_t type;
  std::uint8_t reserved[3];
  std::uint32_t payload_size;
};
static_assert(sizeof(FrameHeader) == 8);
static_assert(std::is_trivially_copyable_v<FrameHeader>);

/// Trailing telemetry frame: the stream's own span/byte accounting, then
/// the run's TraceMeta verbatim. export_bytes counts every byte written
/// before this frame (header, deltas, span batches). A field added to
/// TraceMeta grows the frame, which fails the size check below until
/// kVersion is bumped with it.
struct Footer {
  std::uint64_t span_count;
  std::uint64_t export_bytes;
  TraceMeta meta;
};
static_assert(sizeof(Footer) == 112, "footer layout changed: bump kVersion");
static_assert(std::is_trivially_copyable_v<Footer>);

/// Heartbeat payload: a producer's live transport/sampling counters,
/// cumulative since the producer started (monotonic per stream except
/// outbox_spans, an instantaneous depth). The collector exposes them as
/// per-producer metrics and derives staleness from heartbeat arrival age
/// — a producer whose heartbeats stop while its connection stays open is
/// dead or stalled, which footers alone can never show.
struct Heartbeat {
  /// 1-based per-stream heartbeat counter (gaps mean dropped frames).
  std::uint64_t sequence;
  /// Spans handed to the producer's RemoteSink (before any shedding).
  std::uint64_t spans_published;
  /// Spans encoded onto the socket so far.
  std::uint64_t spans_sent;
  /// Spans dropped by bounded-outbox backpressure or a dying connection.
  std::uint64_t spans_dropped;
  /// Low-value spans shed selectively under backpressure.
  std::uint64_t spans_shed;
  /// Admission-sampling accounting (0/0 when no sampler is attached).
  std::uint64_t sampled_kept;
  std::uint64_t sampled_dropped;
  /// Reconnects the sink performed (each opens a fresh wire epoch).
  std::uint64_t reconnects;
  /// Spans currently queued in the producer's outbox (instantaneous).
  std::uint64_t outbox_spans;
};
static_assert(sizeof(Heartbeat) == 9 * sizeof(std::uint64_t));
static_assert(std::is_trivially_copyable_v<Heartbeat>);

}  // namespace wire

/// Binary wire encoder. Drop-in for the StreamingExporter drain-subscriber
/// shape: attach write_batches under kObserve or kConsume, call set_meta
/// when telemetry is final, finish() to append the footer frame.
///
/// Thread safety: write_batch/write_batches/set_meta/finish may be called
/// from any thread (a collector thread and a flushing caller may both write); one
/// internal mutex serializes frame emission, so frames never interleave.
///
/// Memory: allocation count is independent of span count (pinned by
/// BinaryWire.WriterAllocationIsIndependentOfSpanCount) — span payloads
/// hand the batch memory straight to the sink, the string-delta scratch is
/// reused across flushes, and the FrameSink buffer is bounded.
class BinaryWriter {
 public:
  explicit BinaryWriter(FrameSink::WriteFn sink);
  /// Fallible (socket-backed) sink: short writes stay pending in the
  /// FrameSink, kWriteError latches failure — observable via
  /// sink_failed()/sink_pending_bytes() so the owner can apply its
  /// backpressure/reconnect policy (see trace::RemoteSink).
  BinaryWriter(FrameSink::TryWriteFn sink, FrameSink::Fallible);
  explicit BinaryWriter(std::ostream& os);

  /// Finishes the stream if finish() was not called explicitly.
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  /// Emit the pending string delta, then the batch as SpanBatch frames.
  void write_batch(const SpanBatch& batch);

  /// Write every batch of a batch list — the drain-subscriber shape.
  void write_batches(const SpanBatches& batches);

  /// Set/update the telemetry the footer frame will carry. May be called
  /// any time before finish().
  void set_meta(const TraceMeta& meta);

  /// Emit a Heartbeat frame carrying the producer's live counters, and
  /// flush so the frame reaches the peer promptly (a buffered heartbeat
  /// measures nothing). Dropped after finish(), like batches.
  void write_heartbeat(const wire::Heartbeat& hb);

  /// Append the footer frame and flush. Idempotent; batches written after
  /// finish() are dropped (asserted in debug builds), mirroring
  /// StreamingExporter.
  void finish();

  /// Spans written so far (the footer's span_count).
  [[nodiscard]] std::uint64_t spans_written() const;

  /// Bytes accepted by the sink so far (including buffered bytes).
  [[nodiscard]] std::uint64_t bytes_written() const;

  /// Retry pushing bytes a saturated fallible sink has not accepted yet.
  /// Returns true when nothing remains pending (see FrameSink::flush).
  bool flush();

  /// True once the sink latched a hard write failure; the stream is dead
  /// and the owner should reconnect with a fresh writer.
  [[nodiscard]] bool sink_failed() const;

  /// Bytes buffered for a saturated sink (FrameSink::pending_bytes) — the
  /// figure a bounded-send-buffer policy compares against its cap.
  [[nodiscard]] std::size_t sink_pending_bytes() const;

 private:
  void append_string_delta_locked();
  void append_span_frames_locked(const SpanBatch& batch);

  FrameSink sink_;
  mutable std::mutex mu_;
  common::StringTable::Cursor cursor_;
  /// Frame-assembly scratch, reused across flushes; capacity is bounded
  /// by the largest single delta, not by stream length.
  std::string scratch_;
  bool finished_ = false;
  std::uint64_t spans_written_ = 0;
  TraceMeta meta_{};
};

namespace wire {

/// The one parser of the wire format. Every consumer drives it: the
/// BinaryReader from an istream, net::CollectorService from a socket. It
/// owns one stream's state and every framing rule: header validation, the
/// payload bound, frame types, span count against payload size, the
/// heartbeat and footer sizes, empty span batches, and bytes after the
/// footer. It also keeps the producer-id -> local-StrId remap that
/// re-interns the deltas, so two producers' ids never collide.
///
/// The parser is pull-driven, so a driver can put bytes straight where
/// they belong. wanted() says how many bytes the next step needs, buffer()
/// says where they go, and commit() judges them. A span-batch payload goes
/// into the caller's SpanBatch, so a reader decodes with no staging copy,
/// at most kBatchCapacity spans per step: a larger frame decodes as
/// several batches, each of which fits one batch-pool block (span.hpp).
/// A frame is judged from its 8-byte header (a span batch also from its
/// 4-byte count) before any payload is read, so a hostile length prefix
/// is rejected without buffering it. Hostile bytes throw WireError;
/// nothing reaches UB. Single-threaded per instance.
class FrameParser {
 public:
  /// `max_payload` bounds one frame's payload; it is capped at
  /// kMaxFramePayload.
  explicit FrameParser(std::size_t max_payload = kMaxFramePayload);

  FrameParser(const FrameParser&) = delete;
  FrameParser& operator=(const FrameParser&) = delete;

  /// Bytes the next step needs (never 0). After the footer this is 1:
  /// the stream may only end there, and any further byte is an error.
  [[nodiscard]] std::size_t wanted() const noexcept;

  /// Where the driver writes the next wanted() bytes. For a span-batch
  /// payload that is `spans` itself, resized to the frame's next
  /// min(spans left, kBatchCapacity) spans; otherwise it is the parser's
  /// own scratch.
  [[nodiscard]] char* buffer(SpanBatch& spans);

  /// Judge the wanted() bytes just written to buffer(). Returns true when
  /// `spans` holds a decoded, non-empty batch whose StrIds now name this
  /// process's StringTable. Throws WireError on any violation.
  bool commit(SpanBatch& spans);

  /// The input ended with `partial` bytes of the next step in hand.
  /// Returns when the stream may end here: nothing partial, and the
  /// parser is between frames or past the footer. Otherwise throws a
  /// WireError naming what was truncated.
  void end_of_input(std::size_t partial) const;

  /// True once the footer frame has been read.
  [[nodiscard]] bool saw_footer() const noexcept { return state_ == State::kEnd; }
  /// The footer frame's telemetry; defaults until saw_footer().
  [[nodiscard]] const Footer& footer() const noexcept { return footer_; }
  [[nodiscard]] const TraceMeta& meta() const noexcept { return footer_.meta; }

  /// Heartbeat frames decoded so far.
  [[nodiscard]] std::uint64_t heartbeats_seen() const noexcept { return heartbeats_seen_; }
  /// The most recent heartbeat (zeros until heartbeats_seen() > 0).
  [[nodiscard]] const Heartbeat& last_heartbeat() const noexcept { return heartbeat_; }

  /// Complete frames parsed so far (all types).
  [[nodiscard]] std::uint64_t frames() const noexcept { return frames_; }
  /// Spans decoded (validated + remapped) so far.
  [[nodiscard]] std::uint64_t spans_decoded() const noexcept { return spans_decoded_; }
  /// Distinct producer string ids re-interned so far.
  [[nodiscard]] std::uint64_t strings_reinterned() const noexcept {
    return static_cast<std::uint64_t>(remap_.size()) - 1;  // minus the implicit id 0
  }

 private:
  enum class State : std::uint8_t {
    kHeader,       ///< the 16-byte stream header
    kFrameHeader,  ///< between frames: the next 8-byte frame header
    kSpanCount,    ///< a span batch's u32 count
    kSpans,        ///< a span batch's records, into the caller's batch
    kPayload,      ///< a string-delta, heartbeat or footer payload
    kEnd,          ///< past the footer: only end of input is legal
  };

  void check_header() const;
  void start_frame();
  void end_frame() noexcept;
  void decode_string_delta();
  /// Producer id -> this process's StrId; throws WireError for an id no
  /// delta delivered.
  [[nodiscard]] common::StrId map_id(std::uint32_t producer_id) const;
  void remap_span(Span& span) const;

  std::size_t max_payload_;
  State state_ = State::kHeader;
  FrameType type_ = FrameType::kStringDelta;
  std::uint32_t payload_size_ = 0;
  /// Spans of the current span-batch frame not decoded yet.
  std::uint32_t span_count_ = 0;
  /// Header, frame-header and span-count bytes.
  alignas(8) char head_[sizeof(Header)] = {};
  /// String-delta, heartbeat and footer payloads, reused across frames.
  std::string payload_;

  std::unordered_map<std::uint32_t, std::uint32_t> remap_;
  Footer footer_{};
  Heartbeat heartbeat_{};
  std::uint64_t heartbeats_seen_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t spans_decoded_ = 0;
};

}  // namespace wire

/// Binary wire decoder. Validates the stream header on construction and
/// yields re-interned span batches frame by frame; spans come out carrying
/// StrIds of *this* process's global StringTable, so a decoded batch feeds
/// Timeline::assemble, OnlineAnalyzer replay, or a StreamingExporter
/// re-export directly. The istream driver over wire::FrameParser.
/// Single-threaded (one reader per stream).
class BinaryReader {
 public:
  /// Reads and validates the stream header. The stream must outlive the
  /// reader. Throws WireError on any mismatch.
  explicit BinaryReader(std::istream& in);

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  /// Decode the next batch into `out` (overwritten, so a caller-recycled
  /// buffer is reused): a SpanBatch frame, or the next kBatchCapacity
  /// spans of a larger one. Returns false at end of stream —
  /// after the footer frame, or at a clean pre-footer EOF (a producer
  /// that died mid-export; see saw_footer()). Throws WireError on any
  /// malformed frame.
  bool next_batch(SpanBatch& out);

  /// Decode the rest of the stream into batches (convenience for replay).
  [[nodiscard]] SpanBatches read_all();

  /// True once the footer frame has been read. A stream without a footer
  /// is truncated-but-parseable: every complete frame before the cut
  /// decoded normally, only the final telemetry is missing.
  [[nodiscard]] bool saw_footer() const noexcept { return parser_.saw_footer(); }

  /// The footer frame's telemetry; defaults until saw_footer().
  [[nodiscard]] const wire::Footer& footer() const noexcept { return parser_.footer(); }

  /// The footer's TraceMeta — hand to a StreamingExporter when
  /// re-exporting as JSON.
  [[nodiscard]] const TraceMeta& meta() const noexcept { return parser_.meta(); }

  /// Spans decoded so far.
  [[nodiscard]] std::uint64_t spans_read() const noexcept { return parser_.spans_decoded(); }

  /// Distinct producer string ids re-interned so far.
  [[nodiscard]] std::uint64_t strings_reinterned() const noexcept {
    return parser_.strings_reinterned();
  }

  /// Heartbeat frames decoded so far.
  [[nodiscard]] std::uint64_t heartbeats_seen() const noexcept {
    return parser_.heartbeats_seen();
  }

  /// The most recent heartbeat (zeros until heartbeats_seen() > 0).
  [[nodiscard]] const wire::Heartbeat& last_heartbeat() const noexcept {
    return parser_.last_heartbeat();
  }

 private:
  /// Read the parser's next step into `out` or its scratch and judge it.
  /// Returns true when `out` holds a batch; false at end of input.
  bool step(SpanBatch& out);

  std::istream& in_;
  wire::FrameParser parser_;
  bool done_ = false;
};

}  // namespace xsp::trace
