#include "xsp/trace/wire.hpp"

#include <cassert>
#include <cstddef>
#include <istream>
#include <ostream>
#include <utility>

namespace xsp::trace {

// --- FrameSink --------------------------------------------------------------

FrameSink::FrameSink(TryWriteFn fn, Fallible) : fn_(std::move(fn)) {
  // Warm start at the flush threshold. Sub-threshold writes splice whole
  // (a formatted JSON batch can exceed this headroom), so capacity may
  // grow past the reservation once — it then sticks (clear() keeps
  // capacity), which is what makes steady-state streaming allocation-free
  // while the effective bound stays threshold + one chunk.
  buf_.reserve(kFlushThreshold + 4096);
}

FrameSink::FrameSink(WriteFn fn)
    : FrameSink(TryWriteFn([f = std::move(fn)](std::string_view chunk) {
                  f(chunk);
                  return chunk.size();  // infallible: always accepts whole
                }),
                Fallible{}) {}

FrameSink::FrameSink(std::ostream& os)
    : FrameSink(WriteFn([out = &os](std::string_view chunk) {
        out->write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      })) {}

bool FrameSink::drain_locked() {
  while (!buf_.empty()) {
    const std::size_t n = fn_(buf_);
    if (n == kWriteError) {
      // Hard failure: latch, discard — a half-written frame stream is
      // unrecoverable anyway; the owner reconnects with a fresh sink.
      failed_ = true;
      buf_.clear();
      return false;
    }
    if (n == 0) return false;  // saturated: keep the bytes, retry later
    if (n >= buf_.size()) {
      buf_.clear();
    } else {
      buf_.erase(0, n);  // retained suffix stays ahead of later writes
    }
  }
  return true;
}

bool FrameSink::write_through_locked(std::string_view bytes) {
  // Flush what came before so order holds, then hand the caller's bytes
  // to the sink directly — zero copies on the bulk path.
  if (drain_locked()) {
    while (!bytes.empty()) {
      const std::size_t n = fn_(bytes);
      if (n == kWriteError) {
        failed_ = true;
        buf_.clear();
        return false;
      }
      if (n == 0) break;  // saturated mid-payload: buffer the rest
      bytes.remove_prefix(n < bytes.size() ? n : bytes.size());
    }
  }
  if (failed_) return false;
  buf_.append(bytes);  // whatever the sink has not accepted yet
  return true;
}

bool FrameSink::write(std::string_view bytes) {
  if (bytes.empty()) return !failed();
  std::lock_guard lk(mu_);
  if (failed_) return false;
  bytes_ += bytes.size();
  // A threshold-sized write would flush the buffer at once anyway.
  if (bytes.size() >= kFlushThreshold) return write_through_locked(bytes);
  buf_.append(bytes);
  if (buf_.size() >= kFlushThreshold) drain_locked();
  return !failed_;
}

bool FrameSink::write_through(std::string_view bytes) {
  if (bytes.empty()) return !failed();
  std::lock_guard lk(mu_);
  if (failed_) return false;
  bytes_ += bytes.size();
  return write_through_locked(bytes);
}

bool FrameSink::flush() {
  std::lock_guard lk(mu_);
  if (failed_) return false;
  return drain_locked();
}

std::uint64_t FrameSink::bytes_written() const {
  std::lock_guard lk(mu_);
  return bytes_;
}

bool FrameSink::failed() const {
  std::lock_guard lk(mu_);
  return failed_;
}

std::size_t FrameSink::pending_bytes() const {
  std::lock_guard lk(mu_);
  return buf_.size();
}

// --- BinaryWriter -----------------------------------------------------------

namespace {

void append_raw(std::string& out, const void* data, std::size_t n) {
  out.append(static_cast<const char*>(data), n);
}

wire::Header make_header() {
  wire::Header h{};
  h.magic[0] = wire::kMagic[0];
  h.magic[1] = wire::kMagic[1];
  h.magic[2] = wire::kMagic[2];
  h.magic[3] = wire::kMagic[3];
  h.version = wire::kVersion;
  h.endianness = wire::kEndianMark;
  h.span_size = static_cast<std::uint32_t>(sizeof(Span));
  h.header_size = static_cast<std::uint32_t>(sizeof(wire::Header));
  return h;
}

}  // namespace

BinaryWriter::BinaryWriter(FrameSink::WriteFn sink) : sink_(std::move(sink)) {
  const wire::Header header = make_header();
  sink_.write({reinterpret_cast<const char*>(&header), sizeof header});
}

BinaryWriter::BinaryWriter(FrameSink::TryWriteFn sink, FrameSink::Fallible)
    : sink_(std::move(sink), FrameSink::Fallible{}) {
  const wire::Header header = make_header();
  sink_.write({reinterpret_cast<const char*>(&header), sizeof header});
}

BinaryWriter::BinaryWriter(std::ostream& os)
    : BinaryWriter(FrameSink::WriteFn([out = &os](std::string_view chunk) {
        out->write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      })) {}

BinaryWriter::~BinaryWriter() {
  try {
    finish();
  } catch (...) {
    // A sink failing during unwind must not terminate; explicit finish()
    // is the path that propagates sink errors.
  }
}

void BinaryWriter::append_string_delta_locked() {
  // Delta framing: entries accumulate in scratch_ and are cut into a
  // frame whenever the soft cap is passed, so one flush after a huge
  // intern burst (the first flush ships the whole table) still emits
  // bounded frames. The frame header is patched in at cut time.
  constexpr std::size_t kSoftDeltaPayload = 256 * 1024;
  scratch_.clear();
  auto cut_frame = [this] {
    if (scratch_.empty()) return;
    wire::FrameHeader fh{};
    fh.type = static_cast<std::uint8_t>(wire::FrameType::kStringDelta);
    fh.payload_size = static_cast<std::uint32_t>(scratch_.size());
    sink_.write({reinterpret_cast<const char*>(&fh), sizeof fh});
    sink_.write(scratch_);
    scratch_.clear();
  };
  common::StringTable::global().for_each_since(
      cursor_, [this, &cut_frame](std::uint32_t id, std::string_view s) {
        const auto len = static_cast<std::uint32_t>(s.size());
        append_raw(scratch_, &id, sizeof id);
        append_raw(scratch_, &len, sizeof len);
        scratch_.append(s.data(), s.size());
        if (scratch_.size() >= kSoftDeltaPayload) cut_frame();
      });
  cut_frame();
}

void BinaryWriter::append_span_frames_locked(const SpanBatch& batch) {
  const Span* data = batch.data();
  std::size_t remaining = batch.size();
  while (remaining > 0) {
    const std::size_t n = remaining < wire::kMaxSpansPerFrame ? remaining : wire::kMaxSpansPerFrame;
    const auto count = static_cast<std::uint32_t>(n);
    wire::FrameHeader fh{};
    fh.type = static_cast<std::uint8_t>(wire::FrameType::kSpanBatch);
    fh.payload_size = static_cast<std::uint32_t>(sizeof count + n * sizeof(Span));
    // Header + count via scratch, then the span payload straight from the
    // batch memory — sizeof(Span) * n bytes in one write, no reformat. The
    // payload bypasses the sink's buffer because it is a span payload, at
    // any record width and batch size.
    scratch_.clear();
    append_raw(scratch_, &fh, sizeof fh);
    append_raw(scratch_, &count, sizeof count);
    sink_.write(scratch_);
    sink_.write_through({reinterpret_cast<const char*>(data), n * sizeof(Span)});
    data += n;
    remaining -= n;
    spans_written_ += n;
  }
}

void BinaryWriter::write_batch(const SpanBatch& batch) {
  if (batch.empty()) return;
  std::lock_guard lk(mu_);
  // Mirror StreamingExporter's write-after-finish contract: assert in
  // debug, drop in release — never corrupt an already-footered stream.
  assert(!finished_ && "BinaryWriter: write after finish()");
  if (finished_) return;
  append_string_delta_locked();
  append_span_frames_locked(batch);
}

void BinaryWriter::write_batches(const SpanBatches& batches) {
  if (batches.empty()) return;
  std::lock_guard lk(mu_);
  assert(!finished_ && "BinaryWriter: write after finish()");
  if (finished_) return;
  // One delta covers the whole batch list: every string these spans
  // reference was interned before they were published, which
  // happened-before this drain delivery.
  append_string_delta_locked();
  for (const SpanBatch& batch : batches) {
    if (!batch.empty()) append_span_frames_locked(batch);
  }
}

void BinaryWriter::set_meta(const TraceMeta& meta) {
  std::lock_guard lk(mu_);
  meta_ = meta;
}

void BinaryWriter::write_heartbeat(const wire::Heartbeat& hb) {
  std::lock_guard lk(mu_);
  if (finished_) return;
  wire::FrameHeader fh{};
  fh.type = static_cast<std::uint8_t>(wire::FrameType::kHeartbeat);
  fh.payload_size = static_cast<std::uint32_t>(sizeof hb);
  scratch_.clear();
  append_raw(scratch_, &fh, sizeof fh);
  append_raw(scratch_, &hb, sizeof hb);
  sink_.write(scratch_);
  // A heartbeat only signals liveness if it actually leaves the buffer.
  sink_.flush();
}

void BinaryWriter::finish() {
  std::lock_guard lk(mu_);
  if (finished_) return;
  const wire::Footer footer{spans_written_, sink_.bytes_written(), meta_};
  wire::FrameHeader fh{};
  fh.type = static_cast<std::uint8_t>(wire::FrameType::kFooter);
  fh.payload_size = static_cast<std::uint32_t>(sizeof footer);
  scratch_.clear();
  append_raw(scratch_, &fh, sizeof fh);
  append_raw(scratch_, &footer, sizeof footer);
  sink_.write(scratch_);
  finished_ = true;
  sink_.flush();
}

std::uint64_t BinaryWriter::spans_written() const {
  std::lock_guard lk(mu_);
  return spans_written_;
}

std::uint64_t BinaryWriter::bytes_written() const { return sink_.bytes_written(); }

bool BinaryWriter::flush() { return sink_.flush(); }

bool BinaryWriter::sink_failed() const { return sink_.failed(); }

std::size_t BinaryWriter::sink_pending_bytes() const {
  return sink_.pending_bytes();
}

// --- FrameParser ------------------------------------------------------------

namespace wire {

namespace {

template <typename T>
T load(const char* bytes) {
  T v{};
  std::memcpy(&v, bytes, sizeof v);
  return v;
}

}  // namespace

FrameParser::FrameParser(std::size_t max_payload)
    : max_payload_(max_payload < kMaxFramePayload ? max_payload : kMaxFramePayload) {
  remap_.emplace(0u, 0u);  // the reserved empty string maps to itself
}

std::size_t FrameParser::wanted() const noexcept {
  switch (state_) {
    case State::kHeader: return sizeof(Header);
    case State::kFrameHeader: return sizeof(FrameHeader);
    case State::kSpanCount: return sizeof(std::uint32_t);
    case State::kSpans: return static_cast<std::size_t>(span_count_) * sizeof(Span);
    case State::kPayload: return payload_size_;
    case State::kEnd: return 1;
  }
  return 1;
}

char* FrameParser::buffer(SpanBatch& spans) {
  switch (state_) {
    case State::kSpans:
      // Decode straight into the caller's batch: one read into span
      // memory, then in-place StrId rewrites — no intermediate copy.
      spans.resize(span_count_);
      return reinterpret_cast<char*>(spans.data());
    case State::kPayload:
      payload_.resize(payload_size_);
      return payload_.data();
    default:
      return head_;
  }
}

bool FrameParser::commit(SpanBatch& spans) {
  switch (state_) {
    case State::kHeader:
      check_header();
      state_ = State::kFrameHeader;
      return false;
    case State::kFrameHeader:
      start_frame();
      return false;
    case State::kSpanCount: {
      span_count_ = load<std::uint32_t>(head_);
      if (span_count_ > kMaxSpansPerFrame) {
        throw WireError("xsp wire: span-batch count " + std::to_string(span_count_) +
                        " exceeds the per-frame bound");
      }
      if (payload_size_ != sizeof span_count_ + std::size_t{span_count_} * sizeof(Span)) {
        throw WireError("xsp wire: span-batch payload length does not match its span count");
      }
      if (span_count_ > 0) {
        state_ = State::kSpans;
      } else {
        end_frame();  // an empty batch frame is legal and yields nothing
      }
      return false;
    }
    case State::kSpans:
      for (Span& span : spans) remap_span(span);
      spans_decoded_ += spans.size();
      end_frame();
      return true;
    case State::kPayload:
      if (type_ == FrameType::kStringDelta) {
        decode_string_delta();
        end_frame();
      } else if (type_ == FrameType::kHeartbeat) {
        heartbeat_ = load<Heartbeat>(payload_.data());
        ++heartbeats_seen_;
        end_frame();
      } else {
        footer_ = load<Footer>(payload_.data());
        end_frame();
        state_ = State::kEnd;
      }
      return false;
    case State::kEnd:
      // The footer terminates the stream; trailing bytes are corruption
      // (e.g. two concatenated exports), not data.
      throw WireError("xsp wire: data after footer frame");
  }
  return false;
}

void FrameParser::end_of_input(std::size_t partial) const {
  // Past the footer wanted() is 1, so `partial` is always 0 there.
  if (partial == 0 && (state_ == State::kFrameHeader || state_ == State::kEnd)) return;
  const char* what = "stream header";
  if (state_ == State::kFrameHeader) {
    what = "frame header";
  } else if (state_ == State::kSpanCount) {
    what = "span-batch count";
  } else if (state_ == State::kSpans) {
    what = "span-batch payload";
  } else if (state_ == State::kPayload) {
    what = type_ == FrameType::kStringDelta ? "string-delta payload"
           : type_ == FrameType::kHeartbeat ? "heartbeat payload"
                                            : "footer payload";
  }
  throw WireError(std::string("xsp wire: truncated ") + what + " (wanted " +
                  std::to_string(wanted()) + " bytes, got " + std::to_string(partial) + ")");
}

void FrameParser::check_header() const {
  const auto header = load<Header>(head_);
  if (std::memcmp(header.magic, kMagic, sizeof kMagic) != 0) {
    throw WireError("xsp wire: bad magic (not an XSP binary trace)");
  }
  if (header.endianness != kEndianMark) {
    throw WireError("xsp wire: endianness mismatch between producer and consumer");
  }
  if (header.version != kVersion) {
    throw WireError("xsp wire: unsupported format version " + std::to_string(header.version) +
                    " (this build reads only v" + std::to_string(kVersion) + ")");
  }
  if (header.span_size != sizeof(Span)) {
    throw WireError("xsp wire: span struct size mismatch (stream " +
                    std::to_string(header.span_size) + ", this build " +
                    std::to_string(sizeof(Span)) + ")");
  }
  if (header.header_size != sizeof(Header)) {
    throw WireError("xsp wire: bad header size " + std::to_string(header.header_size));
  }
}

void FrameParser::start_frame() {
  const auto fh = load<FrameHeader>(head_);
  if (fh.payload_size > max_payload_) {
    throw WireError("xsp wire: frame payload length " + std::to_string(fh.payload_size) +
                    " exceeds the " + std::to_string(max_payload_) + "-byte bound");
  }
  type_ = static_cast<FrameType>(fh.type);
  payload_size_ = fh.payload_size;
  state_ = State::kPayload;
  switch (type_) {
    case FrameType::kStringDelta:
      if (payload_size_ == 0) end_frame();  // an empty delta needs no payload step
      return;
    case FrameType::kSpanBatch:
      if (payload_size_ < sizeof span_count_) {
        throw WireError("xsp wire: span-batch frame too small for its span count");
      }
      state_ = State::kSpanCount;
      return;
    case FrameType::kHeartbeat:
      if (payload_size_ != sizeof(Heartbeat)) {
        throw WireError("xsp wire: heartbeat payload length " + std::to_string(payload_size_) +
                        " (expected " + std::to_string(sizeof(Heartbeat)) + ")");
      }
      return;
    case FrameType::kFooter:
      if (payload_size_ != sizeof(Footer)) {
        throw WireError("xsp wire: footer payload length mismatch (expected " +
                        std::to_string(sizeof(Footer)) + " bytes, got " +
                        std::to_string(payload_size_) + ")");
      }
      return;
  }
  throw WireError("xsp wire: unknown frame type " + std::to_string(fh.type));
}

void FrameParser::end_frame() noexcept {
  ++frames_;
  state_ = State::kFrameHeader;
}

common::StrId FrameParser::map_id(std::uint32_t producer_id) const {
  const auto it = remap_.find(producer_id);
  if (it == remap_.end()) {
    throw WireError("xsp wire: span references string id " + std::to_string(producer_id) +
                    " that no delta delivered");
  }
  return common::StrId::from_raw(it->second);
}

void FrameParser::decode_string_delta() {
  const std::string_view payload = payload_;
  const std::size_t payload_size = payload.size();
  std::size_t off = 0;
  while (off < payload_size) {
    if (payload_size - off < 2 * sizeof(std::uint32_t)) {
      throw WireError("xsp wire: truncated string-delta entry header");
    }
    const auto id = load<std::uint32_t>(payload.data() + off);
    const auto len = load<std::uint32_t>(payload.data() + off + sizeof id);
    off += 2 * sizeof(std::uint32_t);
    if (len > payload_size - off) {
      throw WireError("xsp wire: string-delta entry length " + std::to_string(len) +
                      " exceeds remaining payload");
    }
    if (id == 0) throw WireError("xsp wire: string delta redefines reserved id 0");
    const std::string_view s(payload.data() + off, len);
    off += len;
    // Re-intern into this process's table. A repeated id is tolerated
    // (idempotent) as long as the bytes agree — a writer never emits one,
    // but a concatenated stream might replay a prefix.
    const std::uint32_t local = common::StringTable::global().intern(s);
    const auto [it, inserted] = remap_.emplace(id, local);
    if (!inserted && it->second != local) {
      throw WireError("xsp wire: string id " + std::to_string(id) +
                      " redefined with different contents");
    }
  }
}

void FrameParser::remap_span(Span& span) const {
  // A memcpy'd FlatMap's inline count is untrusted until checked —
  // iteration beyond capacity would read past the inline arrays. The
  // inline-tag map additionally bounds each entry's value size.
  if (!span.tags.valid() || !span.metrics.valid() || !span.inline_tags.valid()) {
    throw WireError("xsp wire: span annotation count exceeds capacity");
  }
  if (static_cast<std::uint8_t>(span.kind) > static_cast<std::uint8_t>(SpanKind::kExecution)) {
    throw WireError("xsp wire: bad span kind " +
                    std::to_string(static_cast<unsigned>(span.kind)));
  }
  const auto remap = [this](common::StrId id) { return map_id(id.raw()); };
  span.name = remap(span.name);
  span.tracer = remap(span.tracer);
  span.tags.remap_keys(remap);
  span.tags.remap_values(remap);
  span.metrics.remap_keys(remap);
  // Inline tags: keys are producer StrIds and remap like any other; the
  // value bytes ride in the span itself and pass through untouched —
  // high-cardinality values never touch this process's StringTable.
  span.inline_tags.remap_keys(remap);
}

}  // namespace wire

// --- BinaryReader -----------------------------------------------------------

BinaryReader::BinaryReader(std::istream& in) : in_(in) {
  SpanBatch none;  // the header step writes no spans
  step(none);      // read and validate the stream header; a short one throws
}

bool BinaryReader::step(SpanBatch& out) {
  const std::size_t n = parser_.wanted();
  in_.read(parser_.buffer(out), static_cast<std::streamsize>(n));
  const auto got = static_cast<std::size_t>(in_.gcount());
  if (got != n) {
    // Clean EOF between frames (a producer that died mid-export) or after
    // the footer ends the stream; anything else throws here.
    parser_.end_of_input(got);
    done_ = true;
    return false;
  }
  return parser_.commit(out);
}

bool BinaryReader::next_batch(SpanBatch& out) {
  out.clear();
  while (!done_) {
    if (step(out)) return true;
  }
  return false;
}

SpanBatches BinaryReader::read_all() {
  SpanBatches batches;
  SpanBatch batch;
  while (next_batch(batch)) {
    batches.push_back(std::move(batch));  // leaves `batch` empty
  }
  return batches;
}

}  // namespace xsp::trace
