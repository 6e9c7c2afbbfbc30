#include "xsp/trace/export.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace xsp::trace {

namespace {

// --- raw-cursor writer ------------------------------------------------------
//
// Output is written in two steps: bound, then write. A caller reserves an
// upper bound on the bytes it is about to emit once, then writes through a
// plain char* with no capacity check per piece.

/// Growable char buffer written through a raw cursor: reserve() a bound,
/// write through the returned pointer, then commit() the end.
class Chunk {
 public:
  char* reserve(std::size_t bound) {
    if (buf_.size() - size_ < bound) buf_.resize(std::max(size_ + bound, 2 * buf_.size()));
    return buf_.data() + size_;
  }
  void commit(const char* end) { size_ = static_cast<std::size_t>(end - buf_.data()); }
  [[nodiscard]] std::string_view view() const { return {buf_.data(), size_}; }
  void clear() { size_ = 0; }

 private:
  std::vector<char> buf_;  ///< sized to its capacity; bytes past size_ are unused
  std::size_t size_ = 0;
};

/// Per-thread event chunk: events are formatted here outside the sink lock,
/// so concurrent exporting threads only contend to splice finished chunks.
/// Reused across calls; its capacity stays within twice one flush threshold
/// plus the largest single event formatted on this thread.
Chunk& tls_chunk() {
  thread_local Chunk chunk;
  return chunk;
}

/// Copy a string literal, without its terminator.
template <std::size_t N>
char* put(char* out, const char (&literal)[N]) {
  std::memcpy(out, literal, N - 1);
  return out + (N - 1);
}

/// Widest integer text: 20 characters ("-9223372036854775808").
constexpr std::size_t kIntBytes = 20;

char* put_uint(char* out, std::uint64_t v) { return std::to_chars(out, out + kIntBytes, v).ptr; }
char* put_int(char* out, std::int64_t v) { return std::to_chars(out, out + kIntBytes, v).ptr; }

/// Fixed-point microseconds from integer nanoseconds: 123456789 ->
/// "123456.789", trailing zeros trimmed ("1234.5", "1234"). Exact for the
/// whole TimePoint range — the default-precision double streaming this
/// replaces rounded any timestamp past ~1 s to 6 significant digits.
char* put_us_from_ns(char* out, Ns ns) {
  std::uint64_t mag;
  if (ns < 0) {
    *out++ = '-';
    mag = ~static_cast<std::uint64_t>(ns) + 1;
  } else {
    mag = static_cast<std::uint64_t>(ns);
  }
  out = put_uint(out, mag / 1000);
  const unsigned frac = static_cast<unsigned>(mag % 1000);
  if (frac != 0) {
    const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                            static_cast<char>('0' + (frac / 10) % 10),
                            static_cast<char>('0' + frac % 10)};
    std::size_t len = 4;
    while (digits[len - 1] == '0') --len;
    std::memcpy(out, digits, len);
    out += len;
  }
  return out;
}

/// Widest number put_number writes ("-2.2250738585072014e-308" is 24).
constexpr std::size_t kNumberBytes = 32;

/// JSON number from a double: integers up to 2^53 print exactly via the
/// integer path; every other finite value prints the shortest string that
/// round-trips (std::to_chars) — the old "%.6g" truncated large byte/flop
/// counters. Non-finite values have no JSON representation; emit null.
char* put_number(char* out, double v) {
  if (!std::isfinite(v)) return put(out, "null");
  constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53
  if (v == std::floor(v) && v >= -kMaxExactInt && v <= kMaxExactInt) {
    // Sign emitted separately so -0.0 round-trips as "-0".
    if (std::signbit(v)) *out++ = '-';
    return put_int(out, static_cast<std::int64_t>(std::fabs(v)));
  }
#if defined(__cpp_lib_to_chars)
  return std::to_chars(out, out + kNumberBytes, v).ptr;
#else
  return out + std::snprintf(out, kNumberBytes, "%.17g", v);
#endif
}

// --- escape scan --------------------------------------------------------------

constexpr std::uint64_t kOnes = 0x0101010101010101ULL;

/// Eight bytes of `p` as an integer whose low byte is p[0].
std::uint64_t load_word(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
  return w;
}

/// High bit set in each byte of `w` that JSON output escapes: below 0x20,
/// '"', '\\' or DEL (0x7f). This is the "has a byte below n" test,
/// (x - n * kOnes) & ~x & highs, once against 0x20 and once against 1 for
/// each of the three bytes XORed to zero; `~x & highs` is the same for all
/// four since the XORed values are below 0x80, and it keeps bytes >= 0x80
/// (UTF-8) unflagged. The test flags the lowest matching byte exactly and
/// can flag a clean byte only above one that matched (through the
/// subtraction's borrow), so the lowest set bit is always a byte that
/// needs escaping, and a clean word gives 0.
std::uint64_t escape_mask(std::uint64_t w) {
  const std::uint64_t borrows = (w - kOnes * 0x20) | ((w ^ (kOnes * '"')) - kOnes) |
                                ((w ^ (kOnes * '\\')) - kOnes) | ((w ^ (kOnes * 0x7f)) - kOnes);
  return borrows & ~w & (kOnes * 0x80);
}

bool needs_escape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\' || c == 0x7f; }

/// Copy the bytes of [p, end) up to the first one JSON escapes and return
/// how many that is. Words are stored whole as they are scanned, so bytes
/// past the returned count (but before `end - p`) may be written too.
/// Loads never reach past `end`: a tail shorter than a word is scanned as
/// the last whole word of the range, overlapping bytes already found
/// clean, and a range shorter than a word byte by byte.
std::size_t copy_clean(char* out, const char* p, const char* end) {
  const auto n = static_cast<std::size_t>(end - p);
  if (n < 8) {
    std::size_t i = 0;
    for (; i < n && !needs_escape(static_cast<unsigned char>(p[i])); ++i) out[i] = p[i];
    return i;
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::memcpy(out + i, p + i, 8);
    if (const std::uint64_t mask = escape_mask(load_word(p + i))) {
      return i + static_cast<std::size_t>(std::countr_zero(mask)) / 8;
    }
  }
  if (i == n) return n;
  // The overlapped low bytes are clean, so the lowest flag is in the tail.
  std::memcpy(out + n - 8, end - 8, 8);
  const std::uint64_t mask = escape_mask(load_word(end - 8));
  return mask == 0 ? n : n - 8 + static_cast<std::size_t>(std::countr_zero(mask)) / 8;
}

/// The escape of one byte escape_mask() flags.
char* put_escape(char* out, unsigned char c) {
  *out++ = '\\';
  switch (c) {
    case '"': *out++ = '"'; break;
    case '\\': *out++ = '\\'; break;
    case '\n': *out++ = 'n'; break;
    case '\r': *out++ = 'r'; break;
    case '\t': *out++ = 't'; break;
    case '\b': *out++ = 'b'; break;
    case '\f': *out++ = 'f'; break;
    default: {
      // Other control characters must be escaped per JSON; DEL is escaped
      // too so exported traces stay printable.
      constexpr char kHex[] = "0123456789abcdef";
      out = put(out, "u00");
      *out++ = kHex[c >> 4];
      *out++ = kHex[c & 0xf];
    }
  }
  return out;
}

/// Bound of put_string(s): every byte may become a six-byte \u00XX escape.
constexpr std::size_t string_bound(std::size_t len) { return 6 * len + 2; }

/// `s` as a quoted JSON string. Clean runs are copied a word at a time.
char* put_string(char* out, std::string_view s) {
  *out++ = '"';
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p != end) {
    const std::size_t clean = copy_clean(out, p, end);
    out += clean;
    p += clean;
    if (p == end) break;
    out = put_escape(out, static_cast<unsigned char>(*p++));
  }
  *out++ = '"';
  return out;
}

// --- events -----------------------------------------------------------------

constexpr std::size_t kMaxArgs =
    TagMap::capacity() + InlineTagMap::kCapacity + MetricMap::capacity();

/// Bound on an event's bytes other than its strings' text: keys,
/// punctuation and full-width numbers. A span-JSON event, the wider shape,
/// needs at most 242 plus 2 per arg and one number per metric.
constexpr std::size_t kEventFixedBytes =
    256 + 2 * kMaxArgs + kNumberBytes * MetricMap::capacity();

/// Append one ','-prefixed event for `s` to `chunk`. Every string is
/// resolved once, the event is bounded by the strings' lengths, and then
/// written through one cursor.
void put_event(Chunk& chunk, ExportFormat format, const Span& s, SpanId parent) {
  const bool chrome = format == ExportFormat::kChromeTrace;
  // Arg keys in emission order (tags, inline tags, metrics), then the
  // string values of the tags and inline tags. Inline value tags read
  // exactly like interned tags in the JSON — the storage difference
  // (span-resident bytes vs StringTable ids) is a producer-side memory
  // decision, not a consumer-visible one.
  std::string_view keys[kMaxArgs];
  std::string_view values[TagMap::capacity() + InlineTagMap::kCapacity];
  std::size_t n_keys = 0;
  std::size_t n_values = 0;
  for (const auto& e : s.tags) {
    keys[n_keys++] = e.key.view();
    values[n_values++] = e.value.view();
  }
  for (const auto& e : s.inline_tags) {
    keys[n_keys++] = e.key.view();
    values[n_values++] = e.value();
  }
  for (const auto& e : s.metrics) keys[n_keys++] = e.key.view();
  const std::string_view name = s.name.view();
  const std::string_view label = chrome ? level_name(s.level) : kind_name(s.kind);
  const std::string_view tracer = chrome ? std::string_view() : s.tracer.view();

  std::size_t bound = kEventFixedBytes + string_bound(name.size()) +
                      string_bound(label.size()) + string_bound(tracer.size());
  for (std::size_t i = 0; i < n_keys; ++i) bound += string_bound(keys[i].size());
  for (std::size_t i = 0; i < n_values; ++i) bound += string_bound(values[i].size());
  char* const start = chunk.reserve(bound);
  char* out = start;

  if (chrome) {
    out = put(out, ",{\"ph\":\"X\",\"pid\":1,\"tid\":");
    out = put_int(out, s.level);
    out = put(out, ",\"name\":");
    out = put_string(out, name);
    out = put(out, ",\"cat\":");
    out = put_string(out, label);
    // Trace-event timestamps are microseconds.
    out = put(out, ",\"ts\":");
    out = put_us_from_ns(out, s.begin);
    out = put(out, ",\"dur\":");
    out = put_us_from_ns(out, s.duration());
    out = put(out, ",");
  } else {
    out = put(out, ",{\"id\":");
    out = put_uint(out, s.id);
    out = put(out, ",\"parent\":");
    out = put_uint(out, parent);
    out = put(out, ",\"level\":");
    out = put_int(out, s.level);
    out = put(out, ",\"kind\":");
    out = put_string(out, label);
    out = put(out, ",\"name\":");
    out = put_string(out, name);
    out = put(out, ",\"tracer\":");
    out = put_string(out, tracer);
    out = put(out, ",\"begin_ns\":");
    out = put_int(out, s.begin);
    out = put(out, ",\"end_ns\":");
    out = put_int(out, s.end);
    out = put(out, ",\"correlation_id\":");
    out = put_uint(out, s.correlation_id);
    out = put(out, ",");
    if (s.dropped_annotations > 0) {
      out = put(out, "\"dropped_annotations\":");
      out = put_uint(out, s.dropped_annotations);
      out = put(out, ",");
    }
  }
  out = put(out, "\"args\":{");
  std::size_t k = 0;
  for (std::size_t i = 0; i < n_values; ++i, ++k) {
    if (k != 0) *out++ = ',';
    out = put_string(out, keys[k]);
    *out++ = ':';
    out = put_string(out, values[i]);
  }
  for (const auto& e : s.metrics) {
    if (k != 0) *out++ = ',';
    out = put_string(out, keys[k++]);
    *out++ = ':';
    out = put_number(out, e.value);
  }
  out = put(out, "}}");
  assert(static_cast<std::size_t>(out - start) <= bound);
  chunk.commit(out);
}

}  // namespace

const char* export_format_name(ExportFormat f) {
  switch (f) {
    case ExportFormat::kChromeTrace: return "chrome_trace";
    case ExportFormat::kSpanJson: return "span_json";
    case ExportFormat::kBinary: return "binary";
  }
  return "?";
}

StreamingExporter::StreamingExporter(ExportFormat format, WriteFn sink, bool with_metadata)
    : format_(format),
      with_metadata_(format == ExportFormat::kSpanJson && with_metadata),
      sink_(std::move(sink)) {
  if (format_ == ExportFormat::kBinary) {
    throw std::invalid_argument(
        "StreamingExporter: ExportFormat::kBinary is BinaryWriter's format (wire.hpp)");
  }
  if (format_ == ExportFormat::kChromeTrace) {
    sink_.write("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  } else {
    sink_.write(with_metadata_ ? "{\"spans\":[" : "[");
  }
}

StreamingExporter::StreamingExporter(ExportFormat format, std::ostream& os, bool with_metadata)
    : StreamingExporter(
          format,
          [out = &os](std::string_view chunk) {
            out->write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
          },
          with_metadata) {}

StreamingExporter::~StreamingExporter() {
  try {
    finish();
  } catch (...) {
    // A sink failing during unwind must not terminate; explicit finish()
    // is the path that propagates sink errors.
  }
}

void StreamingExporter::append_chunk_locked(std::string_view chunk, std::uint64_t span_count) {
  // A write after finish() (e.g. a drain subscriber still attached on a
  // kAsync server) must not corrupt the already-footered document: assert
  // in debug, drop the events in release. Detach subscribers before
  // finishing to not lose spans.
  assert(!finished_ && "StreamingExporter: write after finish()");
  if (finished_ || chunk.empty()) return;
  // Every event in a chunk is ','-prefixed; the document-first event drops
  // the separator here, under the lock, where "first" is well-defined.
  if (!wrote_event_) chunk.remove_prefix(1);
  wrote_event_ = true;
  sink_.write(chunk);
  spans_written_ += span_count;
}

template <typename ForEach>
void StreamingExporter::write_events(ForEach&& for_each) {
  // A chunk that reaches the flush threshold is spliced whole, which the
  // FrameSink hands to the sink without copying it through its buffer.
  Chunk& chunk = tls_chunk();
  chunk.clear();
  std::uint64_t events = 0;
  const auto splice = [&] {
    std::lock_guard lk(mu_);
    append_chunk_locked(chunk.view(), events);
    chunk.clear();
    events = 0;
  };
  for_each([&](const Span& span, SpanId parent) {
    put_event(chunk, format_, span, parent);
    ++events;
    if (chunk.view().size() >= kFlushThreshold) splice();
  });
  if (events != 0) splice();
}

void StreamingExporter::write_span(const Span& span, SpanId parent) {
  write_events([&](const auto& emit) { emit(span, parent); });
}

void StreamingExporter::write_batch(const SpanBatch& batch) {
  write_events([&](const auto& emit) {
    for (const Span& s : batch) emit(s, s.parent);
  });
}

void StreamingExporter::write_batches(const SpanBatches& batches) {
  write_events([&](const auto& emit) {
    for (const SpanBatch& batch : batches) {
      for (const Span& s : batch) emit(s, s.parent);
    }
  });
}

void StreamingExporter::write_timeline(const Timeline& timeline) {
  write_events([&](const auto& emit) {
    timeline.walk([&](const TimelineNode& node, int /*depth*/) { emit(node.span, node.parent); });
  });
}

void StreamingExporter::set_meta(const TraceMeta& meta) {
  std::lock_guard lk(mu_);
  meta_ = meta;
}

void StreamingExporter::set_footer_section(std::string key, std::string json_value) {
  std::lock_guard lk(mu_);
  for (auto& [k, v] : footer_sections_) {
    if (k == key) {
      v = std::move(json_value);
      return;
    }
  }
  footer_sections_.emplace_back(std::move(key), std::move(json_value));
}

void StreamingExporter::finish() {
  std::lock_guard lk(mu_);
  if (finished_) return;
  std::string out;
  if (format_ == ExportFormat::kChromeTrace) {
    // Name the per-level tracks.
    for (const int level : {kApplicationLevel, kModelLevel, kLayerLevel, kLibraryLevel,
                            kKernelLevel}) {
      out += ",{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(level) +
             ",\"name\":\"thread_name\",\"args\":{\"name\":";
      append_json_string(out, level_name(level));
      out += "}}";
    }
    append_chunk_locked(out, 0);
    sink_.write("]}");
  } else {
    // export_bytes reports the cost of everything before the footer
    // (prologue + spans), so it is read before the footer text is built.
    const std::uint64_t export_bytes = sink_.bytes_written();
    out += ']';
    if (with_metadata_) {
      out += ",\"metadata\":{";
      for (const MetaField& field : kMetaFields) {
        append_json_string(out, field.key);
        out += ':' + std::to_string(meta_.*field.member) + ',';
      }
      out += "\"span_count\":" + std::to_string(spans_written_) + ",\"export_format\":";
      append_json_string(out, export_format_name(format_));
      out += ",\"export_bytes\":" + std::to_string(export_bytes);
      for (const auto& [key, value] : footer_sections_) {
        out += ',';
        append_json_string(out, key);
        out += ':' + value;
      }
      out += "}}";
    }
    sink_.write(out);
  }
  finished_ = true;
  sink_.flush();
}

std::uint64_t StreamingExporter::spans_written() const {
  std::lock_guard lk(mu_);
  return spans_written_;
}

void append_json_string(std::string& out, std::string_view s) {
  const std::size_t at = out.size();
  out.resize(at + string_bound(s.size()));
  out.resize(static_cast<std::size_t>(put_string(out.data() + at, s) - out.data()));
}

namespace {

/// The materializing wrappers: the streaming core over an assembled
/// timeline, collected into one string, so their bytes are the streaming
/// exporter's bytes by construction.
std::string export_timeline(const Timeline& timeline, ExportFormat format,
                            const TraceMeta* meta) {
  // Size the string once. An event is ~300 B in a leveled run, so 512 B
  // per span rarely leaves a regrowth; pages past the written end are
  // never touched. Growing by doubling instead copies the document
  // log2(size) times and first-touches about twice its size.
  constexpr std::size_t kReserveBytesPerSpan = 512;
  std::string out;
  out.reserve(timeline.size() * kReserveBytesPerSpan);
  StreamingExporter exporter(
      format, [&out](std::string_view chunk) { out.append(chunk); }, meta != nullptr);
  if (meta != nullptr) exporter.set_meta(*meta);
  exporter.write_timeline(timeline);
  exporter.finish();
  return out;
}

}  // namespace

std::string to_chrome_trace(const Timeline& timeline) {
  return export_timeline(timeline, ExportFormat::kChromeTrace, nullptr);
}

std::string to_span_json(const Timeline& timeline) {
  return export_timeline(timeline, ExportFormat::kSpanJson, nullptr);
}

std::string to_span_json(const Timeline& timeline, const TraceMeta& meta) {
  return export_timeline(timeline, ExportFormat::kSpanJson, &meta);
}

}  // namespace xsp::trace
