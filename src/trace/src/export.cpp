#include "xsp/trace/export.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace xsp::trace {

namespace {

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

/// Fixed-point microseconds from integer nanoseconds: 123456789 ->
/// "123456.789", trailing zeros trimmed ("1234.5", "1234"). Exact for the
/// whole TimePoint range — the default-precision double streaming this
/// replaces rounded any timestamp past ~1 s to 6 significant digits.
void append_us_from_ns(std::string& out, Ns ns) {
  std::uint64_t mag;
  if (ns < 0) {
    out += '-';
    mag = ~static_cast<std::uint64_t>(ns) + 1;
  } else {
    mag = static_cast<std::uint64_t>(ns);
  }
  append_uint(out, mag / 1000);
  const unsigned frac = static_cast<unsigned>(mag % 1000);
  if (frac != 0) {
    const char digits[4] = {'.', static_cast<char>('0' + frac / 100),
                            static_cast<char>('0' + (frac / 10) % 10),
                            static_cast<char>('0' + frac % 10)};
    std::size_t len = 4;
    while (digits[len - 1] == '0') --len;
    out.append(digits, len);
  }
}

/// JSON number from a double: integers up to 2^53 print exactly via the
/// integer path; every other finite value prints the shortest string that
/// round-trips (std::to_chars) — the old "%.6g" truncated large byte/flop
/// counters. Non-finite values have no JSON representation; emit null.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53
  if (v == std::floor(v) && v >= -kMaxExactInt && v <= kMaxExactInt) {
    // Sign emitted separately so -0.0 round-trips as "-0".
    if (std::signbit(v)) out += '-';
    append_int(out, static_cast<std::int64_t>(std::fabs(v)));
    return;
  }
#if defined(__cpp_lib_to_chars)
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
#else
  char buf[32];
  out.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof buf, "%.17g", v)));
#endif
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        // Control characters must be escaped per JSON; DEL is escaped too
        // so exported traces stay printable. Bytes >= 0x80 pass through
        // untouched (UTF-8 sequences are valid JSON string content).
        if (u < 0x20 || u == 0x7f) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
      }
    }
  }
  out += '"';
}

void append_args(std::string& out, const Span& span) {
  out += "\"args\":{";
  bool first = true;
  for (const auto& e : span.tags) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, e.key.view());
    out += ':';
    append_escaped(out, e.value.view());
  }
  // Inline value tags read exactly like interned tags in the JSON — the
  // storage difference (span-resident bytes vs StringTable ids) is a
  // producer-side memory decision, not a consumer-visible one.
  for (const auto& e : span.inline_tags) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, e.key.view());
    out += ':';
    append_escaped(out, e.value());
  }
  for (const auto& e : span.metrics) {
    if (!first) out += ',';
    first = false;
    append_escaped(out, e.key.view());
    out += ':';
    append_number(out, e.value);
  }
  out += '}';
}

/// Per-thread event-formatting scratch: batches are serialized here outside
/// the sink lock, so concurrent shard exporters only contend to splice
/// finished chunks. Reused across calls — its capacity is bounded by the
/// largest single batch formatted on this thread, not by trace length.
std::string& tls_scratch() {
  thread_local std::string scratch;
  return scratch;
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

void StreamingExporter::append_event(std::string& out, const Span& s, SpanId parent) const {
  if (format_ == ExportFormat::kChromeTrace) {
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    append_int(out, s.level);
    out += ",\"name\":";
    append_escaped(out, s.name.view());
    out += ",\"cat\":";
    append_escaped(out, level_name(s.level));
    // Trace-event timestamps are microseconds.
    out += ",\"ts\":";
    append_us_from_ns(out, s.begin);
    out += ",\"dur\":";
    append_us_from_ns(out, s.duration());
    out += ',';
    append_args(out, s);
    out += '}';
  } else {
    out += "{\"id\":";
    append_uint(out, s.id);
    out += ",\"parent\":";
    append_uint(out, parent);
    out += ",\"level\":";
    append_int(out, s.level);
    out += ",\"kind\":";
    append_escaped(out, kind_name(s.kind));
    out += ",\"name\":";
    append_escaped(out, s.name.view());
    out += ",\"tracer\":";
    append_escaped(out, s.tracer.view());
    out += ",\"begin_ns\":";
    append_int(out, s.begin);
    out += ",\"end_ns\":";
    append_int(out, s.end);
    out += ",\"correlation_id\":";
    append_uint(out, s.correlation_id);
    out += ',';
    if (s.dropped_annotations > 0) {
      out += "\"dropped_annotations\":";
      append_uint(out, s.dropped_annotations);
      out += ',';
    }
    append_args(out, s);
    out += '}';
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

void StreamingExporter::write_span(const Span& span, SpanId parent) {
  std::string& scratch = tls_scratch();
  scratch.clear();
  scratch += ',';
  append_event(scratch, span, parent);
  std::lock_guard lk(mu_);
  append_chunk_locked(scratch, 1);
}

void StreamingExporter::write_batch(const SpanBatch& batch) {
  if (batch.empty()) return;
  std::string& scratch = tls_scratch();
  scratch.clear();
  for (const Span& s : batch) {
    scratch += ',';
    append_event(scratch, s, s.parent);
  }
  std::lock_guard lk(mu_);
  append_chunk_locked(scratch, batch.size());
}

void StreamingExporter::write_batches(const SpanBatches& batches) {
  // One batch at a time: scratch stays bounded by a single batch even when
  // a final flush() drains a long backlog in one subscriber call.
  for (const SpanBatch& batch : batches) write_batch(batch);
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
  if (format_ == ExportFormat::kChromeTrace) {
    // Name the per-level tracks.
    std::string& scratch = tls_scratch();
    scratch.clear();
    for (const int level : {kApplicationLevel, kModelLevel, kLayerLevel, kLibraryLevel,
                            kKernelLevel}) {
      scratch += ",{\"ph\":\"M\",\"pid\":1,\"tid\":";
      append_int(scratch, level);
      scratch += ",\"name\":\"thread_name\",\"args\":{\"name\":";
      append_escaped(scratch, level_name(level));
      scratch += "}}";
    }
    append_chunk_locked(scratch, 0);
    sink_.write("]}");
  } else {
    // export_bytes reports the cost of everything before the footer
    // (prologue + spans), so it is read before the footer text is built.
    const std::uint64_t export_bytes = sink_.bytes_written();
    std::string& out = tls_scratch();
    out.clear();
    out += ']';
    if (with_metadata_) {
      out += ",\"metadata\":{\"dropped_annotations\":";
      append_uint(out, meta_.dropped_annotations);
      out += ",\"shard_count\":";
      append_uint(out, meta_.shard_count);
      out += ",\"interned_strings\":";
      append_uint(out, meta_.interned_strings);
      out += ",\"interned_bytes\":";
      append_uint(out, meta_.interned_bytes);
      out += ",\"live_slots\":";
      append_uint(out, meta_.live_slots);
      out += ",\"retired_slots\":";
      append_uint(out, meta_.retired_slots);
      out += ",\"slot_bytes\":";
      append_uint(out, meta_.slot_bytes);
      out += ",\"remote_dropped_spans\":";
      append_uint(out, meta_.remote_dropped_spans);
      out += ",\"remote_reconnects\":";
      append_uint(out, meta_.remote_reconnects);
      out += ",\"sampled_kept\":";
      append_uint(out, meta_.sampled_kept);
      out += ",\"sampled_dropped\":";
      append_uint(out, meta_.sampled_dropped);
      out += ",\"strtab_budget_bytes\":";
      append_uint(out, meta_.strtab_budget_bytes);
      out += ",\"rejected_interns\":";
      append_uint(out, meta_.rejected_interns);
      out += ",\"span_count\":";
      append_uint(out, spans_written_);
      out += ",\"export_format\":";
      append_escaped(out, export_format_name(format_));
      out += ",\"export_bytes\":";
      append_uint(out, export_bytes);
      for (const auto& [key, value] : footer_sections_) {
        out += ',';
        append_escaped(out, key);
        out += ':';
        out += value;
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

namespace {

/// Drive the streaming core over an assembled timeline into one string —
/// the materializing wrappers are this and nothing else, so their bytes
/// are the streaming exporter's bytes by construction.
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
  timeline.walk(
      [&exporter](const TimelineNode& node, int /*depth*/) {
        exporter.write_span(node.span, node.parent);
      });
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
