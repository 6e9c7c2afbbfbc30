// Prometheus text-exposition parsing (format 0.0.4) — the read side of
// registry.hpp's write_prometheus().
//
// Tools that scrape a /metrics endpoint (xsp_cli top --daemon) need to get
// the value out of lines like
//
//   xsp_ingested_spans_total 4242
//   xsp_connection_spans_total{conn="3"} 17
//   xsp_producer_heartbeat_age_seconds{conn="3"} 0.25 1723111465000
//
// where the third, optional field is a millisecond timestamp. Splitting a
// line at its *last* space — the obvious one-liner — silently parses the
// timestamp as the value whenever one is present, which is exactly the
// bug this module replaces. The grammar is parsed left-to-right instead:
// name, optional `{...}` label block (quote- and escape-aware: a label
// value may contain spaces, braces, and escaped quotes), value, optional
// timestamp. Malformed lines report as such instead of yielding garbage.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace xsp::metrics {

/// One parsed sample line. `name` and `labels` are views into the caller's
/// line — valid only while the scraped body is.
struct ExpositionSample {
  /// Metric name, suffixes included ("xsp_foo_total", "xsp_bar_bucket").
  std::string_view name;
  /// Raw text between the braces (`k="v",k2="v2"`), without the braces;
  /// empty for an unlabeled sample. Decode one key with label_value().
  std::string_view labels;
  double value = 0;
  /// Optional trailing timestamp (milliseconds since epoch).
  bool has_timestamp = false;
  std::int64_t timestamp_ms = 0;
};

/// Parse one line of the text exposition. Returns true and fills `out`
/// for a sample line; false for blank lines, `#` comment/metadata lines,
/// and malformed input (no value, unterminated label block, trailing
/// garbage). A trailing '\r' (CRLF transport) is tolerated.
[[nodiscard]] bool parse_exposition_line(std::string_view line, ExpositionSample& out);

/// Look up `key` in a raw label block (`k="v",...`) and return its value
/// with exposition escapes (\\, \", \n) decoded; nullopt when absent.
[[nodiscard]] std::optional<std::string> label_value(std::string_view labels,
                                                     std::string_view key);

}  // namespace xsp::metrics
