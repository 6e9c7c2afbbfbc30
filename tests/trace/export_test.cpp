#include "xsp/trace/export.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "json_check.hpp"

namespace xsp::trace {
namespace {

using testjson::valid_json;

Timeline sample_timeline() {
  std::vector<Span> spans;
  Span model;
  model.id = 1;
  model.level = kModelLevel;
  model.name = "Model Prediction";
  model.tracer = "model_timer";
  model.begin = 0;
  model.end = ms(10);
  spans.push_back(model);

  Span layer;
  layer.id = 2;
  layer.level = kLayerLevel;
  layer.name = "conv2d/Conv2D";
  layer.begin = us(100);
  layer.end = us(900);
  layer.tags.set("layer_type", "Conv2D");
  layer.metrics.set("alloc_bytes", 1024);
  spans.push_back(layer);
  return Timeline::assemble(spans);
}

TEST(Export, ChromeTraceHasCompleteEvents) {
  const auto json = to_chrome_trace(sample_timeline());
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Model Prediction\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"conv2d/Conv2D\""), std::string::npos);
  // Duration of the model span: 10 ms = 10000 us.
  EXPECT_NE(json.find("\"dur\":10000"), std::string::npos);
}

TEST(Export, ChromeTraceNamesLevelTracks) {
  const auto json = to_chrome_trace(sample_timeline());
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"gpu_kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"layer\""), std::string::npos);
}

TEST(Export, ArgsCarryTagsAndMetrics) {
  const auto json = to_chrome_trace(sample_timeline());
  EXPECT_NE(json.find("\"layer_type\":\"Conv2D\""), std::string::npos);
  EXPECT_NE(json.find("\"alloc_bytes\":1024"), std::string::npos);
}

TEST(Export, SpanJsonRoundTripsStructure) {
  const auto json = to_span_json(sample_timeline());
  EXPECT_NE(json.find("\"id\":1"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);  // layer -> model
  EXPECT_NE(json.find("\"begin_ns\":100000"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"regular\""), std::string::npos);
}

TEST(Export, EscapesSpecialCharacters) {
  std::vector<Span> spans;
  Span s;
  s.id = 1;
  s.level = kKernelLevel;
  s.name = "Eigen::TensorCwiseBinaryOp<scalar_max_op<float>, \"quoted\">\n";
  s.begin = 0;
  s.end = 1;
  spans.push_back(s);
  const auto json = to_chrome_trace(Timeline::assemble(spans));
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // no raw newlines
}

TEST(Export, SpanJsonWithMetaWrapsSpansAndSurfacesTelemetry) {
  TraceMeta meta;
  meta.dropped_annotations = 7;
  meta.shard_count = 4;
  meta.interned_strings = 123;
  meta.interned_bytes = 4567;
  meta.live_slots = 3;
  meta.retired_slots = 9999;
  meta.slot_bytes = 151 * 1024;
  meta.remote_dropped_spans = 42;
  meta.remote_reconnects = 2;
  meta.sampled_kept = 750;
  meta.sampled_dropped = 250;
  meta.strtab_budget_bytes = 1 << 20;
  meta.rejected_interns = 31;
  const auto json = to_span_json(sample_timeline(), meta);
  // Metadata lives in the footer — the streaming layout, where telemetry
  // totals are only final after the last span has been written.
  EXPECT_EQ(json.find("{\"spans\":[{"), 0u);
  EXPECT_NE(json.find("\"metadata\":{\"dropped_annotations\":7,\"shard_count\":4,"
                      "\"interned_strings\":123,\"interned_bytes\":4567,"
                      "\"live_slots\":3,\"retired_slots\":9999,\"slot_bytes\":154624,"
                      "\"remote_dropped_spans\":42,\"remote_reconnects\":2,"
                      "\"sampled_kept\":750,\"sampled_dropped\":250,"
                      "\"strtab_budget_bytes\":1048576,\"rejected_interns\":31,"
                      "\"span_count\":2,\"export_format\":\"span_json\","
                      "\"export_bytes\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"id\":1"), std::string::npos);
  EXPECT_TRUE(valid_json(json));
}

TEST(Export, EmptyTimelineIsValidJson) {
  const auto chrome = to_chrome_trace(Timeline::assemble(std::vector<Span>{}));
  EXPECT_EQ(chrome.find("\"ph\":\"X\""), std::string::npos);
  // Regression: the pre-streaming exporter emitted "[,{" for an empty
  // timeline (track-name events always comma-prefixed).
  EXPECT_TRUE(valid_json(chrome));
  EXPECT_EQ(to_span_json(Timeline::assemble(std::vector<Span>{})), "[]");
}

// --- timestamp/metric precision regressions --------------------------------

TEST(Export, ChromeTimestampsStayExactPastOneSecond) {
  // > 1 s of trace: 6-significant-digit double streaming (the old path)
  // rounded 2500123.456 us to 2.50012e+06, snapping spans off their true
  // positions by up to a millisecond.
  std::vector<Span> spans;
  Span s;
  s.id = 1;
  s.level = kKernelLevel;
  s.name = "late_kernel";
  s.begin = 2'500'123'456;          // ns -> ts 2500123.456 us, exactly
  s.end = s.begin + 1'000'001;      // -> dur 1000.001 us, exactly
  spans.push_back(s);
  const auto json = to_chrome_trace(Timeline::assemble(spans));
  EXPECT_NE(json.find("\"ts\":2500123.456,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":1000.001,"), std::string::npos) << json;
  EXPECT_EQ(json.find("e+"), std::string::npos) << "timestamps must be fixed-point";
  EXPECT_TRUE(valid_json(json));
}

TEST(Export, ChromeTimestampsTrimTrailingZeros) {
  std::vector<Span> spans;
  Span s;
  s.id = 1;
  s.name = "k";
  s.begin = 1'500;  // 1.5 us
  s.end = 3'500;    // dur 2 us exactly
  spans.push_back(s);
  const auto json = to_chrome_trace(Timeline::assemble(spans));
  EXPECT_NE(json.find("\"ts\":1.5,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":2,"), std::string::npos) << json;
}

TEST(Export, SpanWhoseDurationOverflowsExports) {
  // A decoded span with begin near INT64_MIN: end - begin does not fit in
  // Ns. Both exports print it, with the Chrome duration saturated.
  std::vector<Span> spans;
  Span s;
  s.id = 1;
  s.name = "decoded";
  s.begin = std::numeric_limits<Ns>::min() + 3;
  s.end = 1'000;
  spans.push_back(s);
  const Timeline timeline = Timeline::assemble(spans);

  const auto json = to_span_json(timeline);
  EXPECT_NE(json.find("\"begin_ns\":-9223372036854775805,\"end_ns\":1000,"),
            std::string::npos)
      << json;
  EXPECT_TRUE(valid_json(json));

  const auto chrome = to_chrome_trace(timeline);
  EXPECT_NE(chrome.find("\"dur\":9223372036854775.807,"), std::string::npos) << chrome;
  EXPECT_TRUE(valid_json(chrome));
}

TEST(Export, LargeIntegerMetricsPrintExactly) {
  // Byte/flop counters: the old "%.6g" collapsed 1099511627776 to
  // 1.09951e+12. Integers up to 2^53 must print exactly.
  std::vector<Span> spans;
  Span s;
  s.id = 1;
  s.name = "kernel";
  s.begin = 0;
  s.end = 1;
  s.metrics.set("dram_read_bytes", 1099511627776.0);              // 2^40
  s.metrics.set("flop_count_sp", 9007199254740992.0);             // 2^53
  s.metrics.set("achieved_occupancy", 0.125);
  spans.push_back(s);
  const auto json = to_span_json(Timeline::assemble(spans));
  EXPECT_NE(json.find("\"dram_read_bytes\":1099511627776"), std::string::npos) << json;
  EXPECT_NE(json.find("\"flop_count_sp\":9007199254740992"), std::string::npos) << json;
  EXPECT_NE(json.find("\"achieved_occupancy\":0.125"), std::string::npos) << json;
  EXPECT_TRUE(valid_json(json));
}

TEST(Export, NonIntegralMetricsRoundTrip) {
  std::vector<Span> spans;
  Span s;
  s.id = 1;
  s.name = "kernel";
  s.begin = 0;
  s.end = 1;
  const double third = 1.0 / 3.0;
  s.metrics.set("ratio", third);
  s.metrics.set("nan_metric", std::nan(""));
  s.metrics.set("neg_zero", -0.0);
  spans.push_back(s);
  const auto json = to_span_json(Timeline::assemble(spans));
  // Shortest-round-trip printing: parsing the emitted text recovers the
  // exact double.
  const auto pos = json.find("\"ratio\":");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(std::stod(json.substr(pos + 8)), third);
  EXPECT_NE(json.find("\"nan_metric\":null"), std::string::npos);
  EXPECT_NE(json.find("\"neg_zero\":-0"), std::string::npos);  // sign round-trips
  EXPECT_TRUE(valid_json(json));
}

TEST(Export, EscapingEdgeCasesSurviveARealJsonParse) {
  std::vector<Span> spans;
  Span s;
  s.id = 1;
  s.level = kKernelLevel;
  s.name = "name with \"quotes\" and \\backslashes\\";
  s.begin = 0;
  s.end = 1;
  s.tags.set("crlf", "line1\r\nline2");
  s.tags.set("del", std::string("before\x7f") + "after");
  s.tags.set("utf8", "µs → 畳み込み");  // multi-byte UTF-8 passes through raw
  s.tags.set("controls", std::string("\x01\x1f\b\f", 4));
  spans.push_back(s);
  for (const auto& json : {to_chrome_trace(Timeline::assemble(spans)),
                           to_span_json(Timeline::assemble(spans))}) {
    std::string error;
    EXPECT_TRUE(valid_json(json, &error)) << error << "\n" << json;
    EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
    EXPECT_NE(json.find("\\\\backslashes\\\\"), std::string::npos);
    EXPECT_NE(json.find("line1\\r\\nline2"), std::string::npos);
    EXPECT_NE(json.find("before\\u007fafter"), std::string::npos);
    EXPECT_NE(json.find("µs → 畳み込み"), std::string::npos);
    EXPECT_NE(json.find("\\u0001\\u001f\\b\\f"), std::string::npos);
    // No raw control bytes anywhere in the document.
    for (const char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  }
}

/// Reference escaper: the byte-at-a-time algorithm the exporter's word
/// scan replaced, kept here as the oracle for it.
std::string reference_escaped(std::string_view s) {
  std::string out = "\"";
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
  return out;
}

TEST(Export, EveryByteAtEveryOffsetEscapesLikeTheReference) {
  // Every byte value at every offset 0..16 of strings of length 1..24 (and
  // the empty string), so each byte lands at every position of an 8-byte
  // word, in the scanned words and in the tail. Each string is the span's
  // name, an interned tag value and an inline tag value at once.
  std::vector<std::string> texts = {""};
  for (std::size_t len = 1; len <= 24; ++len) {
    for (std::size_t offset = 0; offset <= 16 && offset < len; ++offset) {
      for (int byte = 0; byte <= 0xff; ++byte) {
        std::string text(len, 'x');
        text[offset] = static_cast<char>(byte);
        texts.push_back(std::move(text));
      }
    }
  }
  SpanBatch batch;
  batch.reserve(texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    Span s;
    s.id = i + 1;
    s.name = texts[i];
    s.begin = static_cast<TimePoint>(i);
    s.end = s.begin + 1;
    s.tags.set("tag", texts[i]);
    s.inline_tags.set("inline", texts[i]);
    ASSERT_EQ(s.inline_tags.value_or("inline"), texts[i]);
    batch.push_back(s);
  }
  std::string json;
  StreamingExporter exporter(ExportFormat::kSpanJson,
                             [&json](std::string_view chunk) { json.append(chunk); });
  exporter.write_batch(batch);
  exporter.finish();
  std::string error;
  ASSERT_TRUE(valid_json(json, &error)) << error;

  // Events appear in batch order; each field is checked where it sits.
  std::size_t pos = 0;
  const auto expect_field = [&](std::string_view key, const std::string& text) {
    const std::string field = std::string(key) + reference_escaped(text);
    pos = json.find(key, pos);
    ASSERT_NE(pos, std::string::npos);
    EXPECT_EQ(json.compare(pos, field.size(), field), 0)
        << "text of " << text.size() << " bytes: " << json.substr(pos, field.size());
    pos += field.size();
  };
  for (const std::string& text : texts) {
    expect_field("\"name\":", text);
    expect_field("\"tag\":", text);
    expect_field("\"inline\":", text);
  }
}

TEST(Export, AllExporterOutputsParseAsJson) {
  const auto timeline = sample_timeline();
  std::string error;
  EXPECT_TRUE(valid_json(to_chrome_trace(timeline), &error)) << error;
  EXPECT_TRUE(valid_json(to_span_json(timeline), &error)) << error;
  EXPECT_TRUE(valid_json(to_span_json(timeline, TraceMeta{3, 2}), &error)) << error;
}

TEST(Export, BalancedBracesSmokeCheck) {
  const auto json = to_chrome_trace(sample_timeline());
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace
}  // namespace xsp::trace
