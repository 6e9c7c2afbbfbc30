// Prometheus text-exposition parser (metrics/exposition.hpp): the read
// side xsp_cli top --daemon depends on. The regression pinned here: a line
// with a trailing timestamp ("name value ts") must parse the VALUE, not
// the timestamp — the old split-at-last-space parser got that wrong.
#include "xsp/metrics/exposition.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace xsp::metrics {
namespace {

ExpositionSample parse_ok(std::string_view line) {
  ExpositionSample s;
  EXPECT_TRUE(parse_exposition_line(line, s)) << "line: " << line;
  return s;
}

TEST(Exposition, ParsesPlainSample) {
  const ExpositionSample s = parse_ok("xsp_ingested_spans_total 4242");
  EXPECT_EQ(s.name, "xsp_ingested_spans_total");
  EXPECT_TRUE(s.labels.empty());
  EXPECT_DOUBLE_EQ(s.value, 4242.0);
  EXPECT_FALSE(s.has_timestamp);
}

TEST(Exposition, TimestampedSampleParsesValueNotTimestamp) {
  // The bug this parser replaces: rfind(' ') made the value 1723111465000.
  const ExpositionSample s = parse_ok("xsp_strtab_bytes 1536 1723111465000");
  EXPECT_EQ(s.name, "xsp_strtab_bytes");
  EXPECT_DOUBLE_EQ(s.value, 1536.0);
  EXPECT_TRUE(s.has_timestamp);
  EXPECT_EQ(s.timestamp_ms, 1723111465000);
}

TEST(Exposition, ParsesLabeledSamples) {
  const ExpositionSample s = parse_ok("xsp_connection_spans_total{conn=\"3\"} 17");
  EXPECT_EQ(s.name, "xsp_connection_spans_total");
  EXPECT_EQ(s.labels, "conn=\"3\"");
  EXPECT_DOUBLE_EQ(s.value, 17.0);
  const auto conn = label_value(s.labels, "conn");
  ASSERT_TRUE(conn.has_value());
  EXPECT_EQ(*conn, "3");
  EXPECT_FALSE(label_value(s.labels, "shard").has_value());
}

TEST(Exposition, LabeledAndTimestamped) {
  const ExpositionSample s =
      parse_ok("xsp_producer_outbox_spans{conn=\"7\",shard=\"1\"} 12 99");
  EXPECT_DOUBLE_EQ(s.value, 12.0);
  EXPECT_TRUE(s.has_timestamp);
  EXPECT_EQ(s.timestamp_ms, 99);
  EXPECT_EQ(*label_value(s.labels, "shard"), "1");
}

TEST(Exposition, QuotedLabelValuesMayContainSpacesBracesAndEscapes) {
  const ExpositionSample s =
      parse_ok(R"(job_info{desc="hello world {x}",path="a\\b\"c"} 1)");
  EXPECT_EQ(s.name, "job_info");
  EXPECT_DOUBLE_EQ(s.value, 1.0);
  EXPECT_EQ(*label_value(s.labels, "desc"), "hello world {x}");
  EXPECT_EQ(*label_value(s.labels, "path"), "a\\b\"c");
}

TEST(Exposition, ScientificAndSpecialValues) {
  EXPECT_DOUBLE_EQ(parse_ok("m 2.5e3").value, 2500.0);
  EXPECT_DOUBLE_EQ(parse_ok("m -0.25").value, -0.25);
  EXPECT_TRUE(std::isinf(parse_ok("m +Inf").value));
  EXPECT_TRUE(std::isnan(parse_ok("m NaN").value));
}

TEST(Exposition, ToleratesWhitespaceAndCrlf) {
  const ExpositionSample s = parse_ok("  xsp_foo_total   3   \r");
  EXPECT_EQ(s.name, "xsp_foo_total");
  EXPECT_DOUBLE_EQ(s.value, 3.0);
}

TEST(Exposition, RejectsCommentsBlanksAndMalformedLines) {
  ExpositionSample s;
  EXPECT_FALSE(parse_exposition_line("", s));
  EXPECT_FALSE(parse_exposition_line("   ", s));
  EXPECT_FALSE(parse_exposition_line("# HELP xsp_foo help text", s));
  EXPECT_FALSE(parse_exposition_line("# TYPE xsp_foo counter", s));
  EXPECT_FALSE(parse_exposition_line("name_without_value", s));
  EXPECT_FALSE(parse_exposition_line("name 12abc", s));            // garbage value
  EXPECT_FALSE(parse_exposition_line("name 1 2 3", s));            // trailing garbage
  EXPECT_FALSE(parse_exposition_line("name 1 not-a-timestamp", s));
  EXPECT_FALSE(parse_exposition_line("name{unterminated=\"v 1", s));  // no closing brace
}

}  // namespace
}  // namespace xsp::metrics
