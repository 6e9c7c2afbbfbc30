// trace::kMetaFields is the one schema of run telemetry: every row must
// reach every surface with its own value — the binary footer, the
// span-JSON footer (in table order) and RunTrace.
#include "xsp/trace/trace_meta.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>

#include "../trace/json_check.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::profile {
namespace {

using trace::kMetaFields;
using trace::MetaField;
using trace::TraceMeta;

// The footer is the stream's own accounting, then TraceMeta verbatim.
static_assert(offsetof(trace::wire::Footer, meta) == 16);
static_assert(sizeof(trace::wire::Footer) == 112);

TEST(TraceMetaSchema, EveryFieldRoundTripsThroughEverySurface) {
  // A distinct value per row, set through the member pointers.
  RunTrace run;
  std::uint64_t value = 1000;
  for (const MetaField& field : kMetaFields) run.*field.member = value++;
  const TraceMeta& meta = run.trace_meta();

  // Rows follow the struct's member order, so the JSON key order is the
  // wire footer's byte order.
  for (std::size_t i = 0; i < std::size(kMetaFields); ++i) {
    const auto* field = reinterpret_cast<const char*>(&(meta.*kMetaFields[i].member));
    EXPECT_EQ(field - reinterpret_cast<const char*>(&meta),
              static_cast<std::ptrdiff_t>(i * sizeof(std::uint64_t)))
        << kMetaFields[i].key;
  }

  std::string bytes;
  trace::BinaryWriter writer([&bytes](std::string_view chunk) { bytes.append(chunk); });
  writer.set_meta(meta);
  writer.finish();
  std::istringstream in(bytes);
  trace::BinaryReader reader(in);
  (void)reader.read_all();
  ASSERT_TRUE(reader.saw_footer());

  std::string json;
  trace::StreamingExporter exporter(
      trace::ExportFormat::kSpanJson, [&json](std::string_view chunk) { json.append(chunk); },
      /*with_metadata=*/true);
  exporter.set_meta(meta);
  exporter.finish();
  ASSERT_TRUE(trace::testjson::valid_json(json)) << json;
  std::size_t pos = json.find("\"metadata\":{");
  ASSERT_NE(pos, std::string::npos) << json;

  value = 1000;
  for (const MetaField& field : kMetaFields) {
    const std::uint64_t expected = value++;
    EXPECT_EQ(meta.*field.member, expected) << field.key;
    EXPECT_EQ(reader.meta().*field.member, expected) << field.key;
    const std::string key = '"' + std::string(field.key) + "\":";
    EXPECT_EQ(trace::testjson::count_occurrences(json, key), 1u) << field.key;
    const std::string entry = key + std::to_string(expected) + ',';
    const std::size_t at = json.find(entry, pos);
    ASSERT_NE(at, std::string::npos) << entry << " missing or out of table order in " << json;
    pos = at + entry.size();
  }
}

}  // namespace
}  // namespace xsp::profile
