// XSP binary wire format: round-trip fidelity against the JSON core,
// string-delta re-interning (including cross-process id remapping), the
// drain-subscriber seam, bounded writer memory, and — most of the file —
// hostile-input decoding: every malformed stream must be a clean
// WireError, never UB (this suite runs under the TSan and ASan+UBSan CI
// matrix).
#include "xsp/trace/wire.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_check.hpp"
#include "test_alloc_count.hpp"
#include "wire_builders.hpp"
#include "xsp/common/string_table.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/timeline.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/tracer.hpp"

namespace xsp::trace {
namespace {

using testjson::valid_json;

// --- helpers ----------------------------------------------------------------

Span make_span(SpanId id, TimePoint t) {
  Span s;
  s.id = id;
  s.name = "wire_op";
  s.tracer = "wire_test";
  s.begin = t;
  s.end = t + 10;
  return s;
}

/// Deterministic pseudo-random spans (seeded LCG — no global rng state),
/// exercising every field: kinds, levels, parents, correlation ids, full
/// and empty tag/metric sets, negative-ish times, non-finite-free doubles.
SpanBatches random_batches(std::uint64_t seed, std::size_t span_count) {
  std::uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  const std::vector<StrId> names = {"conv2d_k", "gemm_k", "relu_k", "memcpy_HtoD", "bn_k"};
  const std::vector<StrId> tag_keys = {"kind", "grid", "block", "layer_type"};
  const std::vector<StrId> tag_vals = {"kernel", "[128,1,1]", "[256,1,1]", "Conv2D"};
  const std::vector<StrId> metric_keys = {"flop_count_sp", "dram_read_bytes", "occupancy"};
  SpanBatches batches;
  SpanBatch batch;
  for (std::size_t i = 0; i < span_count; ++i) {
    Span s;
    s.id = i + 1;
    s.parent = next() % 4 == 0 ? kNoSpan : (next() % (i + 1));
    s.level = static_cast<int>(next() % 5);
    s.kind = static_cast<SpanKind>(next() % 3);
    s.name = names[next() % names.size()];
    s.tracer = "rng_tracer";
    s.begin = static_cast<TimePoint>(next());
    s.end = s.begin + static_cast<Ns>(next() % 1000000);
    s.correlation_id = next() % 7 == 0 ? 0 : next();
    const std::size_t tags = next() % (tag_keys.size() + 1);
    for (std::size_t t = 0; t < tags; ++t) s.tags.set(tag_keys[t], tag_vals[next() % 4]);
    const std::size_t metrics = next() % (metric_keys.size() + 1);
    for (std::size_t m = 0; m < metrics; ++m) {
      s.metrics.set(metric_keys[m], static_cast<double>(next()) * 1.25 - 1e9);
    }
    if (next() % 3 == 0) {
      // Inline value tags: per-span unique bytes that ride inside the
      // record rather than the string table.
      char rid[InlineTagMap::kValueCapacity + 1];
      std::snprintf(rid, sizeof rid, "rv-%llu", static_cast<unsigned long long>(next()));
      s.inline_tags.set(tag_keys[0], rid);
    }
    s.dropped_annotations = next() % 16 == 0 ? 2 : 0;
    batch.push_back(s);
    if (batch.size() == TraceServer::kBatchCapacity) {
      batches.push_back(std::move(batch));
      batch = SpanBatch();
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

std::string encode(const SpanBatches& batches, const TraceMeta* meta = nullptr) {
  std::string out;
  BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  if (meta != nullptr) writer.set_meta(*meta);
  writer.write_batches(batches);
  writer.finish();
  return out;
}

/// Stream batches through the JSON core exactly as a drain subscriber
/// does — the reference bytes a decode-then-re-export must reproduce.
std::string to_json(const SpanBatches& batches, const TraceMeta* meta = nullptr) {
  std::string out;
  StreamingExporter exporter(
      ExportFormat::kSpanJson, [&out](std::string_view chunk) { out.append(chunk); },
      /*with_metadata=*/meta != nullptr);
  if (meta != nullptr) exporter.set_meta(*meta);
  exporter.write_batches(batches);
  exporter.finish();
  return out;
}

SpanBatches decode(const std::string& bytes, BinaryReader** out_reader = nullptr) {
  std::istringstream in(bytes);
  BinaryReader reader(in);
  SpanBatches batches = reader.read_all();
  if (out_reader != nullptr) *out_reader = nullptr;  // reader is local; see decode_checked
  return batches;
}

// --- raw stream builders (for hostile-input crafting) -----------------------

using wiretest::delta_entry;
using wiretest::footer_frame;
using wiretest::frame;
using wiretest::header_bytes;
using wiretest::put_pod;
using wiretest::span_batch_payload;
using wiretest::valid_header;

void expect_wire_error(const std::string& bytes, const char* needle) {
  std::istringstream in(bytes);
  try {
    BinaryReader reader(in);
    SpanBatch batch;
    while (reader.next_batch(batch)) {
    }
    FAIL() << "stream decoded cleanly; expected WireError containing \"" << needle << '"';
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual error: " << e.what();
  }
}

// --- round trip -------------------------------------------------------------

TEST(BinaryWire, RoundTripsSeededRandomBatchesToIdenticalJson) {
  for (const std::uint64_t seed : {1ull, 42ull, 20260808ull}) {
    const SpanBatches original = random_batches(seed, 1200);
    TraceMeta meta;
    meta.dropped_annotations = seed;
    meta.shard_count = 4;
    const std::string bytes = encode(original, &meta);

    std::istringstream in(bytes);
    BinaryReader reader(in);
    const SpanBatches decoded = reader.read_all();
    EXPECT_TRUE(reader.saw_footer());
    EXPECT_EQ(reader.spans_read(), 1200u);

    // Decoded spans re-export through the same JSON core to byte-identical
    // text: every field and every string survived the wire. (Same-process
    // decode re-interns to the same ids, making byte equality valid; the
    // cross-process remap path is pinned separately below.)
    const TraceMeta round_meta = reader.meta();
    EXPECT_EQ(to_json(decoded, &round_meta), to_json(original, &meta));
    EXPECT_TRUE(valid_json(to_json(decoded, &round_meta)));
  }
}

TEST(BinaryWire, DecodedBatchesFeedTimelineAssembly) {
  const SpanBatches original = random_batches(7, 600);
  const SpanBatches decoded = decode(encode(original));
  const Timeline a = Timeline::assemble(flatten_batches(original));
  const Timeline b = Timeline::assemble(flatten_batches(decoded));
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(to_span_json(a), to_span_json(b));
}

TEST(BinaryWire, FooterCarriesTelemetryAndByteAccounting) {
  TraceMeta meta;
  meta.dropped_annotations = 3;
  meta.shard_count = 8;
  meta.interned_strings = 1234;
  meta.interned_bytes = 56789;
  meta.live_slots = 2;
  meta.retired_slots = 40;
  meta.slot_bytes = 4096;
  meta.remote_dropped_spans = 11;
  meta.remote_reconnects = 2;
  meta.sampled_kept = 1234;
  meta.sampled_dropped = 8766;
  meta.strtab_budget_bytes = 1 << 20;
  meta.rejected_interns = 99;
  const SpanBatches batches = {{make_span(1, 100), make_span(2, 200)}};
  const std::string bytes = encode(batches, &meta);

  std::istringstream in(bytes);
  BinaryReader reader(in);
  (void)reader.read_all();
  ASSERT_TRUE(reader.saw_footer());
  const wire::Footer& f = reader.footer();
  EXPECT_EQ(f.span_count, 2u);
  EXPECT_EQ(reader.meta().sampled_kept, 1234u);
  EXPECT_EQ(reader.meta().sampled_dropped, 8766u);
  EXPECT_EQ(reader.meta().rejected_interns, 99u);
  // export_bytes counts everything before the footer frame.
  EXPECT_EQ(f.export_bytes, bytes.size() - sizeof(wire::FrameHeader) - sizeof(wire::Footer));
}

TEST(BinaryWire, WriterCountsSpansAndBytes) {
  std::string out;
  BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  writer.write_batch({make_span(1, 0), make_span(2, 10), make_span(3, 20)});
  writer.finish();
  EXPECT_EQ(writer.spans_written(), 3u);
  EXPECT_EQ(writer.bytes_written(), out.size());
  writer.finish();  // idempotent
  EXPECT_EQ(writer.bytes_written(), out.size());
}

TEST(BinaryWire, WriteAfterFinishIsDroppedInRelease) {
#ifdef NDEBUG
  std::string out;
  BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  writer.finish();
  const std::size_t finished_size = out.size();
  writer.write_batch({make_span(1, 0)});
  EXPECT_EQ(out.size(), finished_size);
  EXPECT_EQ(writer.spans_written(), 0u);
#else
  GTEST_SKIP() << "write-after-finish asserts in debug builds";
#endif
}

TEST(BinaryWire, LargeBatchSplitsIntoBoundedFrames) {
  SpanBatch big;
  for (std::size_t i = 0; i < wire::kMaxSpansPerFrame + 100; ++i) {
    big.push_back(make_span(i + 1, static_cast<TimePoint>(i)));
  }
  const std::string bytes = encode({big});
  // Walk the frame headers: the writer cut the batch at kMaxSpansPerFrame.
  std::vector<std::size_t> frame_sizes;
  for (std::size_t off = sizeof(wire::Header); off < bytes.size();) {
    wire::FrameHeader fh;
    std::memcpy(&fh, bytes.data() + off, sizeof fh);
    off += sizeof fh;
    if (fh.type == static_cast<std::uint8_t>(wire::FrameType::kSpanBatch)) {
      std::uint32_t count = 0;
      std::memcpy(&count, bytes.data() + off, sizeof count);
      frame_sizes.push_back(count);
    }
    off += fh.payload_size;
  }
  ASSERT_EQ(frame_sizes.size(), 2u);
  EXPECT_EQ(frame_sizes[0], wire::kMaxSpansPerFrame);
  EXPECT_EQ(frame_sizes[1], 100u);
  // The reader decodes them kBatchCapacity spans at a time, in order.
  std::istringstream in(bytes);
  BinaryReader reader(in);
  SpanBatch out;
  std::vector<std::size_t> batch_sizes;
  SpanId next_id = 1;
  while (reader.next_batch(out)) {
    batch_sizes.push_back(out.size());
    for (const Span& span : out) EXPECT_EQ(span.id, next_id++);
  }
  std::vector<std::size_t> expected(wire::kMaxSpansPerFrame / kBatchCapacity, kBatchCapacity);
  expected.push_back(100);
  EXPECT_EQ(batch_sizes, expected);
  EXPECT_EQ(reader.spans_read(), big.size());
}

TEST(BinaryWire, StreamingExporterRejectsBinaryFormat) {
  EXPECT_THROW(StreamingExporter(ExportFormat::kBinary,
                                 [](std::string_view) {}),
               std::invalid_argument);
  EXPECT_STREQ(export_format_name(ExportFormat::kBinary), "binary");
}

// --- string-delta semantics -------------------------------------------------

TEST(BinaryWire, DeltaShipsStringsInternedBetweenFlushes) {
  // The table is process-global: a repeated run needs strings no earlier
  // iteration interned.
  static int round = 0;
  const std::string suffix = "_" + std::to_string(round++);
  const std::string first_name = "wire_delta_first_unique_xyzzy" + suffix;
  const std::string second_name = "wire_delta_second_unique_plugh" + suffix;

  std::string out;
  BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  Span first = make_span(1, 0);
  first.name = first_name;
  writer.write_batch({first});
  const std::size_t after_first = out.size();

  // A string interned after the first flush must ride the second delta.
  Span second = make_span(2, 10);
  second.name = second_name;
  writer.write_batch({second});
  writer.finish();

  EXPECT_EQ(out.find(first_name) != std::string::npos, true);
  EXPECT_NE(out.find(second_name, after_first), std::string::npos);
  // ... and exactly once: string bytes ship once, not per span.
  EXPECT_EQ(testjson::count_occurrences(out, first_name), 1u);

  const SpanBatches decoded = decode(out);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0][0].name, first_name);
  EXPECT_EQ(decoded[1][0].name, second_name);
}

TEST(BinaryWire, RemapsForeignProducerIdsThroughReintern) {
  // A cross-process stream: the producer's table assigned ids this
  // process's table never did. The reader must resolve spans through the
  // delta, not through raw id reuse.
  constexpr std::uint32_t kName = 0x00ABC120;
  constexpr std::uint32_t kTracer = 0x00ABC130;
  constexpr std::uint32_t kTagKey = 0x00ABC140;
  constexpr std::uint32_t kTagVal = 0x00ABC150;
  constexpr std::uint32_t kMetricKey = 0x00ABC160;
  std::string delta;
  delta += delta_entry(kName, "wire_remap_kernel_name");
  delta += delta_entry(kTracer, "wire_remap_tracer");
  delta += delta_entry(kTagKey, "wire_remap_tag_key");
  delta += delta_entry(kTagVal, "wire_remap_tag_val");
  delta += delta_entry(kMetricKey, "wire_remap_metric");

  Span s;
  s.id = 77;
  s.kind = SpanKind::kExecution;
  s.begin = 100;
  s.end = 200;
  s.name = StrId::from_raw(kName);
  s.tracer = StrId::from_raw(kTracer);
  s.tags.set(StrId::from_raw(kTagKey), StrId::from_raw(kTagVal));
  s.metrics.set(StrId::from_raw(kMetricKey), 2.5);

  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kStringDelta, delta);
  bytes += frame(wire::FrameType::kSpanBatch, span_batch_payload({s}));

  std::istringstream in(bytes);
  BinaryReader reader(in);
  const SpanBatches decoded = reader.read_all();
  EXPECT_FALSE(reader.saw_footer());  // no footer: clean truncation
  ASSERT_EQ(decoded.size(), 1u);
  const Span& d = decoded[0][0];
  EXPECT_EQ(d.name, "wire_remap_kernel_name");
  EXPECT_EQ(d.tracer, "wire_remap_tracer");
  EXPECT_EQ(d.tag_or("wire_remap_tag_key"), "wire_remap_tag_val");
  EXPECT_EQ(d.metric_or("wire_remap_metric", 0), 2.5);
  EXPECT_EQ(d.id, 77u);
  EXPECT_EQ(reader.strings_reinterned(), 5u);
}

TEST(BinaryWire, RepeatedDeltaEntryWithSameBytesIsIdempotent) {
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kStringDelta, delta_entry(500, "wire_idem"));
  bytes += frame(wire::FrameType::kStringDelta, delta_entry(500, "wire_idem"));
  std::istringstream in(bytes);
  BinaryReader reader(in);
  EXPECT_TRUE(reader.read_all().empty());
  EXPECT_EQ(reader.strings_reinterned(), 1u);
}

// --- drain-subscriber integration -------------------------------------------

TEST(BinaryWire, ConsumesShardedServerDrainAsSubscriber) {
  std::string out;
  BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  TraceServer server(4, PublishMode::kSync);
  const SubscriberId sub = server.add_drain_subscriber(
      [&writer](const SpanBatches& batches) { writer.write_batches(batches); },
      DrainHandoff::kConsume);
  constexpr std::size_t kPerThread = 700;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&server, t] {
      Tracer tracer(server, "wire_sub", kKernelLevel);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Span s = make_span(0, static_cast<TimePoint>(t * 1000000 + i));
        s.id = server.next_span_id();
        tracer.publish_completed(std::move(s));
      }
    });
  }
  for (auto& t : threads) t.join();
  server.flush();
  server.remove_drain_subscriber(sub);
  writer.finish();

  // kConsume: the writer took the spans; nothing left to take.
  EXPECT_TRUE(server.take_batches().empty());
  EXPECT_EQ(writer.spans_written(), 3 * kPerThread);
  std::istringstream in(out);
  BinaryReader reader(in);
  std::size_t total = 0;
  for (const SpanBatch& b : reader.read_all()) total += b.size();
  EXPECT_EQ(total, 3 * kPerThread);
  EXPECT_TRUE(reader.saw_footer());
}

// --- bounded memory ---------------------------------------------------------

std::uint64_t writer_allocations(std::size_t batches) {
  std::uint64_t bytes = 0;
  BinaryWriter writer([&bytes](std::string_view chunk) { bytes += chunk.size(); });
  SpanBatch batch;
  batch.reserve(TraceServer::kBatchCapacity);
  for (std::size_t i = 0; i < TraceServer::kBatchCapacity; ++i) {
    batch.push_back(make_span(i + 1, static_cast<TimePoint>(i)));
  }
  // Warm-up: the first flush ships the whole string table as one delta
  // and the sink buffer reaches steady state.
  for (int i = 0; i < 4; ++i) writer.write_batch(batch);

  const std::uint64_t before = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < batches; ++i) writer.write_batch(batch);
  const std::uint64_t during = g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before;
  writer.finish();
  EXPECT_GT(bytes, batches * TraceServer::kBatchCapacity * sizeof(Span));  // it really wrote
  return during;
}

TEST(BinaryWire, SpanPayloadReachesTheSinkUncopied) {
  // A span payload skips FrameSink's buffer because it is a span payload,
  // whatever its byte size: the sink sees the batch's own memory in one
  // callback. Nothing here depends on sizeof(Span), so a record-width
  // change cannot quietly put full batches back on the copying path.
  SpanBatch batch;
  for (std::size_t i = 0; i < TraceServer::kBatchCapacity; ++i) {
    batch.push_back(make_span(i + 1, static_cast<TimePoint>(i)));
  }
  const std::string_view payload(reinterpret_cast<const char*>(batch.data()),
                                 batch.size() * sizeof(Span));
  std::vector<std::string_view> chunks;
  BinaryWriter writer([&chunks](std::string_view chunk) { chunks.push_back(chunk); });
  writer.write_batch(batch);
  std::size_t hits = 0;
  for (const std::string_view chunk : chunks) {
    if (chunk.data() == payload.data()) {
      ++hits;
      EXPECT_EQ(chunk.size(), payload.size()) << "payload split across callbacks";
    }
  }
  EXPECT_EQ(hits, 1u) << "span payload went through the sink buffer";
  writer.finish();
}

TEST(BinaryWire, WriterAllocationIsIndependentOfSpanCount) {
  const std::uint64_t small = writer_allocations(4);
  const std::uint64_t large = writer_allocations(256);  // 64x the spans
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  (void)small;
  (void)large;
#else
  EXPECT_EQ(small, large) << "writer memory must not scale with span count";
  EXPECT_EQ(large, 0u) << "steady-state binary streaming allocated";
#endif
}

// --- hostile input ----------------------------------------------------------

TEST(WireHostileInput, RejectsBadMagic) {
  wire::Header h = valid_header();
  h.magic[0] = 'J';
  std::string bytes;
  put_pod(bytes, h);
  expect_wire_error(bytes, "bad magic");
}

TEST(WireHostileInput, RejectsEveryOtherVersion) {
  // One version is read: earlier layouts and future ones are rejected at
  // open, not misread.
  static_assert(wire::kVersion == 5);
  for (const std::uint16_t version : {0, 1, 2, 3, 4, 6}) {
    wire::Header h = valid_header();
    h.version = version;
    expect_wire_error(header_bytes(h), "unsupported format version");
  }
}

TEST(WireHostileInput, RejectsForeignEndianness) {
  wire::Header h = valid_header();
  h.endianness = 0xFFFE;  // byte-swapped kEndianMark
  std::string bytes;
  put_pod(bytes, h);
  expect_wire_error(bytes, "endianness");
}

TEST(WireHostileInput, RejectsMismatchedSpanSize) {
  wire::Header h = valid_header();
  h.span_size = static_cast<std::uint32_t>(sizeof(Span)) + 8;  // a future layout
  std::string bytes;
  put_pod(bytes, h);
  expect_wire_error(bytes, "span struct size mismatch");
}

TEST(WireHostileInput, RejectsLegacySpanSize) {
  // The 200-byte record of the never-shipped development versions is a
  // layout this build cannot read, like any other size.
  wire::Header h = valid_header();
  h.span_size = 200;
  expect_wire_error(header_bytes(h), "span struct size mismatch");
}

TEST(WireHostileInput, RejectsBadHeaderSize) {
  wire::Header h = valid_header();
  h.header_size = 12;
  std::string bytes;
  put_pod(bytes, h);
  expect_wire_error(bytes, "bad header size");
}

TEST(WireHostileInput, RejectsTruncatedStreamHeader) {
  expect_wire_error(header_bytes().substr(0, 9), "truncated stream header");
  expect_wire_error("", "truncated stream header");
}

TEST(WireHostileInput, RejectsTruncatedFrameHeader) {
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kFooter, std::string(sizeof(wire::Footer), '\0'))
               .substr(0, 3);
  expect_wire_error(bytes, "truncated frame header");
}

TEST(WireHostileInput, RejectsOversizedFramePayloadLength) {
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kSpanBatch, "",
                 /*lie_about_size=*/static_cast<std::int64_t>(wire::kMaxFramePayload) + 1);
  expect_wire_error(bytes, "exceeds the");
}

TEST(WireHostileInput, RejectsUnknownFrameType) {
  std::string bytes = header_bytes();
  bytes += frame(static_cast<wire::FrameType>(9), "abcd");
  expect_wire_error(bytes, "unknown frame type");
}

TEST(WireHostileInput, RejectsMidDeltaEof) {
  std::string bytes = header_bytes();
  // The frame header promises 100 payload bytes; the stream ends after 10.
  bytes += frame(wire::FrameType::kStringDelta, delta_entry(7, "ab"),
                 /*lie_about_size=*/100);
  expect_wire_error(bytes, "truncated string-delta payload");
}

TEST(WireHostileInput, RejectsTruncatedDeltaEntryHeader) {
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kStringDelta, std::string(5, '\x01'));
  expect_wire_error(bytes, "truncated string-delta entry header");
}

TEST(WireHostileInput, RejectsDeltaEntryLengthBeyondPayload) {
  std::string payload;
  put_pod(payload, std::uint32_t{42});
  put_pod(payload, std::uint32_t{1000});  // promises 1000 string bytes
  payload += "xy";                        // delivers 2
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kStringDelta, payload);
  expect_wire_error(bytes, "exceeds remaining payload");
}

TEST(WireHostileInput, RejectsDeltaRedefiningReservedIdZero) {
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kStringDelta, delta_entry(0, "not empty"));
  expect_wire_error(bytes, "reserved id 0");
}

TEST(WireHostileInput, RejectsDeltaRedefiningIdWithDifferentBytes) {
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kStringDelta,
                 delta_entry(600, "wire_conflict_a") + delta_entry(600, "wire_conflict_b"));
  expect_wire_error(bytes, "redefined with different contents");
}

TEST(WireHostileInput, RejectsSpanBatchFrameSmallerThanItsCount) {
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kSpanBatch, "ab");  // 2 bytes < sizeof(count)
  expect_wire_error(bytes, "too small");
}

TEST(WireHostileInput, RejectsSpanCountBeyondPerFrameBound) {
  std::string payload;
  put_pod(payload, static_cast<std::uint32_t>(wire::kMaxSpansPerFrame + 1));
  std::string bytes = header_bytes();
  // A consistent-looking payload_size, still within the frame cap.
  bytes += frame(wire::FrameType::kSpanBatch, payload,
                 /*lie_about_size=*/static_cast<std::int64_t>(
                     sizeof(std::uint32_t) + (wire::kMaxSpansPerFrame + 1) * sizeof(Span)));
  expect_wire_error(bytes, "exceeds the per-frame bound");
}

TEST(WireHostileInput, RejectsSpanCountPayloadSizeMismatch) {
  Span s = make_span(1, 0);
  std::string payload;
  put_pod(payload, std::uint32_t{2});  // claims two spans, carries one
  payload.append(reinterpret_cast<const char*>(&s), sizeof s);
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kSpanBatch, payload);
  expect_wire_error(bytes, "does not match its span count");
}

TEST(WireHostileInput, RejectsTruncatedSpanPayload) {
  Span s = make_span(1, 0);
  std::string payload;
  put_pod(payload, std::uint32_t{1});
  payload.append(reinterpret_cast<const char*>(&s), sizeof s);
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kSpanBatch, payload);
  bytes.resize(bytes.size() - 50);  // cut mid-span
  expect_wire_error(bytes, "truncated span-batch payload");
}

TEST(WireHostileInput, RejectsSpanWithUnknownStringId) {
  Span s = make_span(1, 0);
  s.name = StrId::from_raw(0x7FFFFFF0);  // no delta ever delivered this id
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kSpanBatch, span_batch_payload({s}));
  expect_wire_error(bytes, "no delta delivered");
}

TEST(WireHostileInput, RejectsSpanWithOutOfRangeKind) {
  Span s;
  s.id = 1;
  s.begin = 0;
  s.end = 1;
  std::string payload = span_batch_payload({s});
  // Poke the kind byte inside the serialized span to an undefined value.
  payload[sizeof(std::uint32_t) + offsetof(Span, kind)] = 0x40;
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kSpanBatch, payload);
  expect_wire_error(bytes, "bad span kind");
}

TEST(WireHostileInput, RejectsAnnotationCountBeyondCapacity) {
  // A FlatMap count_ past the inline capacity would make iteration read
  // out of bounds; the decoder must bounds-check it before any use.
  Span s;
  s.id = 1;
  s.begin = 0;
  s.end = 1;
  std::string payload = span_batch_payload({s});
  constexpr std::size_t kTagCountOffset =  // keys[N] + values[N], then count_
      offsetof(Span, tags) + 2 * TagMap::capacity() * sizeof(StrId);
  payload[sizeof(std::uint32_t) + kTagCountOffset] = 0x7F;
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kSpanBatch, payload);
  expect_wire_error(bytes, "annotation count exceeds capacity");
}

TEST(WireHostileInput, RejectsBadFooterPayloadSize) {
  for (const std::size_t size : {sizeof(wire::Footer) - 8, sizeof(wire::Footer) + 8}) {
    std::string bytes = header_bytes();
    bytes += frame(wire::FrameType::kFooter, std::string(size, '\0'));
    expect_wire_error(bytes, "footer payload length mismatch");
  }
}

TEST(WireHostileInput, RejectsDataAfterFooter) {
  std::string bytes = header_bytes();
  bytes += footer_frame();
  bytes += 'x';
  expect_wire_error(bytes, "data after footer");
}

TEST(WireHostileInput, ToleratesCleanEofBeforeFooter) {
  // A producer that died mid-export: every complete frame decodes, the
  // missing footer is reported via saw_footer(), no error.
  Span s = make_span(9, 0);
  std::string delta = delta_entry(s.name.raw(), "wire_op");
  delta += delta_entry(s.tracer.raw(), "wire_test");
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kStringDelta, delta);
  bytes += frame(wire::FrameType::kSpanBatch, span_batch_payload({s}));
  std::istringstream in(bytes);
  BinaryReader reader(in);
  const SpanBatches decoded = reader.read_all();
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0][0].id, 9u);
  EXPECT_FALSE(reader.saw_footer());
  EXPECT_EQ(reader.footer().span_count, 0u);  // zeros until a footer
}

// --- inline tags -----------------------------------------------------------

TEST(WireInlineTags, RoundTripInlineValuesThroughWriterAndReader) {
  const StrId key{"request_id"};
  Span a = make_span(1, 0);
  a.inline_tags.set(key, "req-000041");
  Span b = make_span(2, 50);
  b.inline_tags.set(key, "req-000042");
  b.inline_tags.set(StrId{"grid"}, "[128,1,1]");

  std::istringstream in(encode({{a, b}}));
  BinaryReader reader(in);
  const SpanBatches decoded = reader.read_all();
  ASSERT_EQ(decoded.size(), 1u);
  ASSERT_EQ(decoded[0].size(), 2u);
  EXPECT_EQ(decoded[0][0].inline_tags.value_or(key), "req-000041");
  EXPECT_EQ(decoded[0][1].inline_tags.value_or(key), "req-000042");
  EXPECT_EQ(decoded[0][1].inline_tags.value_or(StrId{"grid"}), "[128,1,1]");
}

TEST(WireInlineTags, RemapsForeignKeysAndPassesValueBytesThrough) {
  // Cross-process: the key id remaps through the delta like any StrId;
  // the value bytes ride inside the record and must arrive untouched —
  // and must NOT intern into this process's table.
  constexpr std::uint32_t kName = 0x00DEF120;
  constexpr std::uint32_t kTracer = 0x00DEF130;
  constexpr std::uint32_t kInlineKey = 0x00DEF140;
  std::string delta;
  delta += delta_entry(kName, "wire_inline_span");
  delta += delta_entry(kTracer, "wire_inline_tracer");
  delta += delta_entry(kInlineKey, "wire_inline_key");

  Span s;
  s.id = 42;
  s.begin = 0;
  s.end = 1;
  s.name = StrId::from_raw(kName);
  s.tracer = StrId::from_raw(kTracer);
  s.inline_tags.set(StrId::from_raw(kInlineKey), "unique-value-9001");

  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kStringDelta, delta);
  bytes += frame(wire::FrameType::kSpanBatch, span_batch_payload({s}));

  const std::size_t interned_before = common::StringTable::global().size();
  std::istringstream in(bytes);
  BinaryReader reader(in);
  const SpanBatches decoded = reader.read_all();
  ASSERT_EQ(decoded.size(), 1u);
  const Span& d = decoded[0][0];
  EXPECT_EQ(d.name, "wire_inline_span");
  EXPECT_EQ(d.inline_tags.value_or(StrId{"wire_inline_key"}), "unique-value-9001");
  // The three delta strings re-intern (idempotently); the value does not.
  EXPECT_EQ(common::StringTable::global().str(
                common::StringTable::global().intern("wire_inline_key")),
            "wire_inline_key");
  EXPECT_LE(common::StringTable::global().size(), interned_before + 3);
}

TEST(WireInlineTags, RejectsInlineTagCountBeyondCapacity) {
  Span s;
  s.id = 1;
  s.begin = 0;
  s.end = 1;
  std::string payload = span_batch_payload({s});
  // The inline-tag map's count is its trailing std::uint32_t.
  constexpr std::size_t kCountOffset =
      offsetof(Span, inline_tags) + sizeof(InlineTagMap) - sizeof(std::uint32_t);
  payload[sizeof(std::uint32_t) + kCountOffset] = 0x7F;
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kSpanBatch, payload);
  expect_wire_error(bytes, "annotation count exceeds capacity");
}

// --- heartbeats ------------------------------------------------------------

wire::Heartbeat sample_heartbeat(std::uint64_t seq) {
  wire::Heartbeat hb{};
  hb.sequence = seq;
  hb.spans_published = 1000 + seq;
  hb.spans_sent = 900 + seq;
  hb.spans_dropped = 50 + seq;
  hb.spans_shed = 25 + seq;
  hb.sampled_kept = 800 + seq;
  hb.sampled_dropped = 200 + seq;
  hb.reconnects = seq;
  hb.outbox_spans = 7;
  return hb;
}

TEST(WireHeartbeat, RoundTripsThroughWriterAndReaderLatestWins) {
  std::string out;
  BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  writer.write_batch({make_span(1, 0)});
  writer.write_heartbeat(sample_heartbeat(1));
  writer.write_batch({make_span(2, 10)});
  writer.write_heartbeat(sample_heartbeat(2));
  writer.finish();

  std::istringstream in(out);
  BinaryReader reader(in);
  const SpanBatches decoded = reader.read_all();
  EXPECT_EQ(reader.spans_read(), 2u);
  EXPECT_TRUE(reader.saw_footer());
  EXPECT_EQ(reader.heartbeats_seen(), 2u);
  const wire::Heartbeat& hb = reader.last_heartbeat();
  EXPECT_EQ(hb.sequence, 2u);
  EXPECT_EQ(hb.spans_published, 1002u);
  EXPECT_EQ(hb.spans_sent, 902u);
  EXPECT_EQ(hb.spans_dropped, 52u);
  EXPECT_EQ(hb.spans_shed, 27u);
  EXPECT_EQ(hb.sampled_kept, 802u);
  EXPECT_EQ(hb.sampled_dropped, 202u);
  EXPECT_EQ(hb.reconnects, 2u);
  EXPECT_EQ(hb.outbox_spans, 7u);
  // Heartbeats are telemetry, not data: span decode is unaffected.
  std::size_t total = 0;
  for (const SpanBatch& b : decoded) total += b.size();
  EXPECT_EQ(total, 2u);
}

TEST(WireHeartbeat, WriterFlushesEachHeartbeatPromptly) {
  // A buffered heartbeat measures nothing: the frame must be visible at
  // the sink immediately after write_heartbeat returns.
  std::string out;
  BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  writer.write_heartbeat(sample_heartbeat(1));
  // Stream header (written lazily with the first frame) + the heartbeat.
  EXPECT_EQ(out.size(),
            sizeof(wire::Header) + sizeof(wire::FrameHeader) + sizeof(wire::Heartbeat));
  writer.finish();
  writer.write_heartbeat(sample_heartbeat(2));  // dropped after finish
  std::istringstream in(out);
  BinaryReader reader(in);
  (void)reader.read_all();
  EXPECT_EQ(reader.heartbeats_seen(), 1u);
}

TEST(WireHeartbeat, RejectsUndersizedHeartbeatPayload) {
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kHeartbeat,
                 std::string(sizeof(wire::Heartbeat) - 8, '\0'));
  expect_wire_error(bytes, "heartbeat payload length");
}

TEST(WireHeartbeat, RejectsOversizedHeartbeatPayload) {
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kHeartbeat,
                 std::string(sizeof(wire::Heartbeat) + 8, '\0'));
  expect_wire_error(bytes, "heartbeat payload length");
}

TEST(WireHeartbeat, RejectsMidHeartbeatEof) {
  // The frame header promises a full heartbeat; the stream ends after 10
  // payload bytes.
  std::string bytes = header_bytes();
  std::string payload;
  put_pod(payload, sample_heartbeat(1));
  bytes += frame(wire::FrameType::kHeartbeat, payload.substr(0, 10),
                 /*lie_about_size=*/static_cast<std::int64_t>(sizeof(wire::Heartbeat)));
  expect_wire_error(bytes, "truncated heartbeat payload");
}

TEST(WireHostileInput, HeaderOnlyStreamDecodesEmpty) {
  std::istringstream in(header_bytes());
  BinaryReader reader(in);
  EXPECT_TRUE(reader.read_all().empty());
  EXPECT_FALSE(reader.saw_footer());
  EXPECT_EQ(reader.spans_read(), 0u);
}

TEST(WireHostileInput, EmptySpanBatchFrameIsLegal) {
  std::string payload;
  put_pod(payload, std::uint32_t{0});
  std::string bytes = header_bytes();
  bytes += frame(wire::FrameType::kSpanBatch, payload);
  bytes += footer_frame();
  std::istringstream in(bytes);
  BinaryReader reader(in);
  EXPECT_TRUE(reader.read_all().empty());
  EXPECT_TRUE(reader.saw_footer());
}

}  // namespace
}  // namespace xsp::trace
