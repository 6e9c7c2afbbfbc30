// One corpus of clean and malformed wire streams, fed to both consumers
// of the format: a BinaryReader over memory and a live CollectorService
// connection. Both drive the same wire::FrameParser, so they must agree
// on every stream: the reader throws WireError exactly when the collector
// counts the connection as errored, and a clean stream yields the same
// span count through either, whether the collector reads it whole or in
// pieces that split frames across reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "../trace/wire_builders.hpp"
#include "net_test_util.hpp"
#include "xsp/net/collector.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::net {
namespace {

using testutil::read_to_eof;
using testutil::send_all;
using testutil::uds_endpoint;
using trace::Span;
using trace::StrId;
namespace wire = trace::wire;
using trace::wiretest::delta_entry;
using trace::wiretest::footer_frame;
using trace::wiretest::frame;
using trace::wiretest::header_bytes;
using trace::wiretest::heartbeat_frame;
using trace::wiretest::put_pod;
using trace::wiretest::span_batch_payload;
using trace::wiretest::valid_header;

struct Case {
  const char* name;
  std::string bytes;
  bool malformed;
};

Span parity_span(trace::SpanId id) {
  Span s;
  s.id = id;
  s.name = StrId("parity_op");
  s.tracer = StrId("parity_tracer");
  s.begin = static_cast<TimePoint>(id * 10);
  s.end = s.begin + 5;
  return s;
}

/// The delta that makes parity_span's StrIds resolvable.
std::string parity_delta() {
  const Span s = parity_span(1);
  return frame(wire::FrameType::kStringDelta, delta_entry(s.name.raw(), "parity_op") +
                                                  delta_entry(s.tracer.raw(), "parity_tracer"));
}

std::string writer_stream() {
  std::string out;
  trace::BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  trace::SpanBatch spans;
  for (trace::SpanId id = 1; id <= 300; ++id) spans.push_back(parity_span(id));
  writer.write_batch(spans);
  writer.write_heartbeat(wire::Heartbeat{});
  writer.write_batch({parity_span(301)});
  writer.finish();
  return out;
}

/// Sixteen pool-block frames with heartbeats between them (about 900 KB):
/// enough frames behind each other that a reader's buffer compacts with
/// part of the next frame still in it.
std::string long_writer_stream() {
  std::string out;
  trace::BinaryWriter writer([&out](std::string_view chunk) { out.append(chunk); });
  trace::SpanId id = 1;
  for (int frame = 0; frame < 16; ++frame) {
    trace::SpanBatch spans;
    for (std::size_t i = 0; i < trace::kBatchCapacity; ++i) spans.push_back(parity_span(id++));
    writer.write_batch(spans);
    writer.write_heartbeat(wire::Heartbeat{});
  }
  writer.finish();
  return out;
}

std::vector<Case> corpus() {
  const std::string hdr = header_bytes();
  const std::string good = parity_delta() + frame(wire::FrameType::kSpanBatch,
                                                  span_batch_payload({parity_span(7)}));
  std::vector<Case> cases = {
      // Clean streams. (An empty stream is left out on purpose: a file
      // with no header is truncated, while a socket that closes before
      // its first byte is a probe the collector closes cleanly.)
      {"writer stream", writer_stream(), false},
      {"long writer stream", long_writer_stream(), false},
      {"header only", hdr, false},
      {"no footer", hdr + good, false},
      {"footer", hdr + good + footer_frame(), false},
      {"empty delta and empty batch",
       hdr + frame(wire::FrameType::kStringDelta, "") +
           frame(wire::FrameType::kSpanBatch, span_batch_payload({})) + footer_frame(),
       false},
      {"heartbeat", hdr + heartbeat_frame(wire::Heartbeat{}) + good + footer_frame(), false},
  };
  const auto header_with = [](auto edit) {
    wire::Header h = valid_header();
    edit(h);
    return header_bytes(h);
  };
  const auto malformed = [&cases](const char* name, std::string bytes) {
    cases.push_back({name, std::move(bytes), true});
  };
  malformed("bad magic", header_with([](wire::Header& h) { h.magic[0] = 'J'; }));
  malformed("version 3", header_with([](wire::Header& h) { h.version = 3; }));
  malformed("version 4", header_with([](wire::Header& h) { h.version = 4; }));
  malformed("version 6", header_with([](wire::Header& h) { h.version = 6; }));
  malformed("legacy span size", header_with([](wire::Header& h) { h.span_size = 200; }));
  malformed("foreign endianness", header_with([](wire::Header& h) { h.endianness = 0xFFFE; }));
  malformed("bad header size", header_with([](wire::Header& h) { h.header_size = 12; }));
  malformed("truncated stream header", hdr.substr(0, 9));
  malformed("truncated frame header", hdr + footer_frame().substr(0, 3));
  malformed("oversized payload length",
            hdr + frame(wire::FrameType::kSpanBatch, "",
                        static_cast<std::int64_t>(wire::kMaxFramePayload) + 1));
  malformed("unknown frame type", hdr + frame(static_cast<wire::FrameType>(9), "abcd"));
  malformed("mid-delta eof",
            hdr + frame(wire::FrameType::kStringDelta, delta_entry(7, "ab"), 100));
  malformed("delta entry header cut",
            hdr + frame(wire::FrameType::kStringDelta, std::string(5, '\x01')));
  malformed("delta redefines id 0",
            hdr + frame(wire::FrameType::kStringDelta, delta_entry(0, "not empty")));
  malformed("span batch smaller than its count",
            hdr + frame(wire::FrameType::kSpanBatch, "ab"));
  {
    std::string payload;
    put_pod(payload, static_cast<std::uint32_t>(wire::kMaxSpansPerFrame + 1));
    malformed("span count beyond bound",
              hdr + frame(wire::FrameType::kSpanBatch, payload,
                          static_cast<std::int64_t>(sizeof(std::uint32_t) +
                                                    (wire::kMaxSpansPerFrame + 1) * sizeof(Span))));
  }
  {
    std::string payload = span_batch_payload({parity_span(1)});
    payload[0] = 2;  // claims two spans, carries one
    malformed("span count and payload disagree",
              hdr + parity_delta() + frame(wire::FrameType::kSpanBatch, payload));
  }
  malformed("truncated span payload", (hdr + good).substr(0, hdr.size() + good.size() - 50));
  malformed("unknown string id",
            hdr + frame(wire::FrameType::kSpanBatch, span_batch_payload({parity_span(1)})));
  {
    std::string payload = span_batch_payload({parity_span(1)});
    payload[sizeof(std::uint32_t) + offsetof(Span, kind)] = 0x40;
    malformed("bad span kind", hdr + parity_delta() + frame(wire::FrameType::kSpanBatch, payload));
  }
  malformed("short footer",
            hdr + frame(wire::FrameType::kFooter, std::string(sizeof(wire::Footer) - 8, '\0')));
  malformed("long heartbeat", hdr + frame(wire::FrameType::kHeartbeat,
                                          std::string(sizeof(wire::Heartbeat) + 8, '\0')));
  malformed("data after footer", hdr + good + footer_frame() + "x");
  malformed("good batch, then garbage", hdr + good + "JUNKJUNK");
  return cases;
}

struct Outcome {
  bool errored = false;
  std::uint64_t spans = 0;
};

Outcome read_with_reader(const std::string& bytes) {
  std::istringstream in(bytes);
  Outcome out;
  try {
    trace::BinaryReader reader(in);
    trace::SpanBatch batch;
    while (reader.next_batch(batch)) out.spans += batch.size();
  } catch (const trace::WireError&) {
    out.errored = true;
  }
  return out;
}

/// Sends every corpus case over its own connection to a live collector
/// through `send(sock, case)`, then requires the collector's outcome to
/// equal the reader's.
template <typename Send>
void expect_parity(const std::string& socket_name, Send send) {
  const Endpoint ep = uds_endpoint(socket_name);
  trace::TraceServer server(trace::PublishMode::kSync);
  CollectorService service(ep, server);
  std::thread loop([&service] { service.run(); });

  std::uint64_t finished = 0;
  for (const Case& c : corpus()) {
    const CollectorStats before = service.stats();
    {
      Socket sock = try_connect(ep, 1000);
      ASSERT_TRUE(sock.valid()) << c.name;
      send(sock, c);
      sock.shutdown_write();
      (void)read_to_eof(sock);  // the collector closes after EOF or an error
    }
    ++finished;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    CollectorStats after = service.stats();
    while (after.connections_closed + after.connections_errored < finished &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      after = service.stats();
    }
    ASSERT_EQ(after.connections_closed + after.connections_errored, finished) << c.name;

    const Outcome reader = read_with_reader(c.bytes);
    const bool collector_errored = after.connections_errored > before.connections_errored;
    EXPECT_EQ(reader.errored, c.malformed) << c.name;
    EXPECT_EQ(collector_errored, reader.errored) << c.name;
    if (!c.malformed) {
      EXPECT_EQ(after.spans_ingested - before.spans_ingested, reader.spans) << c.name;
    }
  }
  service.stop();
  loop.join();
  EXPECT_EQ(service.stats().spans_ingested, server.span_count());
}

TEST(WireParity, ReaderAndCollectorAgreeOnEveryStream) {
  expect_parity("wire_parity", [](Socket& sock, const Case& c) {
    ASSERT_TRUE(send_all(sock, c.bytes)) << c.name;
  });
}

TEST(WireParity, ReaderAndCollectorAgreeWhenStreamsArriveInPieces) {
  // The same corpus, each stream cut into seeded pieces of 1 B to 70 KiB
  // (log-uniform, so short pieces are common) with a pause after each, so
  // the pieces land in separate reads and frames straddle them. A
  // collector that erred on a bad frame may close before the last piece;
  // sending then stops, and the outcome is compared as usual.
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> log_size(0.0, std::log(70.0 * 1024));
  expect_parity("wire_parity_pieces", [&](Socket& sock, const Case& c) {
    const std::string_view bytes = c.bytes;
    for (std::size_t off = 0; off < bytes.size();) {
      const auto piece = std::min<std::size_t>(
          static_cast<std::size_t>(std::exp(log_size(rng))), bytes.size() - off);
      if (!send_all(sock, bytes.substr(off, piece))) return;
      off += piece;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
}

}  // namespace
}  // namespace xsp::net
