// One corpus of clean and malformed wire streams, fed to both consumers
// of the format: a BinaryReader over memory and a live CollectorService
// connection. Both drive the same wire::FrameParser, so they must agree
// on every stream: the reader throws WireError exactly when the collector
// counts the connection as errored, and a clean stream yields the same
// span count through either.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
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
  std::vector<Span> spans;
  for (trace::SpanId id = 1; id <= 300; ++id) spans.push_back(parity_span(id));
  writer.write_batch(spans);
  writer.write_heartbeat(wire::Heartbeat{});
  writer.write_batch({parity_span(301)});
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
  malformed("version 5", header_with([](wire::Header& h) { h.version = 5; }));
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

TEST(WireParity, ReaderAndCollectorAgreeOnEveryStream) {
  const Endpoint ep = uds_endpoint("wire_parity");
  trace::TraceServer server(trace::PublishMode::kSync);
  CollectorService service(ep, server);
  std::thread loop([&service] { service.run(); });

  std::uint64_t finished = 0;
  for (const Case& c : corpus()) {
    const CollectorStats before = service.stats();
    {
      Socket sock = try_connect(ep, 1000);
      ASSERT_TRUE(sock.valid()) << c.name;
      ASSERT_TRUE(send_all(sock, c.bytes)) << c.name;
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

}  // namespace
}  // namespace xsp::net
