// CollectorService + RemoteSink end to end: the cross-process ingestion
// path exercised in-process over real sockets. Covers the acceptance
// criteria of the collector tentpole — a 4-producer fleet assembling the
// same per-producer timelines remote as in-process, colliding fabricated
// StrIds never cross-contaminating after remap — plus the connection
// lifecycle: truncated frames, hostile bytes, reconnect with a fresh
// StringDelta epoch, and a daemon killed mid-stream leaving producers
// alive with every loss accounted.
#include "xsp/net/collector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "../trace/thread_count.hpp"
#include "../trace/wire_builders.hpp"
#include "net_test_util.hpp"
#include "xsp/metrics/registry.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/span_sink.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::net {
namespace {

using testutil::accept_within;
using testutil::read_to_eof;
using testutil::read_until_contains;
using testutil::send_all;
using testutil::uds_endpoint;
using trace::kNoSpan;
using trace::Span;
using trace::SpanId;
using trace::StrId;
using xsp::TimePoint;

template <typename Pred>
bool wait_until(Pred pred, int timeout_ms = 5000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

/// A collector daemon in miniature: server sink + service running
/// on its own thread, stopped and joined on destruction.
struct RunningCollector {
  trace::TraceServer server;
  CollectorService service;
  std::thread thread;

  explicit RunningCollector(const Endpoint& ep, CollectorOptions copts = {},
                            trace::PublishMode mode = trace::PublishMode::kSync)
      : server(mode),
        service(ep, server, copts),
        thread([this] { service.run(); }) {}
  ~RunningCollector() { stop(); }

  void stop() {
    service.stop();
    if (thread.joinable()) thread.join();
  }
};

// --- raw wire builders (crafted producer streams) ---------------------------

using trace::wiretest::delta_entry;
using trace::wiretest::footer_frame;
using trace::wiretest::frame;
using trace::wiretest::header_bytes;
using trace::wiretest::heartbeat_frame;
using trace::wiretest::span_batch_payload;

// --- fleet-member publication (identical remote and in-process) -------------

/// Publish one producer's spans into any SpanSink: a parent chain with
/// producer-specific names, levels, and correlation ids — the shape whose
/// per-producer timeline must survive collection unchanged.
void publish_fleet_member(trace::SpanSink& sink, int producer, std::size_t count) {
  const StrId tracer("producer_" + std::to_string(producer));
  SpanId prev = kNoSpan;
  for (std::size_t i = 0; i < count; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.parent = prev;
    s.level = trace::kKernelLevel;
    s.name = StrId("fleet_op_" + std::to_string(producer) + "_" +
                   std::to_string(i % 5));
    s.tracer = tracer;
    s.begin = static_cast<TimePoint>(i * 10);
    s.end = s.begin + 7;
    if (i % 3 == 0) s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
    prev = s.id;
  }
}

/// Per-producer digest: span count plus the sorted (name, begin, end)
/// multiset — id-free, so it compares across remapped id spaces.
using TimelineDigest = std::vector<std::tuple<std::uint32_t, std::int64_t, std::int64_t>>;

std::map<std::uint32_t, TimelineDigest> digest_by_tracer(const std::vector<Span>& spans) {
  std::map<std::uint32_t, TimelineDigest> out;
  for (const Span& s : spans) {
    out[s.tracer.raw()].emplace_back(s.name.raw(), s.begin, s.end);
  }
  for (auto& [tracer, digest] : out) std::sort(digest.begin(), digest.end());
  return out;
}

// --- end-to-end round trips -------------------------------------------------

TEST(CollectorE2E, UdsRoundTripDeliversEverySpanExactlyOnce) {
  const Endpoint ep = uds_endpoint("col_rt");
  RunningCollector collector(ep);

  {
    trace::RemoteSink sink(ep);
    publish_fleet_member(sink, 0, 1000);
    sink.close();  // footer + half-close + wait for the daemon's ack
    EXPECT_EQ(sink.spans_published(), 1000u);
    EXPECT_EQ(sink.spans_sent(), 1000u);
    EXPECT_EQ(sink.spans_dropped(), 0u);
    EXPECT_EQ(sink.reconnects(), 0u);
  }
  collector.stop();

  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 1000u);
  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.connections_errored, 0u);
  EXPECT_EQ(stats.spans_ingested, 1000u);
  EXPECT_EQ(stats.footers_seen, 1u);
  EXPECT_GT(stats.bytes_received, 1000u * sizeof(Span));

  // Names arrived through the re-intern remap, not raw id reuse.
  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), 1000u);
  for (const Span& s : spans) EXPECT_EQ(s.tracer, "producer_0");
}

TEST(CollectorE2E, TcpEphemeralPortRoundTrips) {
  RunningCollector collector(Endpoint::parse("tcp://127.0.0.1:0"));
  const Endpoint bound = collector.service.endpoint();
  ASSERT_NE(bound.port, 0);

  trace::RemoteSink sink(bound);
  publish_fleet_member(sink, 0, 100);
  sink.close();
  collector.stop();
  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 100u);
}

TEST(CollectorE2E, FourProducerFleetMatchesInProcessPublication) {
  // The acceptance criterion: N>=4 external producers through the
  // collector assemble into the same per-producer timelines as publishing
  // into a server in-process — exact span counts, names equal.
  constexpr int kProducers = 4;
  constexpr std::size_t kSpansEach = 400;

  trace::TraceServer reference(trace::PublishMode::kSync);
  for (int p = 0; p < kProducers; ++p) publish_fleet_member(reference, p, kSpansEach);
  reference.flush();

  const Endpoint ep = uds_endpoint("col_fleet");
  RunningCollector collector(ep);
  {
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&ep, p, kSpansEach] {
        trace::RemoteSink sink(ep);
        publish_fleet_member(sink, p, kSpansEach);
        sink.close();
        EXPECT_EQ(sink.spans_sent(), kSpansEach);
        EXPECT_EQ(sink.spans_dropped(), 0u);
      });
    }
    for (std::thread& t : producers) t.join();
  }
  collector.stop();
  collector.server.flush();

  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<std::uint64_t>(kProducers));
  EXPECT_EQ(stats.footers_seen, static_cast<std::uint64_t>(kProducers));
  EXPECT_EQ(stats.spans_ingested, kProducers * kSpansEach);

  const std::vector<Span> collected = collector.server.take_trace();
  const std::vector<Span> expected = reference.take_trace();
  ASSERT_EQ(collected.size(), expected.size());
  EXPECT_EQ(digest_by_tracer(collected), digest_by_tracer(expected));

  // Remapped ids stay producer-coherent: every parent reference resolves
  // within its own producer's id set — never into another producer's.
  std::map<std::uint32_t, std::vector<const Span*>> groups;
  for (const Span& s : collected) groups[s.tracer.raw()].push_back(&s);
  ASSERT_EQ(groups.size(), static_cast<std::size_t>(kProducers));
  for (const auto& [tracer, spans] : groups) {
    std::vector<SpanId> ids;
    for (const Span* s : spans) ids.push_back(s->id);
    std::sort(ids.begin(), ids.end());
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
        << "duplicate remapped span id within a producer";
    for (const Span* s : spans) {
      if (s->parent == kNoSpan) continue;
      EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), s->parent))
          << "parent remapped outside its producer's id set";
    }
  }
}

// --- crafted-stream isolation and hostility ---------------------------------

TEST(CollectorE2E, CollidingFabricatedStrIdsNeverCrossContaminate) {
  // Two producers whose streams fabricate the *same* string id with
  // different contents, interleaved on the wire. Per-connection remap
  // must keep them apart; shared-table reuse would swap names.
  constexpr std::uint32_t kNameId = 0x00CC0001;
  constexpr std::uint32_t kTracerId = 0x00CC0002;
  const auto stream_parts = [&](std::string_view name, std::string_view tracer,
                                std::uint64_t footer_drops, std::uint64_t footer_reconnects,
                                std::uint64_t footer_kept, std::uint64_t footer_shed) {
    std::string delta = delta_entry(kNameId, name);
    delta += delta_entry(kTracerId, tracer);
    Span s;
    s.id = 77;  // identical producer-local span id on both streams
    s.name = StrId::from_raw(kNameId);
    s.tracer = StrId::from_raw(kTracerId);
    s.begin = 5;
    s.end = 9;
    trace::wire::Footer f{};
    f.span_count = 1;
    f.meta.remote_dropped_spans = footer_drops;
    f.meta.remote_reconnects = footer_reconnects;
    f.meta.sampled_kept = footer_kept;
    f.meta.sampled_dropped = footer_shed;
    return std::make_pair(
        header_bytes() + frame(trace::wire::FrameType::kStringDelta, delta),
        frame(trace::wire::FrameType::kSpanBatch, span_batch_payload({s})) +
            footer_frame(f));
  };
  const auto [a_head, a_tail] = stream_parts("collide_alpha", "collider_tracer_a", 3, 1, 10, 30);
  const auto [b_head, b_tail] = stream_parts("collide_beta", "collider_tracer_b", 4, 2, 20, 50);

  const Endpoint ep = uds_endpoint("col_collide");
  RunningCollector collector(ep);
  Socket a = try_connect(ep, 1000);
  Socket b = try_connect(ep, 1000);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  // Interleave the two streams so both remaps are live simultaneously.
  ASSERT_TRUE(send_all(a, a_head));
  ASSERT_TRUE(send_all(b, b_head));
  ASSERT_TRUE(send_all(a, a_tail));
  ASSERT_TRUE(send_all(b, b_tail));
  a.shutdown_write();
  b.shutdown_write();
  (void)read_to_eof(a);  // daemon ack
  (void)read_to_eof(b);
  collector.stop();

  collector.server.flush();
  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), 2u);
  const Span* alpha = nullptr;
  const Span* beta = nullptr;
  for (const Span& s : spans) {
    if (s.name == "collide_alpha") alpha = &s;
    if (s.name == "collide_beta") beta = &s;
  }
  ASSERT_NE(alpha, nullptr);
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(alpha->tracer, "collider_tracer_a");
  EXPECT_EQ(beta->tracer, "collider_tracer_b");
  EXPECT_NE(alpha->id, beta->id) << "colliding producer span ids must remap apart";

  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.footers_seen, 2u);
  EXPECT_EQ(stats.producer_dropped_spans, 7u);  // 3 + 4, summed from footers
  EXPECT_EQ(stats.producer_reconnects, 3u);     // 1 + 2
  EXPECT_EQ(stats.producer_sampled_kept, 30u);     // 10 + 20
  EXPECT_EQ(stats.producer_sampled_dropped, 80u);  // 30 + 50
  EXPECT_EQ(stats.connections_closed, 2u);
  EXPECT_EQ(stats.connections_errored, 0u);
}

TEST(CollectorE2E, TruncatedFrameErrorsConnectionAndDaemonServesOn) {
  const Endpoint ep = uds_endpoint("col_trunc");
  RunningCollector collector(ep);
  {
    Socket cut = try_connect(ep, 1000);
    ASSERT_TRUE(cut.valid());
    // Frame header promises 100 payload bytes; deliver 10 and vanish.
    std::string bytes = header_bytes();
    bytes += frame(trace::wire::FrameType::kSpanBatch, std::string(10, '\x01'),
                   /*lie_about_size=*/100);
    ASSERT_TRUE(send_all(cut, bytes));
  }
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 1; }))
      << "mid-frame disconnect must count as errored";

  // The daemon took the hit on that connection only; a well-behaved
  // producer connecting next streams normally.
  trace::RemoteSink sink(ep);
  publish_fleet_member(sink, 1, 10);
  sink.close();
  collector.stop();
  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 10u);
  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.spans_ingested, 10u);
}

TEST(CollectorE2E, HostileBytesAreContainedPerConnection) {
  const Endpoint ep = uds_endpoint("col_hostile");
  RunningCollector collector(ep);
  {
    Socket junk = try_connect(ep, 1000);
    ASSERT_TRUE(junk.valid());
    ASSERT_TRUE(send_all(junk, "JUNKJUNKJUNKJUNK"));  // 16 bytes of non-header
    junk.shutdown_write();
    (void)read_to_eof(junk);  // daemon closes on the WireError
  }
  {
    Socket oversized = try_connect(ep, 1000);
    ASSERT_TRUE(oversized.valid());
    std::string bytes = header_bytes();
    bytes += frame(trace::wire::FrameType::kSpanBatch, "",
                   static_cast<std::int64_t>(trace::wire::kMaxFramePayload) + 1);
    ASSERT_TRUE(send_all(oversized, bytes));
    oversized.shutdown_write();
    (void)read_to_eof(oversized);
  }
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 2; }));

  trace::RemoteSink sink(ep);
  publish_fleet_member(sink, 2, 5);
  sink.close();
  collector.stop();
  collector.server.flush();
  EXPECT_EQ(collector.server.span_count(), 5u);
  EXPECT_EQ(collector.service.stats().spans_ingested, 5u);
}

TEST(CollectorE2E, ConfiguredFrameBoundIsEnforced) {
  const Endpoint ep = uds_endpoint("col_bound");
  CollectorOptions copts;
  copts.max_frame_payload = 1024;  // tighter than the format's 64 MiB cap
  RunningCollector collector(ep, copts);
  Socket s = try_connect(ep, 1000);
  ASSERT_TRUE(s.valid());
  std::string bytes = header_bytes();
  bytes += frame(trace::wire::FrameType::kStringDelta, "", /*lie_about_size=*/4096);
  ASSERT_TRUE(send_all(s, bytes));
  EXPECT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 1; }));
  collector.stop();
  EXPECT_EQ(collector.service.stats().spans_ingested, 0u);
}

TEST(CollectorE2E, BadFrameHeaderErrorsBeforeItsPayloadArrives) {
  // A client claims a 1 MiB payload for an unknown frame type, then
  // stalls with the connection open. The frame header alone condemns the
  // stream: the connection must be errored at once, not held open while
  // the collector buffers toward the claimed size.
  const Endpoint ep = uds_endpoint("col_stall");
  RunningCollector collector(ep);
  Socket s = try_connect(ep, 1000);
  ASSERT_TRUE(s.valid());
  ASSERT_TRUE(send_all(s, header_bytes() + frame(static_cast<trace::wire::FrameType>(99), "",
                                                 /*lie_about_size=*/1 << 20)));
  EXPECT_TRUE(wait_until(
      [&] { return collector.service.stats().connections_errored == 1; }, 2000))
      << "an unknown frame type must error the connection without its payload";
  EXPECT_EQ(collector.service.open_connections(), 0u);
  collector.stop();
}

// --- connection lifecycle ---------------------------------------------------

TEST(CollectorE2E, GracefulDrainConsumesStreamInFlightAtStop) {
  const Endpoint ep = uds_endpoint("col_drain");
  CollectorOptions copts;
  copts.drain_timeout_ms = 3000;
  RunningCollector collector(ep, copts);

  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  Span s;
  s.id = 1;
  s.name = StrId("drain_op");
  s.tracer = StrId("drain_tracer");
  s.begin = 0;
  s.end = 1;
  std::string bytes = header_bytes();
  bytes += frame(trace::wire::FrameType::kStringDelta,
                 delta_entry(s.name.raw(), "drain_op") +
                     delta_entry(s.tracer.raw(), "drain_tracer"));
  bytes += frame(trace::wire::FrameType::kSpanBatch, span_batch_payload({s}));
  ASSERT_TRUE(send_all(producer, bytes));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().spans_ingested == 1; }));

  // Stop with the connection still open: the drain phase must keep
  // consuming it until our half-close, then ack — not cut it off.
  collector.service.stop();
  trace::wire::Footer f{};
  f.span_count = 1;
  ASSERT_TRUE(send_all(producer, footer_frame(f)));
  producer.shutdown_write();
  (void)read_to_eof(producer);
  collector.stop();

  const CollectorStats stats = collector.service.stats();
  EXPECT_EQ(stats.footers_seen, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
  EXPECT_EQ(stats.connections_errored, 0u);
}

TEST(CollectorE2E, StopWakesAnIdleLoopAtOnce) {
  // run() waits with no poll timeout, so only stop()'s self-pipe byte can
  // wake an idle loop. A lost wake-up fails the bound below instead of
  // hanging: a probe connection then wakes the loop so it can be joined.
  const Endpoint ep = uds_endpoint("col_wake");
  trace::TraceServer server(trace::PublishMode::kSync);
  CollectorService service(ep, server);
  std::atomic<bool> returned{false};
  std::thread loop([&] {
    service.run();
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let run() block
  service.stop();
  const bool woke = wait_until([&] { return returned.load(); });
  if (!woke) (void)try_connect(ep, 1000);
  loop.join();
  EXPECT_TRUE(woke) << "stop() did not wake the poll loop";
}

TEST(CollectorE2E, DrainDeadlineCutsOffAStalledProducer) {
  // A producer that never finishes its stream holds the graceful drain
  // for exactly drain_timeout_ms, then is cut off and counted as errored.
  const Endpoint ep = uds_endpoint("col_stall");
  CollectorOptions copts;
  copts.drain_timeout_ms = 200;
  RunningCollector collector(ep, copts);
  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  ASSERT_TRUE(send_all(producer, header_bytes()));
  ASSERT_TRUE(wait_until([&] { return collector.service.stats().bytes_received > 0; }));

  const auto t0 = std::chrono::steady_clock::now();
  collector.stop();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, std::chrono::milliseconds(200));
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_EQ(collector.service.stats().connections_errored, 1u);
  EXPECT_EQ(collector.service.open_connections(), 0u);
}

TEST(RemoteSinkLifecycle, ReconnectOpensFreshStreamAndStringDeltaEpoch) {
  const Endpoint ep = uds_endpoint("col_epoch");
  Listener listener(ep);  // this test plays the daemon, byte-level

  trace::RemoteSink sink(ep);

  Span first;
  first.id = sink.next_span_id();
  first.name = StrId("epoch_marker_string");
  first.tracer = StrId("epoch_tracer");
  first.begin = 0;
  first.end = 1;
  sink.publish(first);

  Socket conn_a = accept_within(listener);
  ASSERT_TRUE(conn_a.valid());
  std::string a_bytes;
  ASSERT_TRUE(read_until_contains(conn_a, a_bytes, "epoch_marker_string"));
  ASSERT_GE(a_bytes.size(), sizeof(trace::wire::Header));
  EXPECT_EQ(a_bytes.compare(0, 4, "XSPB"), 0);
  conn_a.close();  // daemon dies mid-stream

  // Keep publishing until the sink notices and re-establishes.
  std::thread prodder([&] {
    while (sink.reconnects() == 0) {
      Span filler;
      filler.id = sink.next_span_id();
      filler.name = StrId("epoch_filler");
      filler.tracer = StrId("epoch_tracer");
      filler.begin = 2;
      filler.end = 3;
      sink.publish(filler);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  Socket conn_b = accept_within(listener, 10000);
  prodder.join();
  ASSERT_TRUE(conn_b.valid());
  EXPECT_EQ(sink.reconnects(), 1u);

  // The new connection is a complete stream on its own: fresh header,
  // and the delta epoch restarts from cursor zero — a string already
  // shipped on connection A ships again.
  std::string b_bytes;
  ASSERT_TRUE(read_until_contains(conn_b, b_bytes, "epoch_marker_string"))
      << "reconnect must replay the string table from scratch";
  ASSERT_GE(b_bytes.size(), sizeof(trace::wire::Header));
  EXPECT_EQ(b_bytes.compare(0, 4, "XSPB"), 0);

  // Ack the close handshake so close() returns via the protocol, not the
  // timeout: consume to EOF (the footer) then close our end.
  std::thread acker([&] {
    (void)read_to_eof(conn_b);
    conn_b.close();
  });
  sink.close();
  acker.join();
}

TEST(RemoteSinkLifecycle, DaemonDeathLeavesProducerAliveWithAccountedDrops) {
  const Endpoint ep = uds_endpoint("col_death");
  CollectorOptions copts;
  copts.drain_timeout_ms = 100;
  auto collector = std::make_unique<RunningCollector>(ep, copts);

  trace::RemoteSinkOptions opts;
  opts.max_outbox_spans = 128;  // small: drops surface quickly once dead
  trace::RemoteSink sink(ep, opts);

  publish_fleet_member(sink, 0, 100);
  sink.flush();
  ASSERT_TRUE(wait_until(
      [&] { return collector->service.stats().spans_ingested > 0; }))
      << "producer must be mid-stream before the daemon dies";

  collector.reset();  // daemon killed: connection cut, endpoint gone

  // The producer thread keeps publishing; the sink must absorb the death
  // without blocking or throwing, and account every span it sheds.
  std::size_t extra = 0;
  while (sink.spans_dropped() == 0 && extra < 100000) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("death_op");
    s.tracer = StrId("death_tracer");
    s.begin = 0;
    s.end = 1;
    sink.publish(s);
    // Deliver every 16 spans: the outbox fills (and drops) at once rather
    // than when the server next seals or sweeps a batch.
    if (++extra % 16 == 0) sink.flush();
  }
  EXPECT_GT(sink.spans_dropped(), 0u)
      << "a dead daemon must surface as accounted drops, not silence";

  sink.close();  // must not wedge against the unreachable endpoint
  EXPECT_EQ(sink.spans_published(), 100u + extra);
  EXPECT_EQ(sink.spans_sent() + sink.spans_dropped(), sink.spans_published())
      << "every span ends up either sent or accounted dropped";
}

TEST(RemoteSinkLifecycle, FourThreadsShareOneSinkWithoutLossOrDuplicateIds) {
  // Each publishing thread appends to its own producer slot of the sink's
  // server; ids come from the sink on every thread at once.
  constexpr int kThreads = 4;
  constexpr std::size_t kSpansEach = 3000;
  const Endpoint ep = uds_endpoint("col_mt");
  RunningCollector collector(ep);

  std::vector<SpanId> producer_ids;
  std::uint64_t published = 0;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;
  {
    trace::RemoteSink sink(ep);
    std::vector<std::vector<SpanId>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&sink, &ids, t] {
        for (std::size_t i = 0; i < kSpansEach; ++i) {
          Span s;
          s.id = sink.next_span_id();
          s.name = StrId("mt_op_" + std::to_string(t));
          s.tracer = StrId("mt_tracer");
          s.begin = static_cast<TimePoint>(t * kSpansEach + i);  // unique per span
          s.end = s.begin + 1;
          sink.publish(s);
          ids[t].push_back(s.id);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    sink.close();
    published = sink.spans_published();
    sent = sink.spans_sent();
    dropped = sink.spans_dropped();
    for (const auto& v : ids) producer_ids.insert(producer_ids.end(), v.begin(), v.end());
  }
  collector.stop();

  constexpr std::size_t kTotal = kThreads * kSpansEach;
  EXPECT_EQ(published, kTotal);
  EXPECT_EQ(published, sent + dropped);
  EXPECT_EQ(dropped, 0u);
  std::sort(producer_ids.begin(), producer_ids.end());
  EXPECT_TRUE(std::adjacent_find(producer_ids.begin(), producer_ids.end()) ==
              producer_ids.end())
      << "the sink handed one id to two spans";

  EXPECT_EQ(collector.service.stats().spans_ingested, kTotal);
  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), kTotal);
  std::vector<SpanId> ids;
  std::vector<std::int64_t> begins;
  for (const Span& s : spans) {
    ids.push_back(s.id);
    begins.push_back(s.begin);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end())
      << "duplicate span id at the collector";
  std::sort(begins.begin(), begins.end());
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(begins[i], static_cast<std::int64_t>(i)) << "span ingested twice or never";
  }
}

TEST(RemoteSinkLifecycle, PublishRacingCloseIsStillAccounted) {
  // One thread keeps publishing while the main thread closes the sink.
  // A publish that slips past close()'s final flush must still end up
  // sent or dropped, never stranded in the sink's server.
  const Endpoint ep = uds_endpoint("col_close_race");
  RunningCollector collector(ep);
  trace::RemoteSink sink(ep);

  std::atomic<std::uint64_t> calls{0};
  std::atomic<bool> closed{false};
  std::atomic<bool> done{false};
  std::atomic<bool> exit{false};
  std::thread publisher([&] {
    std::uint64_t after_close = 0;
    while (after_close < 100) {
      Span s;
      s.id = sink.next_span_id();
      s.name = StrId("race_op");
      s.tracer = StrId("race_tracer");
      s.begin = 0;
      s.end = 1;
      const bool late = closed.load(std::memory_order_acquire);
      sink.publish(s);
      calls.fetch_add(1, std::memory_order_relaxed);
      if (late) ++after_close;
    }
    done.store(true, std::memory_order_release);
    // Stay alive: a thread's exit makes the server sweep its slot, which
    // would deliver a stranded span after all.
    while (!exit.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  ASSERT_TRUE(wait_until([&] { return calls.load() >= 1000; }));
  sink.close();
  closed.store(true, std::memory_order_release);
  ASSERT_TRUE(wait_until([&] { return done.load(std::memory_order_acquire); }));

  // Read before anything flushes the server again: close() and the
  // publishes themselves must have accounted every span.
  const std::uint64_t accounted = sink.spans_sent() + sink.spans_dropped();
  EXPECT_EQ(accounted, calls.load());
  EXPECT_GE(sink.spans_dropped(), 100u) << "publishes after close() drop, accounted";
  exit.store(true, std::memory_order_release);
  publisher.join();
  EXPECT_EQ(sink.spans_published(), calls.load());
  EXPECT_EQ(sink.spans_published(), sink.spans_sent() + sink.spans_dropped());
  collector.stop();
}

TEST(RemoteSinkLifecycle, RunsExactlyOneThread) {
  // The sender is the sink's only thread: it drains the sink's kSync
  // server itself, so the server starts no collector of its own.
  const Endpoint ep = uds_endpoint("col_threads");
  RunningCollector collector(ep);
  const std::size_t before = test::thread_count();
  trace::RemoteSink sink(ep);
  EXPECT_EQ(test::thread_count(), before + 1);

  constexpr std::size_t kSpans = 3 * trace::kBatchCapacity;
  publish_fleet_member(sink, 0, kSpans);
  ASSERT_TRUE(wait_until([&] { return collector.service.stats().spans_ingested == kSpans; }));
  EXPECT_EQ(test::thread_count(), before + 1) << "connected and sending";

  sink.close();
  // join() can return a moment before the kernel drops the task.
  EXPECT_TRUE(wait_until([&] { return test::thread_count() == before; }, 1000))
      << test::thread_count() << " threads, " << before << " before the sink";
  EXPECT_EQ(sink.spans_sent(), kSpans);
}

// --- heartbeats: producer health at the daemon -----------------------------

/// One full scrape against the daemon's metrics endpoint: raw HTTP/1.0
/// exchange, returns the response body (empty on any failure).
std::string scrape_metrics(const Endpoint& ep) {
  Socket s = try_connect(ep, 1000);
  if (!s.valid()) return {};
  if (!send_all(s, "GET /metrics HTTP/1.0\r\n\r\n")) return {};
  const std::string resp = read_to_eof(s);
  const std::size_t split = resp.find("\r\n\r\n");
  if (split == std::string::npos) return {};
  if (resp.compare(0, 15, "HTTP/1.0 200 OK") != 0) return {};
  return resp.substr(split + 4);
}

TEST(CollectorHeartbeat, HeartbeatIngestExposesPerProducerSeriesAndStaleness) {
  const Endpoint ep = uds_endpoint("col_hb");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  copts.heartbeat_stale_ms = 150;
  RunningCollector collector(ep, copts);
  ASSERT_NE(collector.service.metrics_endpoint(), nullptr);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  // A producer announces itself with a heartbeat carrying its counters.
  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  trace::wire::Heartbeat hb{};
  hb.sequence = 1;
  hb.spans_published = 500;
  hb.spans_sent = 450;
  hb.spans_dropped = 40;
  hb.spans_shed = 10;
  hb.sampled_kept = 400;
  hb.sampled_dropped = 100;
  hb.reconnects = 2;
  hb.outbox_spans = 17;
  ASSERT_TRUE(send_all(producer, header_bytes() + heartbeat_frame(hb)));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen == 1; }));

  // Fresh heartbeat: the producer's own counters are on /metrics, labeled
  // by its connection, and it is not stale.
  std::string body = scrape_metrics(scrape_ep);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("xsp_producer_published_spans_total{conn=\"1\"} 500"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("xsp_producer_sent_spans_total{conn=\"1\"} 450"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_dropped_spans_total{conn=\"1\"} 40"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_shed_spans_total{conn=\"1\"} 10"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_reconnects_total{conn=\"1\"} 2"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_outbox_spans{conn=\"1\"} 17"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_heartbeat_sequence{conn=\"1\"} 1"), std::string::npos);
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 0"), std::string::npos);

  // Heartbeats stop but the connection stays open: staleness flips.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  body = scrape_metrics(scrape_ep);
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 1"), std::string::npos)
      << "a silent producer must be flagged stale\n" << body;

  // A later heartbeat revives it — latest wins, staleness clears.
  hb.sequence = 2;
  hb.spans_published = 600;
  ASSERT_TRUE(send_all(producer, heartbeat_frame(hb)));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen == 2; }));
  body = scrape_metrics(scrape_ep);
  EXPECT_NE(body.find("xsp_producer_published_spans_total{conn=\"1\"} 600"),
            std::string::npos);
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 0"), std::string::npos);

  producer.shutdown_write();
  (void)read_to_eof(producer);
  collector.stop();
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
}

TEST(CollectorHeartbeat, ProducerWithoutHeartbeatGetsConnectionSeriesButNoHealthSeries) {
  const Endpoint ep = uds_endpoint("col_hb_none");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  RunningCollector collector(ep, copts);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  // A producer streams a span but has not sent a heartbeat yet, so it
  // must get per-connection transport series but no xsp_producer_* ones —
  // absence, not fabricated zeros (silence is not health data).
  Socket producer = try_connect(ep, 1000);
  ASSERT_TRUE(producer.valid());
  Span s;
  s.id = 1;
  s.name = StrId("quiet_op");
  s.tracer = StrId("quiet_tracer");
  s.begin = 0;
  s.end = 1;
  std::string bytes = header_bytes();
  bytes += frame(trace::wire::FrameType::kStringDelta,
                 delta_entry(s.name.raw(), "quiet_op") +
                     delta_entry(s.tracer.raw(), "quiet_tracer"));
  bytes += frame(trace::wire::FrameType::kSpanBatch, span_batch_payload({s}));
  ASSERT_TRUE(send_all(producer, bytes));
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().spans_ingested == 1; }));

  const std::string body = scrape_metrics(scrape_ep);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("xsp_connection_spans_total{conn=\"1\"} 1"), std::string::npos);
  EXPECT_EQ(body.find("xsp_producer_"), std::string::npos)
      << "a connection without heartbeats must not fabricate producer-health series\n"
      << body;
  EXPECT_NE(body.find("xsp_ingested_spans_total 1"), std::string::npos);

  producer.shutdown_write();
  (void)read_to_eof(producer);
  collector.stop();
}

TEST(CollectorHeartbeat, RemoteSinkHeartbeatsFlowEndToEnd) {
  const Endpoint ep = uds_endpoint("col_hb_e2e");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  RunningCollector collector(ep, copts);
  const Endpoint scrape_ep = *collector.service.metrics_endpoint();

  trace::RemoteSinkOptions opts;
  opts.heartbeat_interval_ms = 30;
  trace::RemoteSink sink(ep, opts);
  publish_fleet_member(sink, 0, 50);
  sink.flush();
  ASSERT_TRUE(wait_until(
      [&] { return collector.service.stats().heartbeats_seen >= 2; }))
      << "a live RemoteSink must beacon on its configured cadence";

  const std::string body = scrape_metrics(scrape_ep);
  EXPECT_NE(body.find("xsp_producer_published_spans_total{conn=\"1\"} 50"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("xsp_producer_stale{conn=\"1\"} 0"), std::string::npos);

  sink.close();
  collector.stop();
  EXPECT_GE(sink.heartbeats_sent(), 2u);
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
  // After the connection closes its per-producer series are gone from the
  // scrape state; the aggregate heartbeat counter is what persists.
  EXPECT_GE(collector.service.stats().heartbeats_seen, 2u);
}

TEST(CollectorHeartbeat, LiveRemoteSinkTrickleArrivesWithoutFlush) {
  // Ten spans never fill a batch, and the sink is neither flushed nor
  // closed: its server's 50 ms quiet sweep must deliver them to the
  // outbox whether heartbeats run or not, and the daemon hands the
  // decoded frame to its kAsync server sealed.
  struct Input {
    int interval_ms;
    int deadline_ms;
  };
  for (const Input input : {Input{200, 3 * 200}, Input{0, 1000}}) {
    SCOPED_TRACE("heartbeat_interval_ms = " + std::to_string(input.interval_ms));
    std::atomic<std::size_t> delivered{0};
    const Endpoint ep = uds_endpoint("col_trickle" + std::to_string(input.interval_ms));
    RunningCollector collector(ep, {}, trace::PublishMode::kAsync);
    collector.server.add_drain_subscriber(
        [&delivered](const trace::SpanBatches& batches) {
          for (const auto& batch : batches) delivered.fetch_add(batch.size());
        },
        trace::DrainHandoff::kConsume);

    trace::RemoteSinkOptions opts;
    opts.heartbeat_interval_ms = input.interval_ms;
    trace::RemoteSink sink(ep, opts);
    publish_fleet_member(sink, 0, 10);
    EXPECT_TRUE(wait_until([&] { return delivered.load() == 10; }, input.deadline_ms))
        << delivered.load() << " of 10 spans delivered";

    sink.close();
    collector.stop();
    EXPECT_EQ(sink.spans_published(), sink.spans_sent() + sink.spans_dropped());
    EXPECT_EQ(sink.spans_dropped(), 0u);
  }
}

TEST(CollectorE2E, SmallFrameReachesTheDrainWithoutTheQuietSweep) {
  // Each trickle is one ten-span frame, far short of a 256-span slot
  // batch. The collector hands the decoded frame to its kAsync server
  // sealed, so the frame wakes the drain at once instead of waiting for
  // the server's 50 ms sweep of partial batches.
  using Clock = std::chrono::steady_clock;
  constexpr int kTrickles = 20;
  constexpr std::size_t kSpans = 10;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t delivered = 0;
  const Endpoint ep = uds_endpoint("col_frame");
  RunningCollector collector(ep, {}, trace::PublishMode::kAsync);
  collector.server.add_drain_subscriber(
      [&](const trace::SpanBatches& batches) {
        std::size_t n = 0;
        for (const auto& batch : batches) n += batch.size();
        {
          std::lock_guard lk(mu);
          delivered += n;
        }
        cv.notify_all();
      },
      trace::DrainHandoff::kConsume);

  trace::RemoteSink sink(ep);
  std::vector<Clock::duration> lags;
  for (int trickle = 0; trickle < kTrickles; ++trickle) {
    publish_fleet_member(sink, 0, kSpans);
    const auto t0 = Clock::now();
    sink.flush();
    std::unique_lock lk(mu);
    const bool arrived = cv.wait_for(lk, std::chrono::seconds(2), [&] {
      return delivered >= (trickle + 1) * kSpans;
    });
    ASSERT_TRUE(arrived) << "trickle " << trickle << ": " << delivered << " spans delivered";
    lags.push_back(Clock::now() - t0);
  }
  std::nth_element(lags.begin(), lags.begin() + lags.size() / 2, lags.end());
  EXPECT_LT(lags[lags.size() / 2], std::chrono::milliseconds(10));

  sink.close();
  collector.stop();
  EXPECT_EQ(sink.spans_dropped(), 0u);
}

TEST(CollectorE2E, DefaultSinkShipsEachFullPoolBlockWithoutFlush) {
  // The sink's server seals its slot batch, one pool block, when it
  // fills: one block's worth of spans reaches the drain with no flush(),
  // no close() and, heartbeats off, no tick.
  std::atomic<std::size_t> delivered{0};
  const Endpoint ep = uds_endpoint("col_block");
  RunningCollector collector(ep, {}, trace::PublishMode::kAsync);
  collector.server.add_drain_subscriber(
      [&delivered](const trace::SpanBatches& batches) {
        for (const auto& batch : batches) delivered.fetch_add(batch.size());
      },
      trace::DrainHandoff::kConsume);

  trace::RemoteSinkOptions opts;
  opts.heartbeat_interval_ms = 0;
  trace::RemoteSink sink(ep, opts);
  publish_fleet_member(sink, 0, trace::kBatchCapacity);
  EXPECT_TRUE(wait_until([&] { return delivered.load() == trace::kBatchCapacity; }, 1000))
      << delivered.load() << " of " << trace::kBatchCapacity << " spans delivered";

  sink.close();
  collector.stop();
  EXPECT_EQ(sink.spans_sent(), trace::kBatchCapacity);
  EXPECT_EQ(sink.spans_dropped(), 0u);
}

TEST(RemoteSinkMetrics, ScrapesAndHeartbeatsLeaveAPartialBatchWhole) {
  // Scrapes and heartbeats read the sink's counters as of its sender's
  // last drain pass. Were they to flush the sink's server, each would ship
  // the partial batch early as one more frame. The sender's own 50 ms
  // quiet sweep could split it too, so a round that runs 40 ms or more
  // after the flush that reset the sweep proves nothing and is retried.
  using Clock = std::chrono::steady_clock;
  constexpr std::size_t kPieces = 4;
  constexpr std::size_t kPieceSpans = 5;
  bool measured = false;
  for (int attempt = 0; attempt < 5 && !measured; ++attempt) {
    std::mutex mu;
    std::vector<std::size_t> frames;  // one decoded frame is one batch here
    const Endpoint ep = uds_endpoint("col_scrape" + std::to_string(attempt));
    RunningCollector collector(ep, {}, trace::PublishMode::kAsync);
    collector.server.add_drain_subscriber(
        [&](const trace::SpanBatches& batches) {
          std::lock_guard lk(mu);
          for (const auto& batch : batches) frames.push_back(batch.size());
        },
        trace::DrainHandoff::kConsume);
    const auto delivered = [&] {
      std::lock_guard lk(mu);
      std::size_t n = 0;
      for (const std::size_t f : frames) n += f;
      return n;
    };

    trace::RemoteSinkOptions opts;
    opts.heartbeat_interval_ms = 2;
    trace::RemoteSink sink(ep, opts);
    metrics::Registry registry;
    sink.bind_metrics(registry);
    // One span first, so the sink is connected and heartbeating.
    publish_fleet_member(sink, 0, 1);
    sink.flush();
    ASSERT_TRUE(wait_until([&] { return delivered() == 1; }));

    // A flush wakes the sender, whose pass restarts the quiet sweep.
    sink.flush();
    const auto t0 = Clock::now();
    std::string text;
    for (std::size_t piece = 0; piece < kPieces; ++piece) {
      publish_fleet_member(sink, 1, kPieceSpans);
      text.clear();
      registry.write_prometheus(text);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));  // heartbeats run
    }
    measured = Clock::now() - t0 < std::chrono::milliseconds(40);
    sink.flush();
    constexpr std::size_t kTotal = 1 + kPieces * kPieceSpans;
    ASSERT_TRUE(wait_until([&] { return delivered() == kTotal; }));
    if (measured) {
      EXPECT_GE(sink.heartbeats_sent(), 2u);
      std::lock_guard lk(mu);
      EXPECT_EQ(frames, (std::vector<std::size_t>{1, kPieces * kPieceSpans}))
          << "a scrape or heartbeat shipped part of the batch early";
      text.clear();
      registry.write_prometheus(text);
      EXPECT_NE(text.find("xsp_remote_published_spans_total " + std::to_string(kTotal)),
                std::string::npos)
          << "a scrape reads the counts of the last drain pass\n"
          << text;
    }
    sink.close();
    collector.stop();
  }
  EXPECT_TRUE(measured) << "no round finished within 40 ms of the sweep reset";
}

// --- sampling admission & selective shedding ------------------------------

TEST(RemoteSinkSampling, PublishAdmissionHoldsTheInvariant) {
  const Endpoint ep = uds_endpoint("col_sample");
  RunningCollector collector(ep);

  trace::RemoteSink sink(ep);
  trace::SamplerOptions sopts;
  sopts.rate = 0.25;
  sink.set_sampler(std::make_shared<const trace::Sampler>(sopts));

  constexpr std::size_t kSpans = 4000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("sampled_op");
    s.tracer = StrId("sampled_tracer");
    s.begin = static_cast<TimePoint>(i * 10);
    s.end = s.begin + 7;
    s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
  }
  sink.close();

  EXPECT_EQ(sink.spans_published(), kSpans);
  EXPECT_GT(sink.spans_sampled_dropped(), 0u);
  EXPECT_GT(sink.spans_sampled_kept(), 0u);
  EXPECT_EQ(sink.spans_sampled_kept() + sink.spans_sampled_dropped(), kSpans)
      << "every publish lands in exactly one admission bucket";
  // The close() invariant with sampling: sampled-out spans are their own
  // bucket, disjoint from congestion/disconnect drops.
  EXPECT_EQ(sink.spans_sent() + sink.spans_dropped() + sink.spans_sampled_dropped(),
            sink.spans_published());
  // Only admitted spans reached the daemon.
  EXPECT_EQ(collector.service.stats().spans_ingested, sink.spans_sent());
}

TEST(RemoteSinkSampling, BackpressureShedsSelectivelyBeforeBlindDrops) {
  // No daemon at the endpoint: the outbox fills, and with a sampler
  // attached the sink must shed low-value spans selectively (counted in
  // spans_shed) rather than only dropping whole batches blind.
  const Endpoint ep = uds_endpoint("col_shed_none");
  trace::RemoteSinkOptions opts;
  opts.max_outbox_spans = 4 * trace::kBatchCapacity;
  trace::RemoteSink sink(ep, opts);
  trace::SamplerOptions sopts;
  sopts.rate = 1.0;  // admit everything; shedding is the pressure path
  sopts.tail_keep_ns = 1000;
  sink.set_sampler(std::make_shared<const trace::Sampler>(sopts));

  constexpr std::size_t kSpans = 20000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("shed_op");
    s.tracer = StrId("shed_tracer");
    s.begin = 0;
    s.end = i % 100 == 0 ? 2000 : 10;  // a 1% tail the shed must keep
    s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
  }
  sink.close();

  EXPECT_EQ(sink.spans_published(), kSpans);
  EXPECT_GT(sink.spans_shed(), 0u) << "pressure must shed selectively with a sampler";
  EXPECT_LE(sink.spans_shed(), sink.spans_dropped())
      << "sheds are an of-which breakdown of total drops";
  EXPECT_EQ(sink.spans_sampled_dropped(), 0u) << "rate 1.0 rejects nothing at admission";
  EXPECT_EQ(sink.spans_sent() + sink.spans_dropped(), sink.spans_published());
}

// --- per-connection id namespaces ------------------------------------------

/// Producer-side ids of one crafted span.
struct EdgeSpan {
  SpanId id;
  SpanId parent;
  std::uint64_t corr;
};

constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint64_t>::max();

/// Producer ids on both sides of 1024-id block edges, up to UINT64_MAX:
/// MAX-1 and MAX keep distinct low bits, so no two alias. The first eight
/// spans each name the next as parent, so every parent is published after
/// its child (1025 -> 2047 even in a later batch), and 1023 -> 1024,
/// 2047 -> 2048, 2048 -> MAX-1 cross an edge.
/// Correlation pairs 1023 and 1024 straddle an edge; span 2 points back
/// at an already-published parent and carries no correlation id.
constexpr EdgeSpan kEdgeSpans[] = {
    {1, 1023, 1023},
    {1023, 1024, 1023},
    {1024, 1025, 1024},
    {1025, 2047, 1024},
    {2047, 2048, 2047},
    {2048, kMaxId - 1, 2047},
    {kMaxId - 1, kMaxId, kMaxId},
    {kMaxId, kNoSpan, kMaxId},
    {2, 1, 0},
};
constexpr std::size_t kEdgeFirstBatch = 4;

TEST(CollectorRemap, BlockEdgeIdsStayInjectiveAndResolvePerConnection) {
  constexpr std::uint32_t kNameId = 0x00DD0001;
  constexpr std::uint32_t kTracerId = 0x00DD0002;
  constexpr std::size_t kN = std::size(kEdgeSpans);
  // Two connections send the same producer ids; only the tracer differs.
  // A span's index in kEdgeSpans rides in `begin`, which ingest keeps.
  const auto stream = [&](std::string_view tracer) {
    std::vector<Span> spans;
    for (std::size_t i = 0; i < kN; ++i) {
      Span s;
      s.id = kEdgeSpans[i].id;
      s.parent = kEdgeSpans[i].parent;
      s.correlation_id = kEdgeSpans[i].corr;
      s.name = StrId::from_raw(kNameId);
      s.tracer = StrId::from_raw(kTracerId);
      s.begin = static_cast<TimePoint>(i);
      s.end = s.begin + 1;
      spans.push_back(s);
    }
    const std::vector<Span> first(spans.begin(), spans.begin() + kEdgeFirstBatch);
    const std::vector<Span> second(spans.begin() + kEdgeFirstBatch, spans.end());
    return std::array<std::string, 3>{
        header_bytes() +
            frame(trace::wire::FrameType::kStringDelta,
                  delta_entry(kNameId, "edge_op") + delta_entry(kTracerId, tracer)),
        frame(trace::wire::FrameType::kSpanBatch, span_batch_payload(first)),
        frame(trace::wire::FrameType::kSpanBatch, span_batch_payload(second))};
  };
  const auto a_parts = stream("remap_a");
  const auto b_parts = stream("remap_b");

  const Endpoint ep = uds_endpoint("col_remap_edges");
  RunningCollector collector(ep);
  Socket a = try_connect(ep, 1000);
  Socket b = try_connect(ep, 1000);
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(b.valid());
  for (std::size_t part = 0; part < a_parts.size(); ++part) {
    ASSERT_TRUE(send_all(a, a_parts[part]));
    ASSERT_TRUE(send_all(b, b_parts[part]));
  }
  ASSERT_TRUE(wait_until([&] { return collector.service.stats().spans_ingested == 2 * kN; }));

  // Spans 5-7 of each stream carry an id past the namespace bits.
  EXPECT_EQ(collector.service.stats().wide_id_spans, 6u);

  a.shutdown_write();
  b.shutdown_write();
  (void)read_to_eof(a);
  (void)read_to_eof(b);
  collector.stop();
  collector.server.flush();
  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), 2 * kN);

  std::vector<SpanId> all_ids;
  std::map<std::string, std::vector<std::uint64_t>> corrs_by_tracer;
  for (const char* tracer : {"remap_a", "remap_b"}) {
    std::vector<const Span*> by_index(kN, nullptr);
    for (const Span& s : spans) {
      if (s.tracer == tracer) by_index.at(static_cast<std::size_t>(s.begin)) = &s;
    }
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_NE(by_index[i], nullptr) << tracer << " lost span " << i;
      all_ids.push_back(by_index[i]->id);
    }
    for (std::size_t i = 0; i < kN; ++i) {
      const Span& s = *by_index[i];
      // Every parent edge resolves to its parent's server id.
      if (kEdgeSpans[i].parent == kNoSpan) {
        EXPECT_EQ(s.parent, kNoSpan);
      } else {
        std::size_t j = 0;
        while (kEdgeSpans[j].id != kEdgeSpans[i].parent) ++j;
        EXPECT_EQ(s.parent, by_index[j]->id)
            << tracer << ": parent of producer span " << kEdgeSpans[i].id;
      }
      // Correlation pairs match exactly when their producer ids do.
      EXPECT_EQ(s.correlation_id == 0, kEdgeSpans[i].corr == 0);
      if (s.correlation_id != 0) corrs_by_tracer[tracer].push_back(s.correlation_id);
      for (std::size_t j = 0; j < kN; ++j) {
        EXPECT_EQ(s.correlation_id == by_index[j]->correlation_id,
                  kEdgeSpans[i].corr == kEdgeSpans[j].corr)
            << tracer << ": correlation of spans " << i << " and " << j;
      }
    }
  }
  // Ids are unique within each connection and disjoint across the two.
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_TRUE(std::adjacent_find(all_ids.begin(), all_ids.end()) == all_ids.end())
      << "duplicate remapped span id";
  EXPECT_EQ(std::count(all_ids.begin(), all_ids.end(), kNoSpan), 0);
  std::vector<std::uint64_t>& ca = corrs_by_tracer["remap_a"];
  std::vector<std::uint64_t>& cb = corrs_by_tracer["remap_b"];
  std::sort(ca.begin(), ca.end());
  std::sort(cb.begin(), cb.end());
  std::vector<std::uint64_t> shared;
  std::set_intersection(ca.begin(), ca.end(), cb.begin(), cb.end(),
                        std::back_inserter(shared));
  EXPECT_TRUE(shared.empty()) << "correlation ids shared across connections";
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
}

TEST(CollectorRemap, RemoteSinksWithWideConnectIdsStayDisjoint) {
  // Two real sinks each open with one UINT64_MAX-id span, as the fleet
  // benchmark's producers do, then publish dense ids: a parent chain and
  // launch/execution correlation pairs. Both sinks hand out the same ids.
  constexpr std::size_t kDense = 600;
  const Endpoint ep = uds_endpoint("col_wide_ids");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  RunningCollector collector(ep, copts);
  const char* const kTracers[] = {"wide_a", "wide_b"};
  for (const char* tracer : kTracers) {
    trace::RemoteSink sink(ep);
    Span connect;
    connect.id = kMaxId;
    connect.name = StrId("wide_connect");
    connect.tracer = StrId(tracer);
    connect.begin = static_cast<TimePoint>(kDense);  // after every dense span
    connect.end = connect.begin + 1;
    sink.publish(connect);
    sink.flush();
    SpanId prev = kNoSpan;
    std::uint64_t corr = 0;
    for (std::size_t i = 0; i < kDense; ++i) {
      Span s;
      s.id = sink.next_span_id();
      s.parent = prev;
      if (i % 2 == 0) corr = sink.next_correlation_id();
      s.correlation_id = corr;
      s.name = StrId("wide_op");
      s.tracer = StrId(tracer);
      s.begin = static_cast<TimePoint>(i);
      s.end = s.begin + 1;
      sink.publish(s);
      prev = s.id;
    }
    sink.close();
    EXPECT_EQ(sink.spans_dropped(), 0u);
  }
  constexpr std::size_t kTotal = 2 * (kDense + 1);
  ASSERT_TRUE(wait_until([&] { return collector.service.stats().spans_ingested == kTotal; }));
  const std::string body = scrape_metrics(*collector.service.metrics_endpoint());
  EXPECT_NE(body.find("\nxsp_collector_wide_id_spans_total 2\n"), std::string::npos) << body;
  collector.stop();
  EXPECT_EQ(collector.service.stats().wide_id_spans, 2u);
  EXPECT_EQ(collector.service.stats().connections_errored, 0u);
  collector.server.flush();
  const std::vector<Span> spans = collector.server.take_trace();
  ASSERT_EQ(spans.size(), kTotal);

  std::vector<SpanId> all_ids;
  std::vector<std::uint64_t> all_corrs;
  for (const char* tracer : kTracers) {
    std::vector<const Span*> by_index(kDense + 1, nullptr);
    for (const Span& s : spans) {
      if (s.tracer == tracer) by_index.at(static_cast<std::size_t>(s.begin)) = &s;
    }
    ASSERT_NE(by_index[kDense], nullptr) << tracer << " lost its connect span";
    all_ids.push_back(by_index[kDense]->id);
    for (std::size_t i = 0; i < kDense; ++i) {
      ASSERT_NE(by_index[i], nullptr) << tracer << " lost span " << i;
      const Span& s = *by_index[i];
      all_ids.push_back(s.id);
      // Every parent edge resolves to the span published just before.
      EXPECT_EQ(s.parent, i == 0 ? kNoSpan : by_index[i - 1]->id) << tracer << " span " << i;
      // Launch/execution pairs share a correlation id, and only they do.
      ASSERT_NE(s.correlation_id, 0u);
      if (i % 2 == 1) {
        EXPECT_EQ(s.correlation_id, by_index[i - 1]->correlation_id) << tracer << " span " << i;
      } else {
        all_corrs.push_back(s.correlation_id);
      }
    }
  }
  // Ids are unique within each sink and disjoint across the two.
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_TRUE(std::adjacent_find(all_ids.begin(), all_ids.end()) == all_ids.end())
      << "span id shared across or within connections";
  EXPECT_EQ(std::count(all_ids.begin(), all_ids.end(), kNoSpan), 0);
  std::sort(all_corrs.begin(), all_corrs.end());
  EXPECT_TRUE(std::adjacent_find(all_corrs.begin(), all_corrs.end()) == all_corrs.end())
      << "correlation id shared across pairs or connections";
}

// --- one counter table, two surfaces -----------------------------------------

TEST(CollectorCounters, EveryCounterShowsOnMetricsAndStatsJson) {
  static_assert(std::size(kCollectorCounters) == 16);
  const Endpoint ep = uds_endpoint("col_counters");
  CollectorOptions copts;
  copts.metrics_endpoint = "tcp://127.0.0.1:0";
  RunningCollector collector(ep, copts);
  // One sampled producer stream with a wide id, closed with its footer,
  // so the footer-fed and the wide-id counters are non-zero too.
  trace::RemoteSink sink(ep);
  Span wide;
  wide.id = kMaxId;
  wide.name = StrId("counted_op");
  wide.tracer = StrId("counted_tracer");
  sink.publish(wide);  // before the sampler, so it is never shed
  trace::SamplerOptions sopts;
  sopts.rate = 0.5;
  sink.set_sampler(std::make_shared<const trace::Sampler>(sopts));
  for (std::size_t i = 1; i < 400; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.name = StrId("counted_op");
    s.tracer = StrId("counted_tracer");
    s.begin = static_cast<TimePoint>(i);
    s.end = s.begin + 1;
    s.correlation_id = sink.next_correlation_id();
    sink.publish(s);
  }
  sink.close();
  ASSERT_TRUE(wait_until([&] { return collector.service.stats().footers_seen == 1; }));
  ASSERT_GT(sink.spans_sampled_dropped(), 0u);

  // The scrape counts itself before rendering, so the stats read after it
  // are the ones it rendered.
  const std::string body = scrape_metrics(*collector.service.metrics_endpoint());
  ASSERT_FALSE(body.empty());
  const CollectorStats stats = collector.service.stats();
  const std::string json = stats_json(stats, collector.service.open_connections());
  for (const CollectorCounter& c : kCollectorCounters) {
    const std::uint64_t value = stats.*c.member;
    EXPECT_NE(body.find("\n" + std::string(c.metric) + " " + std::to_string(value) + "\n"),
              std::string::npos)
        << c.metric << " != " << value << "\n" << body;
    EXPECT_NE(body.find("# HELP " + std::string(c.metric) + " " + c.help), std::string::npos)
        << c.metric;
    EXPECT_NE(json.find("\"" + std::string(c.json_key) + "\":" + std::to_string(value) + ","),
              std::string::npos)
        << c.json_key << " != " << value << "\n" << json;
  }
  EXPECT_EQ(stats.wide_id_spans, 1u);
  EXPECT_EQ(stats.producer_sampled_kept, sink.spans_sampled_kept());
  EXPECT_EQ(stats.producer_sampled_dropped, sink.spans_sampled_dropped());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.find('\n'), std::string::npos);
  collector.stop();
}

}  // namespace
}  // namespace xsp::net
