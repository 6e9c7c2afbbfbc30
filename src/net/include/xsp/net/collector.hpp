// CollectorService: the ingest engine behind xsp_collectd — many producer
// connections fanned into one TraceServer, the multi-client intermediary
// shape of LDN's SOPI design (PAPERS.md).
//
// One poll(2) loop owns everything: the listener plus every connection's
// nonblocking reads. Per connection the service keeps an RxBuffer
// (partial-frame reassembly) and a trace::wire::FrameParser (every framing
// rule, plus per-stream StrId re-interning, so two producers' interned ids
// can never collide after ingest). Span, parent and correlation ids need
// no per-connection table: each non-zero producer id keeps its low
// kProducerIdBits bits and takes the connection's accept id as its high
// bits, so ids from different connections never collide, and a child's
// forward reference to a parent not yet published resolves by arithmetic.
// Accept ids start at 1, so the server's own ids (namespace 0) stay apart.
//
// Each read(2) lands straight in the connection's RxBuffer, and each
// frame's payload is copied once from there into the decoded batch. A
// span-batch frame decodes into a fresh batch-pool block (span.hpp; a
// RemoteSink sends one drained block per frame, and a frame of more than
// 256 spans decodes into one block per 256, see
// wire::FrameParser), has its ids moved into the connection's namespace
// in place, and is handed to the server whole by
// TraceServer::publish_batch. It joins the run() thread's
// producer slot already sealed, so it reaches the drain with its own
// frame instead of waiting to fill a 256-span slot batch. Decode memory
// is not reused: the next batch takes a fresh block, and the handed-off
// one returns to the pool wherever the server's consumer drops it.
//
// Per-connection buffering is bounded (the I2PA always-on discipline):
// the RxBuffer never holds more than one maximum frame (hard cap
// max_frame_payload, default wire::kMaxFramePayload) plus a read chunk,
// and the decode batch holds at most 256 spans; the collector keeps no
// per-id state. Hostile input — bad magic, oversized length prefixes,
// unknown frame types, unknown string ids, absurd annotation counts —
// throws WireError inside the per-connection decode, which closes that
// connection and increments connections_errored; the daemon itself never
// dies from a client's bytes. A bad frame header is rejected as soon as its 8 bytes arrive,
// before any of its payload.
//
// Lifecycle: run() blocks until stop() (SIGTERM handlers just call
// stop(): an atomic store plus a one-byte write to a self-pipe the poll
// loop watches, so run() wakes at once instead of on a poll timeout — the
// loop has none). Stopping enters a graceful drain: the
// listener closes, existing connections keep draining until EOF/footer or
// drain_timeout_ms, then the loop returns — the daemon half of the drain
// protocol in src/trace/README.md (a producer's shutdown_write is "stream
// complete"; our close after consuming everything is the ack).
//
// Self-metrics: when CollectorOptions::metrics_endpoint is set, a second
// listener on the *same* poll loop serves `GET /metrics` (Prometheus text
// exposition) and `GET /healthz` — no extra threads, and no locking for
// the per-connection series because the scrape is built on the run()
// thread that owns them. The exposition covers the service's own ingest
// counters (xsp_ingested_spans_total and friends), one series per open
// producer connection (bytes/frames/spans, labeled by accept id), the
// producer-health counters carried by wire Heartbeat frames
// (publish/drop/outbox/reconnects as the *producer* counts them, plus
// heartbeat age and a staleness flag), and finally whatever registry the
// embedding daemon wired in (the sink's own xsp_trace_* series).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "xsp/metrics/registry.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/http.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::net {

struct CollectorOptions {
  /// Hard per-connection bound on one frame's payload (and with it the
  /// reassembly buffer). Streams exceeding it are treated as hostile.
  std::size_t max_frame_payload = trace::wire::kMaxFramePayload;
  /// How long a graceful drain waits for connected producers to finish.
  int drain_timeout_ms = 5000;
  /// URI of the HTTP self-metrics endpoint ("tcp://127.0.0.1:9464" or
  /// "unix:/run/xsp-metrics.sock"); empty disables it. Served from the
  /// run() poll loop — no additional threads.
  std::string metrics_endpoint;
  /// Extra series appended to /metrics after the service's own (the
  /// daemon registers its sink's series here). May be null; must outlive
  /// the service when set.
  metrics::Registry* registry = nullptr;
  /// A producer whose heartbeats stop for longer than this while its
  /// connection stays open is flagged stale (xsp_producer_stale = 1).
  /// Applies only to connections that have sent at least one heartbeat;
  /// one that has not sent any is never flagged. <= 0 disables. Kept for
  /// CollectorHeartbeat.HeartbeatIngestExposesPerProducerSeriesAndStaleness,
  /// which would otherwise sleep 5 s to see a producer go stale.
  int heartbeat_stale_ms = 5000;
};

/// Monotonic ingest counters, snapshot via CollectorService::stats().
struct CollectorStats {
  std::uint64_t connections_accepted = 0;
  /// Clean closes: footer seen, or EOF at a frame boundary.
  std::uint64_t connections_closed = 0;
  /// Protocol violations (WireError), mid-frame disconnects, and accepts
  /// refused because every id namespace is taken (kMaxConnections).
  std::uint64_t connections_errored = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t spans_ingested = 0;
  /// Of spans_ingested: spans whose id, parent or correlation id reached
  /// past the connection's id namespace (CollectorService::kProducerIdBits).
  /// The excess bits are masked off, so such an id may alias an id of the
  /// same producer, never one of another connection.
  std::uint64_t wide_id_spans = 0;
  std::uint64_t strings_reinterned = 0;
  std::uint64_t footers_seen = 0;
  /// Wire frames fully parsed across all connections (all types).
  std::uint64_t frames_parsed = 0;
  /// Heartbeat frames ingested (producer liveness beacons).
  std::uint64_t heartbeats_seen = 0;
  /// HTTP requests answered on the metrics endpoint (any status).
  std::uint64_t http_requests = 0;
  /// Of http_requests: non-200 responses plus dropped hostile requests.
  std::uint64_t http_errors = 0;
  /// Summed from producer footers: spans the *producers* dropped before
  /// the bytes ever reached us, their reconnect counts, and their sampling
  /// accounting — the fleet's completeness story, so that per producer
  /// published == sent + dropped + sampled_dropped balances from the
  /// collector's own output.
  std::uint64_t producer_dropped_spans = 0;
  std::uint64_t producer_reconnects = 0;
  std::uint64_t producer_sampled_kept = 0;
  std::uint64_t producer_sampled_dropped = 0;
};

/// One CollectorStats counter, declared once for every surface that shows
/// it: its /metrics series (with HELP text and kind) and its key in
/// xsp_collectd's --stats-json objects.
struct CollectorCounter {
  std::uint64_t CollectorStats::*member;
  const char* metric;
  const char* json_key;
  const char* help;
  metrics::Kind kind;
};

inline constexpr CollectorCounter kCollectorCounters[] = {
    // The fleet-accounting headline: what actually reached the sink. CI's
    // multi-process smoke checks it against the producers' own
    // sent-minus-dropped totals.
    {&CollectorStats::spans_ingested, "xsp_ingested_spans_total", "spans_ingested",
     "Spans ingested into the collector's sink across all connections", metrics::Kind::kCounter},
    {&CollectorStats::connections_accepted, "xsp_collector_connections_accepted_total",
     "connections_accepted", "Producer connections accepted", metrics::Kind::kCounter},
    {&CollectorStats::connections_closed, "xsp_collector_connections_closed_total",
     "connections_closed", "Producer connections closed cleanly", metrics::Kind::kCounter},
    {&CollectorStats::connections_errored, "xsp_collector_connections_errored_total",
     "connections_errored", "Producer connections dropped for protocol violations or truncation",
     metrics::Kind::kCounter},
    {&CollectorStats::bytes_received, "xsp_collector_bytes_received_total", "bytes_received",
     "Wire bytes received from producers", metrics::Kind::kCounter},
    {&CollectorStats::frames_parsed, "xsp_collector_frames_total", "frames_parsed",
     "Wire frames parsed (all types)", metrics::Kind::kCounter},
    {&CollectorStats::strings_reinterned, "xsp_collector_strings_reinterned_total",
     "strings_reinterned", "Producer string-table entries re-interned", metrics::Kind::kCounter},
    {&CollectorStats::footers_seen, "xsp_collector_footers_total", "footers_seen",
     "Stream footer frames ingested", metrics::Kind::kCounter},
    {&CollectorStats::heartbeats_seen, "xsp_collector_heartbeats_total", "heartbeats_seen",
     "Producer heartbeat frames ingested", metrics::Kind::kCounter},
    {&CollectorStats::wide_id_spans, "xsp_collector_wide_id_spans_total", "wide_id_spans",
     "Spans carrying a producer id wider than the per-connection id namespace (masked, so it "
     "may alias that producer's own ids)",
     metrics::Kind::kCounter},
    {&CollectorStats::producer_dropped_spans, "xsp_collector_producer_dropped_spans_total",
     "producer_dropped_spans", "Spans producers reported dropping before send (from footers)",
     metrics::Kind::kCounter},
    {&CollectorStats::producer_reconnects, "xsp_collector_producer_reconnects_total",
     "producer_reconnects", "Reconnects producers reported (from footers)",
     metrics::Kind::kCounter},
    {&CollectorStats::producer_sampled_kept, "xsp_collector_producer_sampled_kept_total",
     "producer_sampled_kept", "Spans producers reported their samplers kept (from footers)",
     metrics::Kind::kCounter},
    {&CollectorStats::producer_sampled_dropped, "xsp_collector_producer_sampled_dropped_total",
     "producer_sampled_dropped", "Spans producers reported their samplers shed (from footers)",
     metrics::Kind::kCounter},
    {&CollectorStats::http_requests, "xsp_collector_http_requests_total", "http_requests",
     "HTTP requests answered on this endpoint", metrics::Kind::kCounter},
    {&CollectorStats::http_errors, "xsp_collector_http_errors_total", "http_errors",
     "HTTP requests answered with a non-200 status", metrics::Kind::kCounter},
};
// A CollectorStats member without a row fails here.
static_assert(std::size(kCollectorCounters) * sizeof(std::uint64_t) == sizeof(CollectorStats));

/// Every counter of `stats` plus `open_connections` as one flat JSON
/// object on one line, keyed by CollectorCounter::json_key (xsp_collectd's
/// --stats-json).
[[nodiscard]] std::string stats_json(const CollectorStats& stats, std::size_t open_connections);

class CollectorService {
 public:
  /// Low bits of an ingested span, parent or correlation id that carry the
  /// producer's own id; the high 64 - kProducerIdBits bits carry the
  /// connection's accept id. That bounds two things: 2^40 ids per producer
  /// (about 51 days at 250k spans/s), and kMaxConnections accepts per
  /// collector process, past which an accept is refused and counted in
  /// connections_errored.
  static constexpr unsigned kProducerIdBits = 40;
  static constexpr std::uint64_t kMaxConnections =
      (std::uint64_t{1} << (64 - kProducerIdBits)) - 1;

  /// Binds and listens immediately (so endpoint() reports the resolved
  /// ephemeral port before run() is entered); throws NetError on bind
  /// failure. `server` must outlive the service.
  CollectorService(const Endpoint& endpoint, trace::TraceServer& server,
                   CollectorOptions options = {});
  ~CollectorService();

  CollectorService(const CollectorService&) = delete;
  CollectorService& operator=(const CollectorService&) = delete;

  /// Accept/ingest until stop(), then drain gracefully. Call from one
  /// thread (the daemon's main thread, or a test's service thread).
  void run();

  /// Request shutdown + drain and wake run(). Thread-safe and
  /// async-signal-safe (an atomic store and a write(2)).
  void stop() noexcept;

  /// The endpoint actually bound (TCP port resolved if 0 was requested).
  [[nodiscard]] const Endpoint& endpoint() const;

  /// The HTTP metrics endpoint actually bound, or nullptr when
  /// CollectorOptions::metrics_endpoint was empty.
  [[nodiscard]] const Endpoint* metrics_endpoint() const;

  [[nodiscard]] CollectorStats stats() const;
  [[nodiscard]] std::size_t open_connections() const;

 private:
  struct Connection;
  struct HttpConn;

  void accept_pending();
  /// Read + parse one connection; returns false when it should be closed.
  bool service_connection(Connection& conn);
  /// Feed the rx buffer to the connection's parser, one whole parser
  /// step at a time. Throws WireError.
  void parse_frames(Connection& conn);
  void ingest_batch(Connection& conn);
  /// Fold `bytes` just read and whatever the parser decoded since the
  /// last call into the service stats. Runs after every read, also one
  /// whose parse threw, so frames decoded before a bad one still count.
  void account(Connection& conn, std::size_t bytes);
  void close_connection(std::size_t index);

  void accept_http(Poller& poller);
  /// Progress one HTTP connection; returns false when it should close.
  bool service_http(Poller& poller, HttpConn& hc, const Poller::Event& ev);
  /// Route a parsed request to its response bytes. Run() thread only.
  [[nodiscard]] std::string respond(const HttpRequest& req);
  /// Append the full Prometheus exposition: service counters, per-
  /// connection/producer series, then opts_.registry. Run() thread only.
  void build_metrics_text(std::string& out);

  trace::TraceServer& server_;
  CollectorOptions opts_;
  std::unique_ptr<Listener> listener_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::atomic<bool> stop_{false};
  /// Self-pipe: stop() writes a byte to wake_tx_, run() polls wake_rx_.
  Socket wake_rx_;
  Socket wake_tx_;

  /// HTTP responder state (run() thread only past construction).
  std::unique_ptr<Listener> http_listener_;
  std::vector<std::unique_ptr<HttpConn>> http_conns_;
  std::string scrape_buf_;  ///< reused across scrapes
  std::uint64_t next_conn_id_ = 1;

  mutable std::mutex stats_mu_;
  CollectorStats stats_;
  std::atomic<std::size_t> open_conns_{0};
};

}  // namespace xsp::net
