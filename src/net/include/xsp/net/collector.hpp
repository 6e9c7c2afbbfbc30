// CollectorService: the ingest engine behind xsp_collectd — many producer
// connections fanned into one SpanSink (in practice a TraceServer),
// the multi-client intermediary shape of LDN's SOPI design (PAPERS.md).
//
// One poll(2) loop owns everything: the listener plus every connection's
// nonblocking reads. Per connection the service keeps an RxBuffer
// (partial-frame reassembly), a trace::wire::FrameParser (every framing
// rule, plus per-stream StrId re-interning, so two producers' interned ids
// can never collide after ingest), and span-id/correlation-id remap tables that
// translate each producer's sink-local ids into the server's fleet-wide
// id space a block of 1024 ids at a time (SpanSink::next_span_block).
// Children publish before parents in the wire stream, so the remap
// reserves a block on first sight of any id in it — a forward parent
// reference simply mints the server id early.
//
// Per-connection buffering is bounded (the I2PA always-on discipline):
// the RxBuffer never holds more than one maximum frame (hard cap
// max_frame_payload, default wire::kMaxFramePayload) plus a read chunk,
// and decode scratch is reused. The remap tables are the exception: one
// entry per producer id block touched, kept for the connection's life
// (xsp_connection_remap_blocks on /metrics). Hostile input — bad magic, oversized
// length prefixes, unknown frame types, unknown string ids, absurd
// annotation counts — throws WireError inside the per-connection decode,
// which closes that connection and increments connections_errored; the
// daemon itself never dies from a client's bytes. A bad frame header is
// rejected as soon as its 8 bytes arrive, before any of its payload.
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
// producer connection (bytes/frames/spans/remap blocks, labeled by accept
// id), the producer-health counters carried by wire Heartbeat frames
// (publish/drop/outbox/reconnects as the *producer* counts them, plus
// heartbeat age and a staleness flag), and finally whatever registry the
// embedding daemon wired in (the sink's own xsp_trace_* series).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "xsp/metrics/registry.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/http.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/trace/span_sink.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::net {

struct CollectorOptions {
  /// Hard per-connection bound on one frame's payload (and with it the
  /// reassembly buffer). Streams exceeding it are treated as hostile.
  std::size_t max_frame_payload = trace::wire::kMaxFramePayload;
  /// Bytes per read(2) into the reassembly buffer.
  std::size_t read_chunk = 64 * 1024;
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
  /// one that has not sent any is never flagged. <= 0 disables.
  int heartbeat_stale_ms = 5000;
};

/// Monotonic ingest counters, snapshot via CollectorService::stats().
struct CollectorStats {
  std::uint64_t connections_accepted = 0;
  /// Clean closes: footer seen, or EOF at a frame boundary.
  std::uint64_t connections_closed = 0;
  /// Protocol violations (WireError) and mid-frame disconnects.
  std::uint64_t connections_errored = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t spans_ingested = 0;
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

class CollectorService {
 public:
  /// Binds and listens immediately (so endpoint() reports the resolved
  /// ephemeral port before run() is entered); throws NetError on bind
  /// failure. `sink` must outlive the service.
  CollectorService(const Endpoint& endpoint, trace::SpanSink& sink,
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

  trace::SpanSink& sink_;
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
