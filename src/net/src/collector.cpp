#include "xsp/net/collector.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "xsp/common/string_table.hpp"

namespace xsp::net {

namespace {

using trace::Span;
using trace::SpanId;
using trace::WireError;
namespace wire = trace::wire;

using Clock = std::chrono::steady_clock;

/// `conn="<id>"` — the label every per-connection series carries. Digits
/// need no exposition escaping, so this skips the interned-label path.
std::string conn_label(std::uint64_t id) {
  return "conn=\"" + std::to_string(id) + "\"";
}

}  // namespace

/// Per-connection ingest state. Everything here is touched only by the
/// run() thread.
struct CollectorService::Connection {
  Socket sock;
  RxBuffer rx;
  wire::FrameParser parser;
  /// Producer id -> server-wide id, remapped a block at a time: producer
  /// id p maps to base[p / kIdBlock] + p % kIdBlock, where base is a fresh
  /// block the sink reserves the first time p's block appears. A child's
  /// forward reference to a not-yet-published parent thus mints the
  /// parent's server id early. Memory is one entry per producer block
  /// touched: dense producer ids cost one entry per 1024 ids, a sparse id
  /// a whole block. The tables are never pruned, so they still grow with
  /// the stream, ~1000x more slowly than one entry per id.
  std::unordered_map<std::uint64_t, SpanId> span_blocks;
  std::unordered_map<std::uint64_t, std::uint64_t> corr_blocks;
  /// The span batch being decoded. Each decoded batch is handed to the
  /// server whole, and the next one starts in a fresh pool block.
  trace::SpanBatch scratch;
  bool errored = false;  ///< hostile input or mid-frame disconnect

  // --- self-metrics (per-connection series on /metrics) ---
  std::uint64_t id = 0;  ///< monotonic accept id, the `conn` label
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t spans = 0;
  std::uint64_t remap_blocks = 0;  ///< span_blocks + corr_blocks entries
  /// Parser counters already folded into the service stats (account()).
  std::uint64_t strings = 0;
  std::uint64_t heartbeats = 0;
  bool footer_counted = false;
  /// Arrival of the latest heartbeat. The xsp_producer_* series need a
  /// heartbeat (heartbeats > 0): a producer that has not sent one yet
  /// exposes nothing rather than zeros.
  Clock::time_point last_hb{};

  Connection(Socket s, std::size_t max_frame_payload)
      : sock(std::move(s)), parser(max_frame_payload) {
    scratch.reserve(trace::kBatchCapacity);
  }
};

/// One metrics-endpoint client. Request heads are parsed incrementally
/// (HttpRequestParser bounds the buffering), the response is buffered and
/// written as the socket accepts it, and the connection always closes
/// after one exchange — hostile clients cost one poll-loop slot, nothing
/// more.
struct CollectorService::HttpConn {
  Socket sock;
  HttpRequestParser parser;
  std::string tx;          ///< response bytes once dispatched
  std::size_t tx_off = 0;  ///< bytes of tx already written
  bool responding = false;

  explicit HttpConn(Socket s) : sock(std::move(s)) {}
};

CollectorService::CollectorService(const Endpoint& endpoint,
                                   trace::TraceServer& server,
                                   CollectorOptions options)
    : server_(server),
      opts_(std::move(options)),
      listener_(std::make_unique<Listener>(endpoint)) {
  int fds[2];
  if (::pipe(fds) != 0) throw NetError(std::string("pipe: ") + std::strerror(errno));
  wake_rx_ = Socket(fds[0]);
  wake_tx_ = Socket(fds[1]);
  for (const int fd : fds) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  }
  if (!opts_.metrics_endpoint.empty()) {
    http_listener_ =
        std::make_unique<Listener>(Endpoint::parse(opts_.metrics_endpoint));
  }
}

CollectorService::~CollectorService() = default;

void CollectorService::stop() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  // Called from signal handlers: keep the interrupted code's errno. A
  // full pipe (EAGAIN) already holds a wake-up.
  const int saved = errno;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_tx_.fd(), &byte, 1);
  errno = saved;
}

const Endpoint& CollectorService::endpoint() const {
  return listener_->endpoint();
}

const Endpoint* CollectorService::metrics_endpoint() const {
  return http_listener_ ? &http_listener_->endpoint() : nullptr;
}

CollectorStats CollectorService::stats() const {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

std::size_t CollectorService::open_connections() const {
  return open_conns_.load(std::memory_order_relaxed);
}

void CollectorService::run() {
  Poller poller;
  poller.watch(wake_rx_.fd(), Poller::kReadable);
  poller.watch(listener_->fd(), Poller::kReadable);
  if (http_listener_) poller.watch(http_listener_->fd(), Poller::kReadable);
  while (!stop_.load(std::memory_order_relaxed)) {
    for (const Poller::Event& ev : poller.wait(-1)) {
      if (ev.fd == wake_rx_.fd()) {
        char sink[64];
        while (::read(wake_rx_.fd(), sink, sizeof sink) > 0) {
        }
        continue;
      }
      if (ev.fd == listener_->fd()) {
        if (ev.readable) {
          const std::size_t before = conns_.size();
          accept_pending();
          for (std::size_t i = before; i < conns_.size(); ++i)
            poller.watch(conns_[i]->sock.fd(), Poller::kReadable);
        }
        continue;
      }
      if (http_listener_ && ev.fd == http_listener_->fd()) {
        if (ev.readable) accept_http(poller);
        continue;
      }
      bool handled = false;
      for (std::size_t i = 0; i < http_conns_.size(); ++i) {
        if (http_conns_[i]->sock.fd() != ev.fd) continue;
        if (!service_http(poller, *http_conns_[i], ev)) {
          poller.forget(ev.fd);
          http_conns_.erase(http_conns_.begin() +
                            static_cast<std::ptrdiff_t>(i));
        }
        handled = true;
        break;
      }
      if (handled) continue;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i]->sock.fd() != ev.fd) continue;
        // Read before honoring hangup: POLLHUP with queued bytes still
        // has frames to ingest; service_connection reads through EOF.
        if (!service_connection(*conns_[i])) {
          poller.forget(ev.fd);
          close_connection(i);
        }
        break;
      }
    }
  }

  // Graceful drain: no new connections, and the metrics endpoint goes
  // down first — scrapes must never extend a drain, and a half-written
  // response to a dying scraper is acceptable where a half-read producer
  // stream is not.
  http_conns_.clear();
  http_listener_.reset();
  listener_.reset();
  const auto deadline = Clock::now() + std::chrono::milliseconds(opts_.drain_timeout_ms);
  for (auto now = Clock::now(); !conns_.empty() && now < deadline; now = Clock::now()) {
    Poller drain_poller;
    for (const auto& conn : conns_)
      drain_poller.watch(conn->sock.fd(), Poller::kReadable);
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(deadline - now);
    for (const Poller::Event& ev : drain_poller.wait(static_cast<int>(left.count()))) {
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i]->sock.fd() != ev.fd) continue;
        if (!service_connection(*conns_[i])) close_connection(i);
        break;
      }
    }
  }
  // Deadline passed with producers still streaming: cut them off. Their
  // RemoteSinks observe the close and account the loss on their side.
  while (!conns_.empty()) {
    conns_.back()->errored = true;
    close_connection(conns_.size() - 1);
  }
}

void CollectorService::accept_pending() {
  for (;;) {
    Socket conn = listener_->accept();
    if (!conn.valid()) return;
    conns_.push_back(std::make_unique<Connection>(std::move(conn), opts_.max_frame_payload));
    conns_.back()->id = next_conn_id_++;
    open_conns_.store(conns_.size(), std::memory_order_relaxed);
    std::lock_guard lk(stats_mu_);
    ++stats_.connections_accepted;
  }
}

bool CollectorService::service_connection(Connection& conn) {
  constexpr std::size_t kChunk = 64 * 1024;  // bytes per read(2)
  for (;;) {
    std::size_t n = 0;
    const IoResult r = conn.sock.read_some(conn.rx.prepare(kChunk), kChunk, n);
    if (r == IoResult::kWouldBlock) return true;
    if (r == IoResult::kOk) {
      conn.rx.commit(n);
      conn.bytes += n;
    }
    try {
      if (r == IoResult::kOk) {
        parse_frames(conn);
      } else if (r == IoResult::kClosed) {
        // EOF between frames or after the footer is a clean close; bytes
        // stranded mid-frame mean the producer died or was cut mid-send.
        // A connection that never sent a byte is a probe, not a stream.
        if (conn.bytes > 0) conn.parser.end_of_input(conn.rx.size());
      } else {
        conn.errored = true;  // reset
      }
    } catch (const WireError&) {
      // Hostile, corrupt or truncated stream: drop this client, keep the
      // daemon. Spans decoded before the bad frame were already published.
      conn.errored = true;
    }
    account(conn, n);
    if (r != IoResult::kOk || conn.errored) return false;
  }
}

void CollectorService::parse_frames(Connection& conn) {
  // Move whole parser steps out of the reassembly buffer. The parser
  // judges each frame from its header, so a bad one throws before its
  // payload is waited for.
  for (;;) {
    const std::size_t want = conn.parser.wanted();
    if (conn.rx.size() < want) return;
    std::memcpy(conn.parser.buffer(conn.scratch), conn.rx.data().data(), want);
    conn.rx.consume(want);
    if (conn.parser.commit(conn.scratch)) ingest_batch(conn);
  }
}

void CollectorService::account(Connection& conn, std::size_t bytes) {
  const wire::FrameParser& p = conn.parser;
  const std::uint64_t frames = p.frames() - conn.frames;
  const std::uint64_t strings = p.strings_reinterned() - conn.strings;
  const std::uint64_t heartbeats = p.heartbeats_seen() - conn.heartbeats;
  const bool footer = p.saw_footer() && !conn.footer_counted;
  conn.frames = p.frames();
  conn.strings = p.strings_reinterned();
  conn.heartbeats = p.heartbeats_seen();
  conn.footer_counted = p.saw_footer();
  if (heartbeats > 0) conn.last_hb = Clock::now();
  std::lock_guard lk(stats_mu_);
  stats_.bytes_received += bytes;
  stats_.frames_parsed += frames;
  stats_.strings_reinterned += strings;
  stats_.heartbeats_seen += heartbeats;
  if (footer) {
    ++stats_.footers_seen;
    const trace::TraceMeta& meta = p.meta();
    stats_.producer_dropped_spans += meta.remote_dropped_spans;
    stats_.producer_reconnects += meta.remote_reconnects;
    stats_.producer_sampled_kept += meta.sampled_kept;
    stats_.producer_sampled_dropped += meta.sampled_dropped;
  }
}

void CollectorService::ingest_batch(Connection& conn) {
  // Strings were re-interned by the decoder; now lift the producer's
  // sink-local span/correlation ids into the server's fleet-wide space.
  // Distinct producer blocks get disjoint server blocks, so the map is
  // injective per connection; 0 (kNoSpan / no correlation) passes through.
  constexpr std::uint64_t kBlock = trace::SpanSink::kIdBlock;
  const auto remap = [&conn](auto& blocks, std::uint64_t producer_id,
                             auto reserve) -> std::uint64_t {
    if (producer_id == 0) return 0;
    const auto [it, inserted] = blocks.try_emplace(producer_id / kBlock, 0);
    if (inserted) {
      it->second = reserve();
      ++conn.remap_blocks;
    }
    return it->second + producer_id % kBlock;
  };
  const auto span_block = [this] { return server_.next_span_block(); };
  const auto corr_block = [this] { return server_.next_correlation_block(); };
  for (Span& span : conn.scratch) {
    span.id = remap(conn.span_blocks, span.id, span_block);
    span.parent = remap(conn.span_blocks, span.parent, span_block);
    span.correlation_id =
        remap(conn.corr_blocks, span.correlation_id, corr_block);
  }
  const std::size_t spans = conn.scratch.size();
  // Hand the batch over whole (collector.hpp); the next one decodes into
  // a fresh pool block.
  server_.publish_batch(std::move(conn.scratch));
  conn.scratch = trace::SpanBatch();
  conn.scratch.reserve(trace::kBatchCapacity);
  conn.spans += spans;
  std::lock_guard lk(stats_mu_);
  stats_.spans_ingested += spans;
}

void CollectorService::close_connection(std::size_t index) {
  {
    std::lock_guard lk(stats_mu_);
    if (conns_[index]->errored) {
      ++stats_.connections_errored;
    } else {
      ++stats_.connections_closed;
    }
  }
  // Destroying the socket closes our end — the drain-protocol ack a
  // cleanly-finished producer is waiting for.
  conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(index));
  open_conns_.store(conns_.size(), std::memory_order_relaxed);
}

// --- HTTP metrics endpoint ---------------------------------------------

void CollectorService::accept_http(Poller& poller) {
  for (;;) {
    Socket sock = http_listener_->accept();
    if (!sock.valid()) return;
    http_conns_.push_back(std::make_unique<HttpConn>(std::move(sock)));
    poller.watch(http_conns_.back()->sock.fd(), Poller::kReadable);
  }
}

bool CollectorService::service_http(Poller& poller, HttpConn& hc,
                                    const Poller::Event& ev) {
  if (ev.readable && !hc.responding) {
    char chunk[4096];
    for (;;) {
      std::size_t n = 0;
      const IoResult r = hc.sock.read_some(chunk, sizeof chunk, n);
      if (r == IoResult::kWouldBlock) break;
      if (r != IoResult::kOk) return false;  // EOF/reset before a request
      const auto st = hc.parser.feed(std::string_view(chunk, n));
      if (st == HttpRequestParser::Status::kNeedMore) continue;
      // Terminal either way: build the response and flip to writing.
      if (st == HttpRequestParser::Status::kError) {
        hc.tx = http_response(400, "text/plain; charset=utf-8",
                              std::string(hc.parser.error()) + "\n");
        std::lock_guard lk(stats_mu_);
        ++stats_.http_requests;
        ++stats_.http_errors;
      } else {
        hc.tx = respond(hc.parser.request());
      }
      hc.responding = true;
      poller.watch(hc.sock.fd(), Poller::kWritable);
      break;
    }
  }
  if (hc.responding) {
    while (hc.tx_off < hc.tx.size()) {
      std::size_t n = 0;
      const IoResult r = hc.sock.write_some(hc.tx.data() + hc.tx_off,
                                            hc.tx.size() - hc.tx_off, n);
      if (r == IoResult::kOk) {
        hc.tx_off += n;
        continue;
      }
      if (r == IoResult::kWouldBlock) return true;
      return false;  // peer went away mid-response
    }
    return false;  // response complete: close (Connection: close)
  }
  return !ev.hangup;
}

std::string CollectorService::respond(const HttpRequest& req) {
  const auto count = [this](bool error) {
    std::lock_guard lk(stats_mu_);
    ++stats_.http_requests;
    if (error) ++stats_.http_errors;
  };
  if (req.method != "GET") {
    count(true);
    return http_response(405, "text/plain; charset=utf-8",
                         "method not allowed\n");
  }
  // Strip any query string: Prometheus scrapers may append one.
  std::string_view path = req.path;
  if (const auto q = path.find('?'); q != std::string_view::npos)
    path = path.substr(0, q);
  if (path == "/healthz") {
    count(false);
    return http_response(200, "text/plain; charset=utf-8", "ok\n");
  }
  if (path == "/metrics") {
    count(false);
    scrape_buf_.clear();
    build_metrics_text(scrape_buf_);
    return http_response(200, "text/plain; version=0.0.4; charset=utf-8",
                         scrape_buf_);
  }
  count(true);
  return http_response(404, "text/plain; charset=utf-8", "not found\n");
}

void CollectorService::build_metrics_text(std::string& out) {
  using metrics::Kind;
  using metrics::append_family_header;
  using metrics::append_sample_line;

  const CollectorStats s = stats();

  const auto family = [&out](std::string_view name, std::string_view help,
                             Kind kind, std::uint64_t value) {
    append_family_header(out, name, help, kind);
    append_sample_line(out, name, {}, value);
  };

  // The fleet-accounting headline: what actually reached the sink. CI's
  // multi-process smoke checks this against the producers' own
  // sent-minus-dropped totals.
  family("xsp_ingested_spans_total",
         "Spans ingested into the collector's sink across all connections",
         Kind::kCounter, s.spans_ingested);
  family("xsp_collector_connections_accepted_total",
         "Producer connections accepted", Kind::kCounter,
         s.connections_accepted);
  family("xsp_collector_connections_closed_total",
         "Producer connections closed cleanly", Kind::kCounter,
         s.connections_closed);
  family("xsp_collector_connections_errored_total",
         "Producer connections dropped for protocol violations or truncation",
         Kind::kCounter, s.connections_errored);
  family("xsp_collector_bytes_received_total",
         "Wire bytes received from producers", Kind::kCounter,
         s.bytes_received);
  family("xsp_collector_frames_total", "Wire frames parsed (all types)",
         Kind::kCounter, s.frames_parsed);
  family("xsp_collector_strings_reinterned_total",
         "Producer string-table entries re-interned", Kind::kCounter,
         s.strings_reinterned);
  family("xsp_collector_footers_total", "Stream footer frames ingested",
         Kind::kCounter, s.footers_seen);
  family("xsp_collector_heartbeats_total",
         "Producer heartbeat frames ingested", Kind::kCounter,
         s.heartbeats_seen);
  family("xsp_collector_producer_dropped_spans_total",
         "Spans producers reported dropping before send (from footers)",
         Kind::kCounter, s.producer_dropped_spans);
  family("xsp_collector_producer_reconnects_total",
         "Reconnects producers reported (from footers)", Kind::kCounter,
         s.producer_reconnects);
  family("xsp_collector_http_requests_total",
         "HTTP requests answered on this endpoint", Kind::kCounter,
         s.http_requests);
  family("xsp_collector_http_errors_total",
         "HTTP requests answered with a non-200 status", Kind::kCounter,
         s.http_errors);
  append_family_header(out, "xsp_collector_open_connections",
                       "Producer connections currently open", Kind::kGauge);
  append_sample_line(out, "xsp_collector_open_connections", {},
                     static_cast<std::uint64_t>(conns_.size()));

  // Bounded-interning health of the collector's own global table — the
  // table every producer stream re-interns into. CI's multi-process smoke
  // asserts xsp_strtab_bytes stays under the configured budget while
  // producers publish high-cardinality inline tags.
  {
    const auto& table = common::StringTable::global();
    append_family_header(out, "xsp_strtab_bytes",
                         "Approximate resident bytes in the global string table",
                         Kind::kGauge);
    append_sample_line(out, "xsp_strtab_bytes", {},
                       static_cast<std::uint64_t>(table.approx_bytes()));
    family("xsp_strtab_rejected_total",
           "Interns rejected by the string-table byte budget or slot ceiling",
           Kind::kCounter, table.rejected_interns());
  }

  // Per-connection ingest series, one sample per open connection. The
  // label is the monotonic accept id: closed connections disappear from
  // the scrape (their totals live on in the aggregates above).
  struct PerConn {
    std::string_view name;
    std::string_view help;
    Kind kind;
    std::uint64_t Connection::*field;
  };
  static constexpr PerConn kPerConn[] = {
      {"xsp_connection_bytes_total", "Wire bytes received on this connection",
       Kind::kCounter, &Connection::bytes},
      {"xsp_connection_frames_total", "Wire frames parsed on this connection",
       Kind::kCounter, &Connection::frames},
      {"xsp_connection_spans_total", "Spans ingested from this connection",
       Kind::kCounter, &Connection::spans},
      {"xsp_connection_remap_blocks",
       "Id-remap table entries held for this connection (one per 1024 "
       "producer span or correlation ids touched)",
       Kind::kGauge, &Connection::remap_blocks},
  };
  for (const PerConn& pc : kPerConn) {
    if (conns_.empty()) break;
    append_family_header(out, pc.name, pc.help, pc.kind);
    for (const auto& conn : conns_)
      append_sample_line(out, pc.name, conn_label(conn->id), (*conn).*pc.field);
  }

  // Producer-health series from heartbeat frames: the producer's *own*
  // accounting (published/dropped/outbox) surfaced while the stream is
  // live, plus how long ago the last beacon arrived. Only connections
  // that have heartbeated expose these — a producer that has not sent one
  // yet is silent, not flatlined at zero.
  struct PerHb {
    std::string_view name;
    std::string_view help;
    Kind kind;
    std::uint64_t wire::Heartbeat::*field;
  };
  static constexpr PerHb kPerHb[] = {
      {"xsp_producer_published_spans_total",
       "Spans the producer published into its RemoteSink", Kind::kCounter,
       &wire::Heartbeat::spans_published},
      {"xsp_producer_sent_spans_total",
       "Spans the producer put on the wire", Kind::kCounter,
       &wire::Heartbeat::spans_sent},
      {"xsp_producer_dropped_spans_total",
       "Spans the producer dropped under backpressure", Kind::kCounter,
       &wire::Heartbeat::spans_dropped},
      {"xsp_producer_shed_spans_total",
       "Spans the producer shed selectively via its sampler", Kind::kCounter,
       &wire::Heartbeat::spans_shed},
      {"xsp_producer_sampled_kept_total",
       "Spans the producer's admission sampler kept", Kind::kCounter,
       &wire::Heartbeat::sampled_kept},
      {"xsp_producer_sampled_dropped_total",
       "Spans the producer's admission sampler rejected", Kind::kCounter,
       &wire::Heartbeat::sampled_dropped},
      {"xsp_producer_reconnects_total",
       "Reconnects the producer's sink performed", Kind::kCounter,
       &wire::Heartbeat::reconnects},
      {"xsp_producer_outbox_spans",
       "Spans queued in the producer's outbox at last heartbeat",
       Kind::kGauge, &wire::Heartbeat::outbox_spans},
      {"xsp_producer_heartbeat_sequence",
       "Sequence number of the producer's last heartbeat", Kind::kGauge,
       &wire::Heartbeat::sequence},
  };
  const bool any_hb = [this] {
    for (const auto& conn : conns_)
      if (conn->heartbeats > 0) return true;
    return false;
  }();
  if (any_hb) {
    for (const PerHb& ph : kPerHb) {
      append_family_header(out, ph.name, ph.help, ph.kind);
      for (const auto& conn : conns_) {
        if (conn->heartbeats == 0) continue;
        append_sample_line(out, ph.name, conn_label(conn->id),
                           conn->parser.last_heartbeat().*ph.field);
      }
    }
    const auto now = Clock::now();
    append_family_header(out, "xsp_producer_heartbeat_age_seconds",
                         "Seconds since this producer's last heartbeat",
                         Kind::kGauge);
    for (const auto& conn : conns_) {
      if (conn->heartbeats == 0) continue;
      const double age =
          std::chrono::duration<double>(now - conn->last_hb).count();
      append_sample_line(out, "xsp_producer_heartbeat_age_seconds",
                         conn_label(conn->id), age);
    }
    append_family_header(
        out, "xsp_producer_stale",
        "1 when the producer's heartbeats stopped past the staleness bound",
        Kind::kGauge);
    for (const auto& conn : conns_) {
      if (conn->heartbeats == 0) continue;
      const bool stale =
          opts_.heartbeat_stale_ms > 0 &&
          now - conn->last_hb >
              std::chrono::milliseconds(opts_.heartbeat_stale_ms);
      append_sample_line(out, "xsp_producer_stale", conn_label(conn->id),
                         static_cast<std::uint64_t>(stale ? 1 : 0));
    }
  }

  // Whatever the embedding daemon registered (the sink's xsp_trace_*
  // series, tool-level counters) renders after the service's own.
  if (opts_.registry != nullptr) opts_.registry->write_prometheus(out);
}

}  // namespace xsp::net
