#include "xsp/trace/remote_sink.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "xsp/net/socket.hpp"
#include "xsp/trace/sampler.hpp"

namespace xsp::trace {

namespace {

/// Bound on bytes the FrameSink may hold for a saturated socket before
/// batches drop instead of encoding.
constexpr std::size_t kMaxWirePendingBytes = 1 << 20;
/// Per-attempt bound on waiting for socket writability before a short
/// write returns to the FrameSink buffer.
constexpr int kIoWaitMs = 20;

}  // namespace

/// One connection's state, owned entirely by the sender thread. The
/// writer's TryWriteFn captures `sock`, so `writer` is declared after it
/// (destroyed first).
struct RemoteSink::Conn {
  net::Socket sock;
  std::unique_ptr<BinaryWriter> writer;
  /// Spans handed to the writer whose bytes have not fully left the
  /// FrameSink yet — the upper bound on what a connection death can lose.
  std::uint64_t spans_in_flight = 0;

  [[nodiscard]] bool ok() const {
    return sock.valid() && writer && !writer->sink_failed();
  }
};

RemoteSink::RemoteSink(net::Endpoint endpoint, RemoteSinkOptions options)
    : endpoint_(std::move(endpoint)), opts_(options) {
  // The server's consumer: each drained block moves into the outbox.
  server_.add_drain_subscriber(
      [this](SpanBatches& batches) {
        std::lock_guard lk(mu_);
        for (SpanBatch& batch : batches) enqueue_locked(std::move(batch));
      },
      DrainHandoff::kConsume);
  sender_ = std::thread([this] { sender_loop(); });
}

RemoteSink::~RemoteSink() { close(); }

SpanId RemoteSink::next_span_id() noexcept { return server_.next_span_id(); }

std::uint64_t RemoteSink::next_correlation_id() noexcept {
  return server_.next_correlation_id();
}

void RemoteSink::publish(const Span& span) {
  server_.publish(span);
  // close() sets closed_ before its final flush. A publish whose span
  // missed that flush reads the flag here (the slot spinlock orders the
  // two) and delivers its span itself, so it is accounted before this
  // call returns instead of stranded in the server.
  if (closed_.load(std::memory_order_acquire)) server_.flush();
}

void RemoteSink::write_batches(const SpanBatches& batches) {
  std::lock_guard lk(mu_);
  for (const SpanBatch& batch : batches) {
    if (!batch.empty()) enqueue_locked(SpanBatch(batch));
  }
}

void RemoteSink::flush() { server_.flush(); }

void RemoteSink::set_meta(const TraceMeta& meta) {
  std::lock_guard lk(mu_);
  meta_ = meta;
}

void RemoteSink::close() {
  closed_.store(true, std::memory_order_release);
  server_.flush();
  {
    std::lock_guard lk(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  // Join exactly once: the constructor's thread is only joinable until
  // the first close() completes; concurrent close() callers race benignly
  // on joinable().
  if (sender_.joinable()) sender_.join();
}

void RemoteSink::enqueue_locked(SpanBatch&& batch) {
  admitted_.fetch_add(batch.size(), std::memory_order_relaxed);
  if (stop_) {
    dropped_.fetch_add(batch.size(), std::memory_order_relaxed);
    return;
  }
  if (outbox_spans_ + batch.size() > opts_.max_outbox_spans) {
    // Bounded outbox. With a sampler attached the drop is selective: its
    // value ordering keeps tail outliers and the deterministic
    // high-priority hash slice, and only the low-value remainder is shed
    // (counted in both shed_ and dropped_ — shed spans are undelivered).
    // Without one, the whole batch drops — partial blind drops would
    // still ship a frame and hide how much is missing.
    if (sampler_ != nullptr) {
      const std::uint64_t removed =
          static_cast<std::uint64_t>(sampler_->shed_low_value(batch));
      shed_.fetch_add(removed, std::memory_order_relaxed);
      dropped_.fetch_add(removed, std::memory_order_relaxed);
      if (batch.empty()) return;
    }
    if (outbox_spans_ + batch.size() > opts_.max_outbox_spans) {
      dropped_.fetch_add(batch.size(), std::memory_order_relaxed);
      return;
    }
  }
  outbox_spans_ += batch.size();
  outbox_.push_back(std::move(batch));
  cv_.notify_all();
}

bool RemoteSink::connect_once(Conn& conn) {
  std::string error;
  net::Socket sock =
      net::try_connect(endpoint_, opts_.connect_timeout_ms, &error);
  if (!sock.valid()) return false;
  conn.sock = std::move(sock);
  conn.spans_in_flight = 0;
  // Fresh writer = fresh stream header + StringDelta epoch from cursor
  // zero: the collector's new per-connection decoder sees every string.
  net::Socket* raw = &conn.sock;
  conn.writer = std::make_unique<BinaryWriter>(
      FrameSink::TryWriteFn(
          [raw](std::string_view bytes) -> std::size_t {
            std::size_t total = 0;
            bool waited = false;
            while (total < bytes.size()) {
              std::size_t n = 0;
              const net::IoResult r =
                  raw->write_some(bytes.data() + total, bytes.size() - total, n);
              if (r == net::IoResult::kOk) {
                total += n;
                continue;
              }
              if (r == net::IoResult::kWouldBlock) {
                // One bounded wait per call; still saturated -> short
                // write, the FrameSink keeps the suffix and the sender's
                // backpressure policy takes over.
                if (waited) break;
                waited = true;
                raw->wait_writable(kIoWaitMs);
                continue;
              }
              return FrameSink::kWriteError;
            }
            return total;
          }),
      FrameSink::Fallible{});
  if (conn.writer->sink_failed()) {
    conn.writer.reset();
    conn.sock.close();
    return false;
  }
  connected_.store(true, std::memory_order_relaxed);
  return true;
}

void RemoteSink::sender_loop() {
  Conn conn;
  int backoff_ms = opts_.backoff_initial_ms;
  bool ever_connected = false;
  const bool hb_enabled = opts_.heartbeat_interval_ms > 0;
  const auto hb_interval =
      std::chrono::milliseconds(hb_enabled ? opts_.heartbeat_interval_ms : 1);
  auto next_hb = std::chrono::steady_clock::now() + hb_interval;

  for (;;) {
    {
      std::unique_lock lk(mu_);
      const auto pred = [this] { return stop_ || !outbox_.empty(); };
      bool timed_out = false;
      if (hb_enabled) {
        // Deadline wait: wake for data/stop OR the next heartbeat tick.
        timed_out = !cv_.wait_until(lk, next_hb, pred);
      } else {
        cv_.wait(lk, pred);
      }
      if (outbox_.empty() && stop_) break;
      if (timed_out && outbox_.empty() && !conn.ok()) {
        // Pure heartbeat tick while disconnected: nothing to signal on.
        // Reconnecting belongs to the data path — an idle producer must
        // not generate connect storms just to heartbeat.
        next_hb = std::chrono::steady_clock::now() + hb_interval;
        continue;
      }
    }

    if (!conn.ok()) {
      connected_.store(false, std::memory_order_relaxed);
      if (!connect_once(conn)) {
        std::unique_lock lk(mu_);
        if (stop_) {
          // Shutting down against an unreachable collector: account and
          // abandon — a dead daemon must not wedge producer exit.
          for (const SpanBatch& b : outbox_)
            dropped_.fetch_add(b.size(), std::memory_order_relaxed);
          outbox_.clear();
          outbox_spans_ = 0;
          break;
        }
        cv_.wait_for(lk, std::chrono::milliseconds(backoff_ms),
                     [this] { return stop_; });
        backoff_ms = std::min(backoff_ms * 2, opts_.backoff_max_ms);
        continue;
      }
      backoff_ms = opts_.backoff_initial_ms;
      if (ever_connected) reconnects_.fetch_add(1, std::memory_order_relaxed);
      ever_connected = true;
      next_hb = std::chrono::steady_clock::now() + hb_interval;
    }

    // Heartbeat when due — before the next batch, so a stalled outbox
    // still reports live counters (that is the point of the frame).
    if (hb_enabled && conn.ok() && std::chrono::steady_clock::now() >= next_hb) {
      conn.writer->write_heartbeat(make_heartbeat());
      next_hb = std::chrono::steady_clock::now() + hb_interval;
      if (conn.writer->sink_failed()) {
        // Same dead-connection policy as a failed batch write below.
        dropped_.fetch_add(conn.spans_in_flight, std::memory_order_relaxed);
        conn.spans_in_flight = 0;
        conn.writer.reset();
        conn.sock.close();
        connected_.store(false, std::memory_order_relaxed);
        continue;
      }
      heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
    }

    SpanBatch batch;
    {
      std::lock_guard lk(mu_);
      if (outbox_.empty()) continue;
      batch = std::move(outbox_.front());
      outbox_.pop_front();
      outbox_spans_ -= batch.size();
    }

    // Bounded send buffer: encoding into a sink that cannot drain would
    // grow memory without bound, so past the cap the batch drops instead.
    if (conn.writer->sink_pending_bytes() > kMaxWirePendingBytes) {
      conn.writer->flush();
      if (!conn.writer->sink_failed() &&
          conn.writer->sink_pending_bytes() > kMaxWirePendingBytes) {
        dropped_.fetch_add(batch.size(), std::memory_order_relaxed);
        continue;
      }
    }

    if (!conn.writer->sink_failed()) {
      conn.writer->write_batch(batch);
      conn.spans_in_flight += batch.size();
      // Latency bound for trickle producers: span payloads go to the
      // socket as they are written, but bytes a saturated socket did not
      // take wait in the FrameSink's buffer, so once the outbox is empty
      // retry them now instead of at the next batch (a sparse stream would
      // otherwise only ever finish reaching the collector at close()).
      bool idle;
      {
        std::lock_guard lk(mu_);
        idle = outbox_.empty();
      }
      if (idle && !conn.writer->sink_failed()) conn.writer->flush();
      if (!conn.writer->sink_failed() &&
          conn.writer->sink_pending_bytes() == 0) {
        sent_.fetch_add(conn.spans_in_flight, std::memory_order_relaxed);
        conn.spans_in_flight = 0;
      }
    }
    if (conn.writer->sink_failed()) {
      // Delivery of everything since the last full drain is unknown;
      // count it dropped — honest accounting over-counts rather than
      // hides. Queued batches survive for the reconnect.
      dropped_.fetch_add(conn.spans_in_flight, std::memory_order_relaxed);
      conn.spans_in_flight = 0;
      conn.writer.reset();
      conn.sock.close();
      connected_.store(false, std::memory_order_relaxed);
    }
  }

  finish_stream(conn);
  connected_.store(false, std::memory_order_relaxed);
}

void RemoteSink::finish_stream(Conn& conn) {
  if (!conn.ok()) return;

  TraceMeta meta;
  {
    std::lock_guard lk(mu_);
    meta = meta_;
  }
  meta.remote_dropped_spans = dropped_.load(std::memory_order_relaxed);
  meta.remote_reconnects = reconnects_.load(std::memory_order_relaxed);
  // Direct-publish admission accounting adds to whatever the owner set:
  // the two paths are disjoint (set_meta carries the upstream fleet's
  // counters; these count spans sampled at this sink's own publish()).
  const TraceMeta own = server_.meta();  // one flush for both counts
  meta.sampled_kept += own.sampled_kept;
  meta.sampled_dropped += own.sampled_dropped;
  conn.writer->set_meta(meta);
  conn.writer->finish();

  // Let a saturated socket drain the footer, bounded by drain_timeout_ms.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.drain_timeout_ms);
  while (!conn.writer->sink_failed() && conn.writer->sink_pending_bytes() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    conn.sock.wait_writable(kIoWaitMs);
    conn.writer->flush();
  }
  if (conn.writer->sink_failed() || conn.writer->sink_pending_bytes() > 0) {
    dropped_.fetch_add(conn.spans_in_flight, std::memory_order_relaxed);
    conn.spans_in_flight = 0;
    return;
  }
  sent_.fetch_add(conn.spans_in_flight, std::memory_order_relaxed);
  conn.spans_in_flight = 0;

  // Drain protocol: half-close says "stream complete"; the daemon
  // finishes ingesting and acks by closing its end. Reading EOF here
  // means every frame was consumed before we tear down.
  conn.sock.shutdown_write();
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    std::size_t n = 0;
    const net::IoResult r = conn.sock.read_some(buf, sizeof buf, n);
    if (r == net::IoResult::kClosed || r == net::IoResult::kError) return;
    if (r == net::IoResult::kWouldBlock) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return;
      conn.sock.wait_readable(static_cast<int>(
          std::min<long long>(left.count(), kIoWaitMs)));
    }
    // kOk: the collector never sends payload; discard and keep waiting
    // for EOF.
  }
}

std::uint64_t RemoteSink::spans_published() {
  // Flushes first, so admitted_ below counts every span drained by then.
  const std::uint64_t rejected = server_.sampled_dropped_count();
  return admitted_.load(std::memory_order_relaxed) + rejected;
}
std::uint64_t RemoteSink::spans_sent() const noexcept {
  return sent_.load(std::memory_order_relaxed);
}
std::uint64_t RemoteSink::spans_dropped() const noexcept {
  return dropped_.load(std::memory_order_relaxed);
}
std::uint64_t RemoteSink::spans_shed() const noexcept {
  return shed_.load(std::memory_order_relaxed);
}
std::uint64_t RemoteSink::spans_sampled_kept() { return server_.sampled_kept_count(); }
std::uint64_t RemoteSink::spans_sampled_dropped() { return server_.sampled_dropped_count(); }

wire::Heartbeat RemoteSink::make_heartbeat() {
  // One flush for both sampler counts; it also settles admitted_ below.
  const TraceMeta own = server_.meta();
  wire::Heartbeat hb{};
  hb.sequence = ++hb_seq_;
  hb.sampled_dropped = own.sampled_dropped;
  hb.sampled_kept = own.sampled_kept;
  hb.spans_published = admitted_.load(std::memory_order_relaxed) + hb.sampled_dropped;
  hb.spans_sent = sent_.load(std::memory_order_relaxed);
  hb.spans_dropped = dropped_.load(std::memory_order_relaxed);
  hb.spans_shed = shed_.load(std::memory_order_relaxed);
  hb.reconnects = reconnects_.load(std::memory_order_relaxed);
  hb.outbox_spans = outbox_spans();
  return hb;
}

std::uint64_t RemoteSink::outbox_spans() const {
  std::lock_guard lk(mu_);
  return static_cast<std::uint64_t>(outbox_spans_);
}

std::uint64_t RemoteSink::heartbeats_sent() const noexcept {
  return heartbeats_sent_.load(std::memory_order_relaxed);
}

void RemoteSink::bind_metrics(metrics::Registry& registry, metrics::Labels labels) {
  std::lock_guard lk(metrics_mu_);
  metrics_cbs_.clear();
  const auto cb = [&](const char* name, const char* help, metrics::Kind kind,
                      metrics::Sample sample) {
    metrics_cbs_.push_back(registry.callback(name, help, kind, labels, std::move(sample)));
  };
  const auto load = [](const std::atomic<std::uint64_t>& v) {
    return static_cast<double>(v.load(std::memory_order_relaxed));
  };
  cb("xsp_remote_published_spans_total", "Spans handed to the remote sink",
     metrics::Kind::kCounter, [this] { return static_cast<double>(spans_published()); });
  cb("xsp_remote_sent_spans_total", "Spans fully accepted by the socket layer",
     metrics::Kind::kCounter, [this, load] { return load(sent_); });
  cb("xsp_remote_dropped_spans_total",
     "Spans dropped by backpressure or dead connections (live, not just at close)",
     metrics::Kind::kCounter, [this, load] { return load(dropped_); });
  cb("xsp_remote_shed_spans_total", "Low-value spans shed selectively under backpressure",
     metrics::Kind::kCounter, [this, load] { return load(shed_); });
  cb("xsp_remote_sampled_kept_total", "Spans the admission sampler kept at publish",
     metrics::Kind::kCounter, [this] { return static_cast<double>(spans_sampled_kept()); });
  cb("xsp_remote_sampled_dropped_total", "Spans the admission sampler shed at publish",
     metrics::Kind::kCounter, [this] { return static_cast<double>(spans_sampled_dropped()); });
  cb("xsp_remote_reconnects_total", "Reconnects performed (each opens a fresh wire epoch)",
     metrics::Kind::kCounter, [this, load] { return load(reconnects_); });
  cb("xsp_remote_heartbeats_sent_total", "Wire heartbeat frames emitted",
     metrics::Kind::kCounter, [this, load] { return load(heartbeats_sent_); });
  cb("xsp_remote_connected", "1 while the socket connection is up",
     metrics::Kind::kGauge,
     [this] { return connected_.load(std::memory_order_relaxed) ? 1.0 : 0.0; });
  cb("xsp_remote_outbox_spans", "Spans queued in the bounded outbox (instantaneous)",
     metrics::Kind::kGauge, [this] { return static_cast<double>(outbox_spans()); });
}

void RemoteSink::set_sampler(std::shared_ptr<const Sampler> sampler) {
  server_.set_sampler(sampler);
  std::lock_guard lk(mu_);
  sampler_ = std::move(sampler);
}
std::uint64_t RemoteSink::reconnects() const noexcept {
  return reconnects_.load(std::memory_order_relaxed);
}
bool RemoteSink::connected() const noexcept {
  return connected_.load(std::memory_order_relaxed);
}

}  // namespace xsp::trace
