// fleet_steady: an always-on profiled fleet streaming spans into an
// in-process collector in the daemon's default shape.
//
//   2 producer threads -> RemoteSink each (own UDS connection)
//     -> CollectorService (one poll thread, owned by the benchmark)
//     -> 1-shard kAsync ShardedTraceServer
//        -> drain subscribers: lag probe (observe), OnlineAnalyzer
//           (observe), BinaryWriter -> .xspb file (consume)
//   main thread: GET /metrics on the collector once per second.
//
// The spans replay a ResNet-50 batch-64 M/L/G+metrics timeline built at
// set-up, so names, tags and metrics have realistic occupancy; the seed
// picks each producer's starting offset in it. Every span's `begin` is its
// due time on the host monotonic clock (duration kept), and the lag probe
// measures due time -> the drain delivering it.
//
// Open loop, 500k spans/s total, as 5-second rounds on long-lived
// connections (the RSS growth of the collector's per-connection id remap
// shows here), --seconds in all. Every round runs on a fresh collector
// stack.
#include <malloc.h>
#include <pthread.h>
#include <stdlib.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "xsp/analysis/online.hpp"
#include "xsp/common/string_table.hpp"
#include "xsp/metrics/registry.hpp"
#include "xsp/models/registry.hpp"
#include "xsp/net/collector.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/net/socket.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/sharded_trace_server.hpp"
#include "xsp/trace/wire.hpp"

namespace xspbench {

namespace {

using namespace xsp;

constexpr int kProducers = 2;
constexpr double kSteadyRate = 500'000;  ///< spans/s, whole fleet
/// A run is --seconds as rounds of this many seconds, each on a fresh
/// collector (bounded memory and file size per round).
constexpr std::int64_t kSteadyRoundSeconds = 5;
/// The main thread samples RSS this often during a round.
constexpr std::int64_t kRssSampleNs = 20'000'000;
/// The main thread probes the host's speed this often during a round. A
/// probe is about 1.6 ms of one CPU, on a host the round leaves mostly idle;
/// its CPU time is left out of the round's.
constexpr std::int64_t kHostProbeNs = 100'000'000;
/// Traced runs time every this many publish() calls.
constexpr std::uint64_t kPublishSampleEvery = 64;

// --- replay corpus -----------------------------------------------------------

struct Corpus {
  std::vector<trace::Span> spans;
  std::vector<std::int64_t> parent;  ///< index into spans, -1 = root
  std::uint64_t corr_stride = 1;     ///< > every correlation id in the corpus
};

Corpus build_corpus() {
  profile::Session session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const framework::Graph graph =
      models::find_tensorflow_model("MLPerf_ResNet50_v1.5")->build(64, true);
  const profile::RunTrace run = session.profile(graph, profile::ProfileOptions::full(true));
  Corpus c;
  std::unordered_map<trace::SpanId, std::int64_t> index;
  run.timeline.walk([&](const trace::TimelineNode& n, int) {
    index.emplace(n.span.id, static_cast<std::int64_t>(c.spans.size()));
    c.spans.push_back(n.span);
    const auto it = index.find(n.parent);
    c.parent.push_back(it == index.end() ? -1 : it->second);
    c.corr_stride = std::max(c.corr_stride, n.span.correlation_id + 1);
  });
  return c;
}

/// Fills `s` with corpus span `n` (of this producer's stream), begin at
/// `begin`. Ids are sink-local and unique per connection; the collector
/// remaps them.
void make_span(const Corpus& c, std::uint64_t n, std::int64_t begin, trace::Span& s) {
  const std::uint64_t size = c.spans.size();
  const std::uint64_t idx = n % size;
  const std::uint64_t cycle = n / size;
  s = c.spans[idx];
  const std::int64_t dur = s.end - s.begin;
  s.id = cycle * size + idx + 1;
  s.parent = c.parent[idx] < 0 ? trace::kNoSpan
                               : cycle * size + static_cast<std::uint64_t>(c.parent[idx]) + 1;
  if (s.correlation_id != 0) s.correlation_id += cycle * c.corr_stride;
  s.begin = begin;
  s.end = begin + dur;
}

// --- the collector stack -----------------------------------------------------

/// Drain-side accounting, written by the server's collector thread.
struct DrainProbe {
  /// Lags of every span drained while `measuring`; the round sets it after
  /// set-up's connect spans are through, so those are never recorded.
  LogHistogram lag_ns;
  std::atomic<bool> measuring{false};
  std::atomic<std::uint64_t> spans{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::int64_t> binary_ns{0};
  std::atomic<std::int64_t> online_ns{0};
};

/// A fresh directory under the run's scratch root, removed with its
/// contents on destruction.
struct TempDir {
  explicit TempDir(const std::string& root) {
    std::filesystem::create_directories(root);
    std::string tmpl = root + "/run-XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed in " + root);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

/// One fleet: temp dir, collector service + its poll thread, sinks, and
/// the server's drain subscribers. Members are declared in dependency
/// order; finish() does the orderly teardown.
class Stack {
 public:
  Stack(const RunConfig& cfg, const Corpus& corpus, Ledger& ledger)
      : dir_(cfg.tmp_root), xspb_path_(dir_.path + "/fleet.xspb") {
    xspb_.open(xspb_path_, std::ios::binary | std::ios::trunc);
    if (!xspb_) throw std::runtime_error("cannot open " + xspb_path_);
    writer_ = std::make_unique<trace::BinaryWriter>(xspb_);

    DrainProbe& probe = probe_;
    subs_.push_back(server_.add_drain_subscriber(
        [&probe](const trace::SpanBatches& batches) {
          const std::int64_t now = mono_ns();
          const bool measuring = probe.measuring.load(std::memory_order_acquire);
          std::uint64_t n = 0;
          for (const trace::SpanBatch& b : batches) {
            if (measuring)
              for (const trace::Span& s : b) probe.lag_ns.record(now - s.begin);
            n += b.size();
          }
          probe.calls.fetch_add(1, std::memory_order_relaxed);
          probe.spans.fetch_add(n, std::memory_order_release);
        },
        trace::DrainHandoff::kObserve));
    // The analyzer and the .xspb writer, timed from outside (the ledger
    // records only in a traced run).
    analysis::OnlineAnalyzer& an = analyzer_;
    trace::BinaryWriter& w = *writer_;
    subs_.push_back(server_.add_drain_subscriber(
        [&an, &probe, &ledger](std::size_t shard, const trace::SpanBatches& batches) {
          probe.online_ns.fetch_add(
              timed(ledger, "analysis.online", 0, [&] { an.observe_shard(shard, batches); }),
              std::memory_order_relaxed);
        },
        trace::DrainHandoff::kObserve));
    subs_.push_back(server_.add_drain_subscriber(
        [&w, &probe, &ledger](const trace::SpanBatches& batches) {
          probe.binary_ns.fetch_add(
              timed(ledger, "export.binary", 0, [&] { w.write_batches(batches); }),
              std::memory_order_relaxed);
        },
        trace::DrainHandoff::kConsume));

    net::CollectorOptions copts;
    copts.metrics_endpoint = "unix:" + dir_.path + "/metrics.sock";
    copts.registry = &registry_;
    const net::Endpoint ingest = net::Endpoint::parse("unix:" + dir_.path + "/ingest.sock");
    service_ = std::make_unique<net::CollectorService>(ingest, server_, copts);
    server_.bind_metrics(registry_);
    metrics_ep_ = *service_->metrics_endpoint();
    run_thread_ = std::thread([this] {
      run_tid_.store(current_tid(), std::memory_order_release);
      service_->run();
    });
    ::pthread_getcpuclockid(run_thread_.native_handle(), &run_clock_);
    while (run_tid_.load(std::memory_order_acquire) == 0) ::usleep(50);

    // Connect: a sink dials on its first batch, so each sends one span and
    // set-up ends when the collector has ingested both.
    for (int p = 0; p < kProducers; ++p) {
      sinks_.push_back(std::make_unique<trace::RemoteSink>(ingest));
      trace::Span s;
      make_span(corpus, 0, mono_ns(), s);
      s.id = std::numeric_limits<trace::SpanId>::max();  // outside every stream's ids
      s.parent = trace::kNoSpan;
      s.correlation_id = 0;
      sinks_.back()->publish(s);
      sinks_.back()->flush();
    }
    const std::int64_t give_up = mono_ns() + 5'000'000'000;
    while (service_->stats().spans_ingested < kProducers && mono_ns() < give_up) ::usleep(100);
    if (service_->stats().spans_ingested < kProducers) {
      finish();
      throw std::runtime_error("producers could not reach the collector");
    }
    server_.flush();  // the connect spans reach the drain before measuring
    while (probe_.spans.load(std::memory_order_acquire) < kProducers) ::usleep(100);
  }

  ~Stack() {
    try {
      finish();
    } catch (...) {
    }
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Close the sinks (footer + drain handshake), stop the collector, flush
  /// the server through its subscribers, and finish the .xspb file.
  void finish() {
    if (finished_) return;
    finished_ = true;
    for (const auto& sink : sinks_) sink->close();
    service_->stop();
    if (run_thread_.joinable()) run_thread_.join();
    server_.flush();
    for (const trace::SubscriberId id : subs_) server_.remove_drain_subscriber(id);
    writer_->finish();
    xspb_.flush();
    xspb_.close();
  }

  [[nodiscard]] std::int64_t run_thread_cpu_ns() const {
    timespec ts{};
    ::clock_gettime(run_clock_, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }

  /// GET /metrics from the collector; true when it answered 200 with the
  /// ingest counter in the body.
  bool scrape() {
    std::string err;
    net::Socket sock = net::try_connect(metrics_ep_, 1000, &err);
    if (!sock.valid()) return false;
    const std::string req = "GET /metrics HTTP/1.0\r\n\r\n";
    std::size_t off = 0;
    while (off < req.size()) {
      std::size_t n = 0;
      const net::IoResult r = sock.write_some(req.data() + off, req.size() - off, n);
      if (r == net::IoResult::kOk) {
        off += n;
      } else if (r != net::IoResult::kWouldBlock || !sock.wait_writable(1000)) {
        return false;
      }
    }
    std::string resp;
    char chunk[16 * 1024];
    for (;;) {
      std::size_t n = 0;
      const net::IoResult r = sock.read_some(chunk, sizeof chunk, n);
      if (r == net::IoResult::kOk) {
        resp.append(chunk, n);
      } else if (r == net::IoResult::kWouldBlock) {
        if (!sock.wait_readable(2000)) return false;
      } else {
        break;
      }
    }
    return resp.rfind("HTTP/1.0 200", 0) == 0 &&
           resp.find("xsp_ingested_spans_total") != std::string::npos;
  }

  /// Spans read back from the finished .xspb file, and whether its footer
  /// was present.
  std::pair<std::uint64_t, bool> read_back() const {
    std::ifstream in(xspb_path_, std::ios::binary);
    trace::BinaryReader reader(in);
    trace::SpanBatch batch;
    while (reader.next_batch(batch)) {
    }
    return {reader.spans_read(), reader.saw_footer()};
  }

  std::vector<std::unique_ptr<trace::RemoteSink>>& sinks() { return sinks_; }
  DrainProbe& probe() { return probe_; }
  net::CollectorService& service() { return *service_; }
  trace::ShardedTraceServer& server() { return server_; }
  analysis::OnlineAnalyzer& analyzer() { return analyzer_; }
  int run_tid() const { return run_tid_.load(std::memory_order_acquire); }
  std::uint64_t xspb_bytes() const {
    std::error_code ec;
    const auto n = std::filesystem::file_size(xspb_path_, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
  }

 private:
  TempDir dir_;
  std::string xspb_path_;
  metrics::Registry registry_;
  trace::ShardedTraceServer server_{1, trace::PublishMode::kAsync};
  std::ofstream xspb_;
  std::unique_ptr<trace::BinaryWriter> writer_;
  analysis::OnlineAnalyzer analyzer_;
  DrainProbe probe_;
  std::vector<trace::SubscriberId> subs_;
  std::unique_ptr<net::CollectorService> service_;
  net::Endpoint metrics_ep_;
  std::atomic<int> run_tid_{0};
  std::thread run_thread_;
  clockid_t run_clock_{};
  std::vector<std::unique_ptr<trace::RemoteSink>> sinks_;
  bool finished_ = false;
};

// --- producers -----------------------------------------------------------------

struct ProducerOut {
  int tid = 0;
  std::uint64_t published = 0;
  std::int64_t cpu_ns = 0;
  std::size_t outbox_max = 0;
  LogHistogram late_ns;
  LogHistogram publish_ns;
};

/// Publish one span; a traced run times every kPublishSampleEvery-th call.
void publish(trace::RemoteSink& sink, const trace::Span& s, std::uint64_t i, bool traced,
             ProducerOut& out) {
  if (!traced || i % kPublishSampleEvery != 0) {
    sink.publish(s);
    return;
  }
  const std::int64_t t0 = mono_ns();
  sink.publish(s);
  out.publish_ns.record(mono_ns() - t0);
}

/// Open loop: span i is due at start + phase + i * interval; each wake
/// publishes every span already due, then sleeps until the next one.
void produce_steady(trace::RemoteSink& sink, const Corpus& c, std::uint64_t offset,
                    std::int64_t start, std::int64_t stop, std::int64_t phase, bool traced,
                    ProducerOut& out) {
  const auto interval = static_cast<std::int64_t>(1e9 * kProducers / kSteadyRate);
  std::int64_t due = start + phase;
  std::uint64_t i = 0;
  std::uint64_t next_depth_sample = 0;
  trace::Span s;
  while (due < stop) {
    const std::int64_t now = mono_ns();
    if (due > now) {
      const timespec ts{static_cast<time_t>(due / 1'000'000'000),
                        static_cast<long>(due % 1'000'000'000)};
      ::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
      continue;
    }
    out.late_ns.record(now - due);
    do {
      make_span(c, offset + i, due, s);
      publish(sink, s, i, traced, out);
      ++i;
      due += interval;
    } while (due <= now && due < stop);
    if (i >= next_depth_sample) {
      out.outbox_max = std::max<std::size_t>(out.outbox_max, sink.outbox_spans());
      next_depth_sample = i + 1024;
    }
  }
  sink.flush();
  out.published = i;
}

// --- one measured round ----------------------------------------------------------

/// One measured round: a fresh stack's producers publish, every span is
/// delivered, and the main thread samples CPU, RSS and the host's speed and
/// scrapes /metrics.
struct RoundOut {
  std::uint64_t published = 0;
  std::uint64_t ingested = 0;
  std::int64_t wall_ns = 0;
  /// Process CPU, without the main thread's host probes (as main_cpu_ns).
  std::int64_t cpu_ns = 0;
  std::int64_t producer_cpu_ns = 0;
  std::int64_t collector_cpu_ns = 0;
  std::int64_t main_cpu_ns = 0;
  std::int64_t other_cpu_ns = 0;
  std::int64_t rss_growth = 0;
  std::int64_t peak_rss = 0;  ///< highest RSS sampled during the round
  std::size_t outbox_max = 0;
  LogHistogram lag_ns;  ///< every span of the round
  std::vector<double> scrape_ms;
  int scrape_failures = 0;
  LogHistogram late_ns;
  LogHistogram publish_ns;
  /// Host slowdowns probed while the round ran (see kHostProbeNs).
  std::vector<double> slowdowns;
};

std::int64_t sum_task_cpu(const std::set<int>& tids) {
  std::int64_t total = 0;
  for (const int t : tids) total += task_cpu_ns(t);
  return total;
}

RoundOut measure_round(Stack& st, const Corpus& c, const RunConfig& cfg, std::uint64_t& rng,
                       Ledger& ledger) {
  RoundOut out;
  std::vector<ProducerOut> pouts(kProducers);
  std::latch ready(kProducers);
  std::latch go(1);
  std::atomic<int> finished{0};
  std::int64_t start = 0;
  const std::int64_t second_ns = 1'000'000'000;
  const std::int64_t steady_ns = kSteadyRoundSeconds * second_ns;
  std::vector<std::uint64_t> offsets;
  for (int p = 0; p < kProducers; ++p) offsets.push_back(splitmix64(rng) % c.spans.size());

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      ProducerOut& po = pouts[p];
      po.tid = current_tid();
      ready.count_down();
      go.wait();
      const std::int64_t cpu0 = thread_cpu_ns();
      const std::int64_t t0 = mono_ns();
      // Producers interleave: p's spans fall between the others'.
      const auto phase = static_cast<std::int64_t>(1e9 / kSteadyRate) * p;
      produce_steady(*st.sinks()[p], c, offsets[p], start, start + steady_ns, phase, cfg.trace,
                     po);
      po.cpu_ns = thread_cpu_ns() - cpu0;
      ledger.add("gen.steady", t0, mono_ns());
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  ready.wait();

  // Threads the benchmark does not own: the sinks' sender threads and the
  // server's kAsync collector. Producers measure themselves; the
  // collector's poll thread is read through its pthread CPU clock.
  std::set<int> others;
  for (const int t : task_ids()) others.insert(t);
  others.erase(current_tid());
  others.erase(st.run_tid());
  for (const ProducerOut& po : pouts) others.erase(po.tid);

  DrainProbe& probe = st.probe();
  // Set-up's connect spans are already through; count from here.
  const std::uint64_t drained0 = probe.spans.load(std::memory_order_acquire);
  const std::uint64_t ingested0 = st.service().stats().spans_ingested;
  const std::int64_t rss0 = rss_bytes();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t main0 = thread_cpu_ns();
  const std::int64_t coll0 = st.run_thread_cpu_ns();
  const std::int64_t other0 = sum_task_cpu(others);
  start = mono_ns();
  probe.measuring.store(true, std::memory_order_release);
  go.count_down();

  // Main thread: GET /metrics once a second until every published span has
  // reached the drain subscribers. Once the producers are done and the
  // collector has ingested everything, flush the server so the last
  // partial batch does not wait for the collector's periodic drain.
  std::int64_t next_scrape = start + second_ns;
  std::int64_t next_rss_sample = start;
  std::int64_t next_host_probe = start + kHostProbeNs / 2;
  std::int64_t host_probe_cpu = 0;
  std::uint64_t expected = 0;
  bool joined = false;
  bool flushed = false;
  for (;;) {
    if (mono_ns() >= next_scrape) {
      const std::int64_t s0 = mono_ns();
      const bool ok = st.scrape();
      const std::int64_t s1 = mono_ns();
      ledger.add("metrics.scrape", s0, s1);
      out.scrape_ms.push_back(static_cast<double>(s1 - s0) / 1e6);
      if (!ok) ++out.scrape_failures;
      next_scrape += second_ns;
    }
    if (!joined && finished.load(std::memory_order_acquire) == kProducers) {
      for (std::thread& t : producers) t.join();
      joined = true;
      for (const ProducerOut& po : pouts) expected += po.published;
    }
    if (joined && !flushed && st.service().stats().spans_ingested >= ingested0 + expected) {
      st.server().flush();
      flushed = true;
    }
    if (joined && probe.spans.load(std::memory_order_acquire) >= drained0 + expected) break;
    if (mono_ns() - start > steady_ns + 60'000'000'000) {  // never delivered
      for (std::thread& t : producers)
        if (t.joinable()) t.join();
      break;
    }
    if (!joined && mono_ns() >= next_rss_sample) {
      out.peak_rss = std::max(out.peak_rss, rss_bytes());
      next_rss_sample += kRssSampleNs;
    }
    if (!joined && mono_ns() >= next_host_probe) {
      const std::int64_t p0 = thread_cpu_ns();
      out.slowdowns.push_back(static_cast<double>(host_probe_ns()) / HostSpeed::kReferenceProbeNs);
      host_probe_cpu += thread_cpu_ns() - p0;
      next_host_probe += kHostProbeNs;
    }
    ::usleep(joined ? 100 : 2'000);
  }
  const std::int64_t end = mono_ns();
  out.wall_ns = end - start;
  out.cpu_ns = process_cpu_ns() - cpu0 - host_probe_cpu;
  out.main_cpu_ns = thread_cpu_ns() - main0 - host_probe_cpu;
  out.collector_cpu_ns = st.run_thread_cpu_ns() - coll0;
  out.other_cpu_ns = sum_task_cpu(others) - other0;
  out.rss_growth = rss_bytes() - rss0;
  out.peak_rss = std::max(out.peak_rss, rss0 + out.rss_growth);
  out.ingested = probe.spans.load(std::memory_order_acquire) - drained0;
  probe.measuring.store(false, std::memory_order_release);
  out.lag_ns = probe.lag_ns;
  for (const ProducerOut& po : pouts) {
    out.published += po.published;
    out.producer_cpu_ns += po.cpu_ns;
    out.late_ns.merge(po.late_ns);
    out.publish_ns.merge(po.publish_ns);
    out.outbox_max = std::max(out.outbox_max, po.outbox_max);
  }
  ledger.add("round.steady", start, end);
  return out;
}

}  // namespace

Report run_fleet(const RunConfig& cfg, Ledger& ledger) {
  Report rep;
  rep.workload = cfg.workload;
  std::uint64_t rng = cfg.seed;

  // Set-up: replay corpus, collector bind, producer connect. Three times
  // up front and once more per round after the first; the median is
  // setup_s. Each is scaled by the host's speed probed right after it.
  Corpus corpus;
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_samples, raw_setup_samples;
  HostSpeed host;
  const auto set_up = [&] {
    stack.reset();
    const std::int64_t t0 = mono_ns();
    corpus = build_corpus();
    stack = std::make_unique<Stack>(cfg, corpus, ledger);
    const std::int64_t t1 = mono_ns();
    ledger.add("setup", t0, t1);
    raw_setup_samples.push_back(static_cast<double>(t1 - t0) / 1e9);
    setup_samples.push_back(raw_setup_samples.back() / host.sample());
  };
  for (int i = 0; i < 3; ++i) set_up();

  const auto steady_rounds = std::max<long>(1, std::lround(cfg.seconds / kSteadyRoundSeconds));
  std::vector<RoundOut> rounds;
  std::uint64_t published = 0, ingested = 0, sent = 0, dropped = 0, shed = 0;
  std::uint64_t reconnects = 0, heartbeats = 0, bytes = 0, frames = 0, reinterned = 0;
  std::uint64_t drain_calls = 0, xspb_bytes = 0;
  std::int64_t binary_ns = 0, online_ns = 0;
  for (;;) {
    if (!stack) {
      ::malloc_trim(0);  // each round's RSS growth starts from a trimmed heap
      set_up();
    }
    RoundOut r = measure_round(*stack, corpus, cfg, rng, ledger);

    const std::int64_t v0 = mono_ns();
    stack->finish();
    const net::CollectorStats stats = stack->service().stats();
    const analysis::OnlineSnapshot snap = stack->analyzer().snapshot();
    std::uint64_t round_sent = 0;
    for (const auto& sink : stack->sinks()) {
      rep.check(sink->spans_published() == sink->spans_sent() + sink->spans_dropped(),
                "sink accounting: published != sent + dropped");
      round_sent += sink->spans_sent();
      published += sink->spans_published();
      sent += sink->spans_sent();
      dropped += sink->spans_dropped();
      shed += sink->spans_shed();
      reconnects += sink->reconnects();
      heartbeats += sink->heartbeats_sent();
    }
    const auto [read_spans, footer] = stack->read_back();
    ledger.add("verify.readback", v0, mono_ns());
    rep.check(round_sent == stats.spans_ingested, "sum of sent != collector spans_ingested");
    rep.check(snap.spans == stats.spans_ingested, "analyzer span count != ingested");
    rep.check(read_spans == stats.spans_ingested, ".xspb span count != ingested");
    rep.check(footer, ".xspb has no footer");
    rep.check(stats.footers_seen == kProducers, "collector did not see one footer per producer");
    rep.check(stats.connections_errored == 0, "collector connection errored");
    rep.check(r.scrape_failures == 0, "GET /metrics failed");
    rep.check(r.ingested == r.published, "drain did not see every published span");

    const DrainProbe& probe = stack->probe();
    drain_calls += probe.calls.load();
    binary_ns += probe.binary_ns.load();
    online_ns += probe.online_ns.load();
    ingested += stats.spans_ingested;
    bytes += stats.bytes_received;
    frames += stats.frames_parsed;
    reinterned += stats.strings_reinterned;
    xspb_bytes += stack->xspb_bytes();
    rounds.push_back(std::move(r));
    stack.reset();
    if (static_cast<long>(rounds.size()) >= steady_rounds) break;
  }

  rep.attempted = published;
  rep.failed = published - std::min(published, ingested);

  std::int64_t wall = 0, cpu = 0, prod = 0, coll = 0, main_cpu = 0, other = 0;
  std::uint64_t measured = 0;
  std::size_t outbox_max = 0;
  LogHistogram lag, late, publish;
  std::vector<double> rates, cpu_per_span, lag_p50, lag_tail, rss_per_span, peak_rss, scrape_ms;
  std::vector<double> slowdowns, raw_cpu_per_span, raw_lag_tail;
  for (const RoundOut& r : rounds) {
    wall += r.wall_ns;
    cpu += r.cpu_ns;
    prod += r.producer_cpu_ns;
    coll += r.collector_cpu_ns;
    main_cpu += r.main_cpu_ns;
    other += r.other_cpu_ns;
    measured += r.ingested;
    outbox_max = std::max(outbox_max, r.outbox_max);
    lag.merge(r.lag_ns);
    late.merge(r.late_ns);
    publish.merge(r.publish_ns);
    const double n = static_cast<double>(std::max<std::uint64_t>(r.ingested, 1));
    const double slowdown = r.slowdowns.empty() ? 1.0 : median(r.slowdowns);
    slowdowns.push_back(slowdown);
    rates.push_back(n / (static_cast<double>(r.wall_ns) / 1e9));
    raw_cpu_per_span.push_back(static_cast<double>(r.cpu_ns) / n);
    cpu_per_span.push_back(raw_cpu_per_span.back() / slowdown);
    lag_p50.push_back(r.lag_ns.quantile(0.50));
    raw_lag_tail.push_back(r.lag_ns.tail_mean(0.99));
    lag_tail.push_back(raw_lag_tail.back() / slowdown);
    rss_per_span.push_back(static_cast<double>(r.rss_growth) / n);
    peak_rss.push_back(static_cast<double>(r.peak_rss) / (1024.0 * 1024.0));
    scrape_ms.insert(scrape_ms.end(), r.scrape_ms.begin(), r.scrape_ms.end());
  }
  // Per-thread CPU split: the parts must add up to process CPU.
  const double split_error =
      static_cast<double>(prod + coll + main_cpu + other - cpu) / static_cast<double>(cpu);
  rep.check(std::abs(split_error) <= 0.05, "per-thread CPU split misses process CPU by " +
                                               std::to_string(split_error * 100) + "%");

  // Each figure is a whole round's: every span it delivered and all the CPU
  // it used, so a stall of the code under test, which recurs in every
  // round (each is the same work on a fresh stack), always counts. The
  // tail is the mean of the worst 1% of lags: a quantile there sits on the
  // edge between batching lag and the stalls and jumps between them. The
  // CPU cost and the tail (the stalls are CPU work) are divided by the
  // host slowdown probed during their round, so they read as on the
  // reference host; the median lag is batching delay and the rate is
  // offered, so neither is scaled. A run reports the median of its rounds.
  const double n = static_cast<double>(std::max<std::uint64_t>(measured, 1));
  const double wall_d = static_cast<double>(wall);
  rep.end_to_end["setup_s"] = {median(setup_samples), "s"};
  rep.end_to_end["peak_rss_mb"] = {median(peak_rss), "MB"};
  rep.end_to_end["spans_per_s"] = {median(rates), "1/s"};
  rep.end_to_end["cpu_ns_per_span"] = {median(cpu_per_span), "ns"};
  rep.end_to_end["latency_ms_p50"] = {median(lag_p50) / 1e6, "ms"};
  rep.end_to_end["latency_ms_tail"] = {median(lag_tail) / 1e6, "ms"};

  rep.detail["raw.setup_s"] = {median(raw_setup_samples), "s"};
  rep.detail["raw.cpu_ns_per_span"] = {median(raw_cpu_per_span), "ns"};
  rep.detail["raw.latency_ms_tail"] = {median(raw_lag_tail) / 1e6, "ms"};
  rep.detail["process_peak_rss_mb"] = {peak_rss_mb(), "MB"};
  rep.detail["ingest_lag_ms_p50"] = {lag.quantile(0.50) / 1e6, "ms"};
  rep.detail["ingest_lag_ms_p99"] = {lag.quantile(0.99) / 1e6, "ms"};
  rep.detail["ingest_lag_ms_max"] = {lag.max() / 1e6, "ms"};
  rep.detail["loss_ratio"] = {
      static_cast<double>(rep.failed) / static_cast<double>(std::max<std::uint64_t>(published, 1)),
      "ratio"};
  rep.detail["published"] = {static_cast<double>(published), "count"};
  rep.detail["ingested"] = {static_cast<double>(ingested), "count"};
  rep.detail["rounds"] = {static_cast<double>(rounds.size()), "count"};
  rep.detail["corpus_spans"] = {static_cast<double>(corpus.spans.size()), "count"};

  auto& L = rep.layers;
  L["gen.publish_ns_p50"] = {publish.quantile(0.50), "ns"};
  L["gen.publish_ns_p99"] = {publish.quantile(0.99), "ns"};
  L["gen.late_ms_p99"] = {late.quantile(0.99) / 1e6, "ms"};
  L["gen.offered_per_s"] = {n / (wall_d / 1e9), "1/s"};
  L["remote.sent"] = {static_cast<double>(sent), "count"};
  L["remote.dropped"] = {static_cast<double>(dropped), "count"};
  L["remote.shed"] = {static_cast<double>(shed), "count"};
  L["remote.reconnects"] = {static_cast<double>(reconnects), "count"};
  L["remote.heartbeats"] = {static_cast<double>(heartbeats), "count"};
  L["remote.outbox_max"] = {static_cast<double>(outbox_max), "count"};
  L["net.collector_busy_frac"] = {static_cast<double>(coll) / wall_d, "ratio"};
  L["net.bytes_per_span"] = {static_cast<double>(bytes) / n, "B"};
  L["net.frames_per_s"] = {static_cast<double>(frames) / (wall_d / 1e9), "1/s"};
  L["net.strings_reinterned"] = {static_cast<double>(reinterned), "count"};
  L["net.rss_bytes_per_span"] = {median(rss_per_span), "B"};
  L["trace.drain_calls"] = {static_cast<double>(drain_calls), "count"};
  L["trace.spans_per_drain"] = {n / static_cast<double>(std::max<std::uint64_t>(drain_calls, 1)),
                                "count"};
  L["export.binary_ns_per_span"] = {static_cast<double>(binary_ns) / n, "ns"};
  L["export.xspb_bytes_per_span"] = {static_cast<double>(xspb_bytes) / n, "B"};
  L["analysis.online_ns_per_span"] = {static_cast<double>(online_ns) / n, "ns"};
  L["metrics.scrape_ms_p50"] = {median(scrape_ms), "ms"};
  L["metrics.scrape_ms_max"] = {quantile(scrape_ms, 1.0), "ms"};
  L["proc.producer_busy_frac"] = {static_cast<double>(prod) / wall_d, "ratio"};
  L["proc.main_busy_frac"] = {static_cast<double>(main_cpu) / wall_d, "ratio"};
  L["proc.other_busy_frac"] = {static_cast<double>(other) / wall_d, "ratio"};
  L["proc.cpu_split_error"] = {split_error, "ratio"};
  L["common.strtab_bytes"] = {
      static_cast<double>(common::StringTable::global().approx_bytes()), "B"};
  L["host.slowdown"] = {median(slowdowns), "ratio"};
  return rep;
}

}  // namespace xspbench
