// xsp_collectd — the cross-process trace collector daemon: accepts XSP
// binary wire v5 streams from remote producers (trace::RemoteSink),
// re-interns and re-ids every span into one fleet-wide TraceServer
// (--shards N), and fans the merged stream out to the same sinks an
// in-process session would use.
//
//   xsp_collectd --listen unix:/tmp/xsp.sock --out fleet.xspb
//   xsp_collectd --listen tcp://127.0.0.1:7450 --json fleet.json --online
//   xsp_collectd --listen tcp://127.0.0.1:7450 --metrics tcp://127.0.0.1:9464
//
// Options:
//   --listen URI         endpoint to accept producers on (required):
//                        unix:/path or tcp://host:port (port 0 = pick one)
//   --out FILE           re-export the merged trace as binary wire
//                        (BinaryWriter, kConsume drain — bounded memory)
//   --json FILE          also stream span JSON with metadata (observer)
//   --online             aggregate with OnlineAnalyzer; summary at exit
//   --metrics URI        serve GET /metrics (Prometheus text) + /healthz
//                        on this endpoint from the collector's poll loop
//   --stats-json         emit one JSON stats object per interval on stdout
//   --stats-interval-ms N  cadence of --stats-json objects (default 1000)
//   --shards N           trace-server shards (default 1; 0 = per-core)
//   --strtab-budget N    byte budget for the collector's global string
//                        table (0 = unbounded): past it, re-interns from
//                        producer streams resolve to the "<interned-cap>"
//                        sentinel instead of growing the table, keeping a
//                        long-lived daemon's memory bounded against
//                        high-cardinality producers
//   --drain-timeout-ms N grace for connected producers after SIGTERM
//                        (default 5000)
//   --max-frame-bytes N  per-connection frame bound (default 64 MiB)
//
// Lifecycle: prints "listening on <uri>" once ready (after bind, so a UDS
// path existing or this line appearing both mean "connect now") — and
// "metrics on <uri>" when --metrics is set — then serves until
// SIGTERM/SIGINT. Shutdown drains connected producers (bounded by
// --drain-timeout-ms), finishes the export sinks, and prints
// machine-greppable ingest stats on *stderr* (stdout belongs to trace
// output and --stats-json objects, which scripts filter with /^{/):
//
//   stats: connections_accepted=4 closed=4 errored=0
//   stats: spans_ingested=4000 strings_reinterned=52 bytes_received=...
//   stats: footers_seen=4 producer_dropped_spans=0 producer_reconnects=0
//
// The CI multi-process job asserts exact spans_ingested against what the
// producer fleet reported publishing, and scrapes /metrics mid-run to
// check the same invariant live.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "xsp/analysis/online.hpp"
#include "xsp/metrics/registry.hpp"
#include "xsp/net/collector.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/wire.hpp"

namespace {

using namespace xsp;

struct Options {
  std::string listen;
  std::string out;
  std::string json;
  std::string metrics;
  bool online = false;
  bool stats_json = false;
  int stats_interval_ms = 1000;
  std::size_t shards = 1;
  std::size_t strtab_budget = 0;
  int drain_timeout_ms = 5000;
  std::size_t max_frame_bytes = trace::wire::kMaxFramePayload;
};

void print_usage() {
  std::fprintf(stderr,
               "usage: xsp_collectd --listen URI [--out FILE.xspb] [--json FILE.json]\n"
               "                    [--online] [--metrics URI] [--stats-json]\n"
               "                    [--stats-interval-ms N] [--shards N] [--strtab-budget N]\n"
               "                    [--drain-timeout-ms N] [--max-frame-bytes N]\n");
}

bool parse_int(const char* s, std::int64_t& out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "xsp_collectd: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    std::int64_t n = 0;
    if (arg == "--listen") {
      const char* v = next("--listen");
      if (!v) return false;
      opts.listen = v;
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (!v) return false;
      opts.out = v;
    } else if (arg == "--json") {
      const char* v = next("--json");
      if (!v) return false;
      opts.json = v;
    } else if (arg == "--online") {
      opts.online = true;
    } else if (arg == "--metrics") {
      const char* v = next("--metrics");
      if (!v) return false;
      opts.metrics = v;
    } else if (arg == "--stats-json") {
      opts.stats_json = true;
    } else if (arg == "--stats-interval-ms") {
      const char* v = next("--stats-interval-ms");
      if (!v || !parse_int(v, n) || n <= 0) return false;
      opts.stats_interval_ms = static_cast<int>(n);
    } else if (arg == "--shards") {
      const char* v = next("--shards");
      if (!v || !parse_int(v, n) || n < 0) return false;
      opts.shards = static_cast<std::size_t>(n);
    } else if (arg == "--strtab-budget") {
      const char* v = next("--strtab-budget");
      if (!v || !parse_int(v, n) || n < 0) return false;
      opts.strtab_budget = static_cast<std::size_t>(n);
    } else if (arg == "--drain-timeout-ms") {
      const char* v = next("--drain-timeout-ms");
      if (!v || !parse_int(v, n) || n < 0) return false;
      opts.drain_timeout_ms = static_cast<int>(n);
    } else if (arg == "--max-frame-bytes") {
      const char* v = next("--max-frame-bytes");
      if (!v || !parse_int(v, n) || n <= 0) return false;
      opts.max_frame_bytes = static_cast<std::size_t>(n);
    } else {
      std::fprintf(stderr, "xsp_collectd: unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  if (opts.listen.empty()) {
    std::fprintf(stderr, "xsp_collectd: --listen is required\n");
    return false;
  }
  return true;
}

// The signal handler may only do async-signal-safe work; stop() is a
// relaxed atomic store plus a write(2) that wakes the poll loop.
net::CollectorService* g_service = nullptr;

void handle_stop_signal(int) {
  if (g_service != nullptr) g_service->stop();
}

/// One flat JSON object with the full stats snapshot, emitted as a single
/// line so scripts can stream-parse stdout (every --stats-json line starts
/// with '{'; everything else on stdout starts with a word).
void print_stats_json(const net::CollectorService& service) {
  const net::CollectorStats s = service.stats();
  std::printf(
      "{\"connections_accepted\":%llu,\"connections_closed\":%llu,"
      "\"connections_errored\":%llu,\"open_connections\":%llu,"
      "\"bytes_received\":%llu,\"spans_ingested\":%llu,"
      "\"strings_reinterned\":%llu,\"frames_parsed\":%llu,"
      "\"footers_seen\":%llu,\"heartbeats_seen\":%llu,"
      "\"http_requests\":%llu,\"http_errors\":%llu,"
      "\"producer_dropped_spans\":%llu,\"producer_reconnects\":%llu}\n",
      static_cast<unsigned long long>(s.connections_accepted),
      static_cast<unsigned long long>(s.connections_closed),
      static_cast<unsigned long long>(s.connections_errored),
      static_cast<unsigned long long>(service.open_connections()),
      static_cast<unsigned long long>(s.bytes_received),
      static_cast<unsigned long long>(s.spans_ingested),
      static_cast<unsigned long long>(s.strings_reinterned),
      static_cast<unsigned long long>(s.frames_parsed),
      static_cast<unsigned long long>(s.footers_seen),
      static_cast<unsigned long long>(s.heartbeats_seen),
      static_cast<unsigned long long>(s.http_requests),
      static_cast<unsigned long long>(s.http_errors),
      static_cast<unsigned long long>(s.producer_dropped_spans),
      static_cast<unsigned long long>(s.producer_reconnects));
  std::fflush(stdout);
}

int run(const Options& opts) {
  const net::Endpoint ep = net::Endpoint::parse(opts.listen);

  // The registry collects the sink fleet's own health series; the service
  // appends them to /metrics after its ingest counters. Declared before
  // the service so it outlives every scrape.
  metrics::Registry registry;
  // Bounded interning: arm the budget before the first producer stream
  // re-interns anything. A long-lived daemon fed by high-cardinality
  // producers plateaus here instead of growing without bound.
  if (opts.strtab_budget > 0) {
    common::StringTable::global().set_budget_bytes(opts.strtab_budget);
  }
  trace::TraceServer server(opts.shards);
  net::CollectorOptions copts;
  copts.max_frame_payload = opts.max_frame_bytes;
  copts.drain_timeout_ms = opts.drain_timeout_ms;
  copts.metrics_endpoint = opts.metrics;
  copts.registry = &registry;
  net::CollectorService service(ep, server, copts);
  server.bind_metrics(registry);

  // Export fan-out on the server's drain seam — exactly the sinks an
  // in-process session uses, now fed by the whole fleet.
  std::ofstream out_stream;
  std::unique_ptr<trace::BinaryWriter> writer;
  std::vector<trace::SubscriberId> subscriptions;
  if (!opts.out.empty()) {
    out_stream.open(opts.out, std::ios::binary | std::ios::trunc);
    if (!out_stream) {
      std::fprintf(stderr, "xsp_collectd: cannot open '%s'\n", opts.out.c_str());
      return 1;
    }
    writer = std::make_unique<trace::BinaryWriter>(out_stream);
    // kConsume: batches leave the server as they drain, so daemon memory
    // stays bounded however long the fleet streams.
    subscriptions.push_back(server.add_drain_subscriber(
        [&w = *writer](const trace::SpanBatches& batches) { w.write_batches(batches); },
        trace::DrainHandoff::kConsume));
  }
  std::ofstream json_stream;
  std::unique_ptr<trace::StreamingExporter> exporter;
  if (!opts.json.empty()) {
    json_stream.open(opts.json, std::ios::trunc);
    if (!json_stream) {
      std::fprintf(stderr, "xsp_collectd: cannot open '%s'\n", opts.json.c_str());
      return 1;
    }
    exporter = std::make_unique<trace::StreamingExporter>(
        trace::ExportFormat::kSpanJson, json_stream, /*with_metadata=*/true);
    subscriptions.push_back(server.add_drain_subscriber(
        [&e = *exporter](const trace::SpanBatches& batches) { e.write_batches(batches); },
        trace::DrainHandoff::kObserve));
  }
  std::unique_ptr<analysis::OnlineAnalyzer> analyzer;
  if (opts.online) {
    analyzer = std::make_unique<analysis::OnlineAnalyzer>();
    subscriptions.push_back(server.add_drain_subscriber(
        analyzer->shard_subscriber(), trace::DrainHandoff::kObserve));
  }

  g_service = &service;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  // A producer vanishing between poll and write must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("xsp_collectd: listening on %s\n", service.endpoint().uri().c_str());
  if (const net::Endpoint* mep = service.metrics_endpoint())
    std::printf("xsp_collectd: metrics on %s\n", mep->uri().c_str());
  std::fflush(stdout);

  // --stats-json: a small ticker thread prints one JSON snapshot per
  // interval (stats() is a mutex-guarded copy, safe off the run thread).
  std::thread stats_ticker;
  std::mutex ticker_mu;
  std::condition_variable ticker_cv;
  bool ticker_stop = false;
  if (opts.stats_json) {
    stats_ticker = std::thread([&] {
      std::unique_lock lk(ticker_mu);
      while (!ticker_cv.wait_for(lk,
                                 std::chrono::milliseconds(opts.stats_interval_ms),
                                 [&] { return ticker_stop; })) {
        print_stats_json(service);
      }
    });
  }

  service.run();
  g_service = nullptr;

  if (stats_ticker.joinable()) {
    {
      std::lock_guard lk(ticker_mu);
      ticker_stop = true;
    }
    ticker_cv.notify_all();
    stats_ticker.join();
    // Final snapshot after the drain so scripts always see the end state.
    print_stats_json(service);
  }

  // Everything accepted is published; push it through the drain seam and
  // finalize the sinks with fleet-wide telemetry.
  server.flush();
  trace::TraceMeta meta;
  meta.dropped_annotations = server.dropped_annotation_count();
  meta.shard_count = server.shard_count();
  const auto& table = common::StringTable::global();
  meta.interned_strings = table.size();
  meta.interned_bytes = table.approx_bytes();
  meta.strtab_budget_bytes = table.budget_bytes();
  meta.rejected_interns = table.rejected_interns();
  meta.live_slots = server.live_slot_count();
  meta.retired_slots = server.retired_slot_count();
  meta.slot_bytes = server.approx_slot_bytes();
  const net::CollectorStats stats = service.stats();
  meta.remote_dropped_spans = stats.producer_dropped_spans;
  meta.remote_reconnects = stats.producer_reconnects;

  for (const trace::SubscriberId id : subscriptions)
    server.remove_drain_subscriber(id);
  if (writer) {
    writer->set_meta(meta);
    writer->finish();
    out_stream.flush();
  }
  if (exporter) {
    exporter->set_meta(meta);
    exporter->finish();
    json_stream.flush();
  }

  // stats: lines live on stderr so they can never interleave with trace
  // output (or --stats-json objects) on stdout.
  std::fprintf(stderr, "stats: connections_accepted=%llu closed=%llu errored=%llu\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.connections_closed),
               static_cast<unsigned long long>(stats.connections_errored));
  std::fprintf(stderr,
               "stats: spans_ingested=%llu strings_reinterned=%llu bytes_received=%llu\n",
               static_cast<unsigned long long>(stats.spans_ingested),
               static_cast<unsigned long long>(stats.strings_reinterned),
               static_cast<unsigned long long>(stats.bytes_received));
  std::fprintf(stderr, "stats: strtab_bytes=%llu strtab_budget=%llu rejected_interns=%llu\n",
               static_cast<unsigned long long>(meta.interned_bytes),
               static_cast<unsigned long long>(meta.strtab_budget_bytes),
               static_cast<unsigned long long>(meta.rejected_interns));
  std::fprintf(stderr,
               "stats: footers_seen=%llu producer_dropped_spans=%llu producer_reconnects=%llu\n",
               static_cast<unsigned long long>(stats.footers_seen),
               static_cast<unsigned long long>(stats.producer_dropped_spans),
               static_cast<unsigned long long>(stats.producer_reconnects));
  std::fflush(stderr);
  if (analyzer) {
    const analysis::OnlineSnapshot snap = analyzer->snapshot();
    std::printf("online: spans=%llu batches=%llu layer_spans=%llu kernel_spans=%llu\n",
                static_cast<unsigned long long>(snap.spans),
                static_cast<unsigned long long>(snap.batches),
                static_cast<unsigned long long>(snap.layer_spans),
                static_cast<unsigned long long>(snap.kernel_spans));
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    print_usage();
    return 2;
  }
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xsp_collectd: %s\n", e.what());
    return 1;
  }
}
