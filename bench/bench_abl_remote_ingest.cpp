// Ablation: cross-process ingest throughput through the collector path —
// RemoteSink -> UDS -> CollectorService -> 2-shard TraceServer — against
// the in-process publication baseline the other ablations pin.
//
// Each iteration stands up a real daemon-in-miniature (listener + poll
// loop on its own thread), streams a fixed span population over the
// socket, and tears the stream down through the full drain protocol
// (footer, half-close, daemon ack), so the measured rate is the honest
// end-to-end figure a fleet producer sees — wire encode, kernel socket
// copies, frame reassembly, per-connection re-intern and id remap, and
// sharded publication all included.
//
//   BM_RemoteIngestUdsSingleProducer  one producer, one connection
//   BM_RemoteIngestUdsFourProducers   4 producer threads, 4 connections
//                                     into one daemon (the CI fleet shape)
//
// Rates are spans/s (items_per_second). The collector hands each decoded
// frame to the server whole (TraceServer::publish_batch), so after the
// socket the per-span work is decode and id remap; in-process publication
// (~20M spans/s, see BENCH_abl_span_publication_*.json) is the ceiling,
// and the gap is the transport tax.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "xsp/net/collector.hpp"
#include "xsp/net/endpoint.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/trace_server.hpp"

namespace {

using namespace xsp;
using namespace xsp::trace;

constexpr std::size_t kSpansPerProducer = 16384;

net::Endpoint bench_endpoint() {
  return net::Endpoint::parse("unix:/tmp/xsp_bench_ingest_" +
                              std::to_string(::getpid()) + ".sock");
}

/// One fleet member's stream: the export-ablation span mix (interned
/// kernel name, a tag, two metrics) published through any SpanSink.
void publish_spans(SpanSink& sink, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    Span s;
    s.id = sink.next_span_id();
    s.level = kKernelLevel;
    s.name = "volta_scudnn_128x64_relu_interior_nn_v1";
    s.tracer = "remote_ingest_bench";
    s.begin = static_cast<TimePoint>(1'000'000'000 + i * 12'345);
    s.end = s.begin + 9'876;
    s.tags.set("kind", "kernel");
    s.metrics.set("flop_count_sp", 123456789012.0);
    s.metrics.set("achieved_occupancy", 0.4375);
    sink.publish(s);
  }
}

void run_fleet(benchmark::State& state, int producers) {
  const net::Endpoint ep = bench_endpoint();
  std::uint64_t total_spans = 0;
  std::uint64_t dropped = 0;
  for (auto _ : state) {
    TraceServer server(2, PublishMode::kSync);
    net::CollectorService service(ep, server);
    std::thread daemon([&service] { service.run(); });

    std::vector<std::thread> fleet;
    fleet.reserve(producers);
    for (int p = 0; p < producers; ++p) {
      fleet.emplace_back([&ep] {
        RemoteSink sink(ep);
        publish_spans(sink, kSpansPerProducer);
        sink.close();
      });
    }
    for (std::thread& t : fleet) t.join();
    service.stop();
    daemon.join();
    server.flush();

    const net::CollectorStats stats = service.stats();
    total_spans += stats.spans_ingested;
    dropped += stats.producer_dropped_spans;
    if (server.span_count() != producers * kSpansPerProducer) {
      state.SkipWithError("ingest lost spans");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_spans));
  state.counters["producer_dropped"] =
      benchmark::Counter(static_cast<double>(dropped));
}

void BM_RemoteIngestUdsSingleProducer(benchmark::State& state) {
  run_fleet(state, 1);
}
// The pipeline's work happens on the daemon/sender threads, so rates must
// be against wall time, not the driving thread's CPU time.
BENCHMARK(BM_RemoteIngestUdsSingleProducer)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RemoteIngestUdsFourProducers(benchmark::State& state) {
  run_fleet(state, 4);
}
BENCHMARK(BM_RemoteIngestUdsFourProducers)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
