// Live online analysis over an unbounded span stream — the service shape.
//
// A 4-shard fleet whose only consumer is an OnlineAnalyzer attached as a
// kConsume drain subscriber: every drained batch is aggregated and its
// buffers recycled to the shard freelists, so memory stays bounded while
// the aggregates (per-kernel/per-layer-type totals, latency percentiles,
// windowed rates, per-shard loads) stay current. Alongside it a second,
// kObserve subscriber demonstrates fan-out: the two compose on the same
// drain.
//
// The publisher fleet is deliberately skewed — three threads publish
// lightly, one publishes 4x as much — so the per-shard load counters and
// shard_imbalance() flag a hot shard, the signal a serving layer would
// use to rebalance (ROADMAP "shard-aware analyses").
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "xsp/analysis/online.hpp"
#include "xsp/trace/trace_server.hpp"

int main() {
  using namespace xsp;

  constexpr std::size_t kShards = 4;
  constexpr std::size_t kPublishers = 4;
  constexpr std::size_t kSpansPerPublisher = 50'000;

  trace::TraceServer server(kShards, trace::PublishMode::kAsync);

  analysis::OnlineAnalyzerOptions opts;
  opts.shard_count = server.shard_count();
  opts.window = 10 * kNsPerMs;
  analysis::OnlineAnalyzer analyzer(opts);

  // Consumer: aggregates and releases every batch (bounded memory).
  const trace::SubscriberId consumer =
      server.add_drain_subscriber(analyzer.shard_subscriber(), trace::DrainHandoff::kConsume);
  // A second tap on the same drain, proving fan-out: observers see the
  // batches the consumer is about to release.
  std::atomic<std::uint64_t> observed{0};
  const trace::SubscriberId tap = server.add_drain_subscriber(
      [&observed](const trace::SpanBatches& batches) {
        std::uint64_t n = 0;
        for (const auto& b : batches) n += b.size();
        observed.fetch_add(n, std::memory_order_relaxed);
      },
      trace::DrainHandoff::kObserve);

  std::vector<std::thread> publishers;
  for (std::size_t t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&server, t] {
      // Thread 0 is the hot publisher: 4x the spans of each other thread.
      const std::size_t count = t == 0 ? 4 * kSpansPerPublisher : kSpansPerPublisher;
      for (std::size_t i = 0; i < count; ++i) {
        trace::Span s;
        s.id = server.next_span_id();
        s.level = trace::kKernelLevel;
        s.kind = trace::SpanKind::kExecution;
        s.name = i % 3 == 0 ? "volta_sgemm_128x64" : "eigen_elementwise";
        s.tracer = "service";
        s.begin = static_cast<TimePoint>(i * 1000);
        s.end = s.begin + 600 + static_cast<Ns>((i % 5) * 100);
        server.publish(std::move(s));
      }
    });
  }
  for (auto& p : publishers) p.join();
  server.flush();

  const auto snap = analyzer.snapshot();
  std::printf("observed %" PRIu64 " spans in %" PRIu64 " batches; server holds %zu "
              "(consumer recycled everything)\n",
              snap.spans, snap.batches, server.span_count());
  std::printf("fan-out: the kObserve tap saw %" PRIu64 " spans on the same drains\n",
              observed.load());

  std::printf("kernel aggregates (streaming A10):\n");
  for (const auto& row : snap.kernels) {
    std::printf("  %-24s count %8" PRIu64 "  total %.3f ms  mean %.0f ns\n",
                row.key.c_str(), row.count, to_ms(row.total_ns), row.mean_ns());
  }
  std::printf("kernel latency p50/p95/p99: %" PRId64 " / %" PRId64 " / %" PRId64 " ns\n",
              snap.kernel_p50, snap.kernel_p95, snap.kernel_p99);

  // Hot-shard detection: thread-hash routing keeps each publisher on one
  // shard, so the hot publisher's shard carries ~4x the load.
  const auto loads = server.shard_loads();
  std::printf("per-shard loads (server telemetry):");
  for (std::size_t i = 0; i < loads.size(); ++i) std::printf(" [%zu] %" PRIu64, i, loads[i]);
  std::printf("\nanalyzer shard counters agree:      ");
  for (std::size_t i = 0; i < snap.shard_spans.size(); ++i) {
    std::printf(" [%zu] %" PRIu64, i, snap.shard_spans[i]);
  }
  const double imbalance = analysis::shard_imbalance(snap.shard_spans);
  std::printf("\nshard imbalance: %.2fx %s\n", imbalance,
              imbalance > 2.0 ? "-> hot shard detected, a serving layer would rebalance"
                              : "(balanced)");

  server.remove_drain_subscriber(tap);
  server.remove_drain_subscriber(consumer);
  return 0;
}
