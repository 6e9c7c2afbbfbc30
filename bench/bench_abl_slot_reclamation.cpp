// Ablation: drain-sweep cost vs. accumulated dead producer slots.
//
// Before thread-exit slot reclamation, a (thread, server) producer slot
// lived until the server died: a long-lived server fed by short-lived
// worker threads accreted one ~55KB slot per thread, and EVERY drain
// pass — collector tick, flush, take — swept all of them (a spinlock
// acquire + batch scan per slot) forever. Reclamation retires a churned
// slot in its first post-exit sweep, so the sweep cost stays O(live
// slots). This bench churns N threads through one server, then times
// steady-state flush():
//
//   dead:0                — baseline, no churn
//   dead:{1000,10000}     — must match the baseline: the sweep cost is
//                           independent of cumulative churn
//
// Record with --benchmark_format=json into
// bench/results/BENCH_abl_slot_reclamation.json (see bench/README.md).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "xsp/trace/trace_server.hpp"

namespace {

using xsp::trace::PublishMode;
using xsp::trace::Span;
using xsp::trace::TraceServer;

/// Churn `total` short-lived producer threads through `server`, each
/// publishing a few spans (a partial batch — the worst retirement shape:
/// the final sweep must steal it).
void churn_threads(TraceServer& server, std::size_t total) {
  constexpr std::size_t kWave = 32;
  std::size_t launched = 0;
  while (launched < total) {
    const std::size_t n = std::min(kWave, total - launched);
    std::vector<std::thread> wave;
    wave.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      wave.emplace_back([&server] {
        for (int k = 0; k < 4; ++k) {
          Span s;
          s.id = server.next_span_id();
          s.begin = k;
          s.end = k + 1;
          server.publish(std::move(s));
        }
      });
    }
    for (auto& t : wave) t.join();
    launched += n;
  }
}

void BM_DrainSweep(benchmark::State& state) {
  const auto dead_threads = static_cast<std::size_t>(state.range(0));

  TraceServer server(PublishMode::kSync);
  churn_threads(server, dead_threads);
  // Move the churned spans and slots out of the measurement: what remains
  // is the steady-state sweep an idle long-lived server pays per drain.
  (void)server.take_trace();

  for (auto _ : state) {
    server.flush();
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["live_slots"] = static_cast<double>(server.live_slot_count());
  state.counters["retired_slots"] = static_cast<double>(server.retired_slot_count());
  state.counters["slot_bytes"] = static_cast<double>(server.approx_slot_bytes());
}

}  // namespace

BENCHMARK(BM_DrainSweep)
    ->ArgName("dead")
    ->Arg(0)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
