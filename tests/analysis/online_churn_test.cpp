// Thread churn under a live kConsume OnlineAnalyzer: producer threads
// exit mid-drain while the analyzer is the stream's consumer, so slot
// retirement (the final sweep of an exiting thread's slot) and live
// aggregation race on every drain pass. The analyzer's totals must still
// account for every published span exactly once, and the server must not
// accrete dead slots — the long-lived-serving shape the producer-slot
// lifecycle work exists for.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "xsp/analysis/online.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::analysis {
namespace {

using trace::DrainHandoff;
using trace::PublishMode;
using trace::Span;
using trace::TraceServer;

Span make_kernel_span(trace::SpanSink& sink, TimePoint t) {
  Span s;
  s.id = sink.next_span_id();
  s.level = trace::kKernelLevel;
  s.kind = trace::SpanKind::kExecution;
  s.name = "churn_kernel";
  s.begin = t;
  s.end = t + 10;
  return s;
}

TEST(OnlineChurn, ConsumerAnalyzerCountsEverySpanAcrossThreadChurn) {
  constexpr std::size_t kThreads = 800;
  constexpr std::size_t kWave = 16;
  constexpr std::size_t kSpansPerThread = 32;

  TraceServer server(PublishMode::kAsync);
  OnlineAnalyzer analyzer;
  const auto id = server.add_drain_subscriber(analyzer.subscriber(), DrainHandoff::kConsume);

  std::size_t launched = 0;
  while (launched < kThreads) {
    const std::size_t n = std::min(kWave, kThreads - launched);
    std::vector<std::thread> wave;
    wave.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      wave.emplace_back([&server] {
        for (std::size_t k = 0; k < kSpansPerThread; ++k) {
          server.publish(make_kernel_span(server, static_cast<TimePoint>(k * 20)));
        }
      });
    }
    // Threads exit while the collector is mid-drain into the
    // consumer; retirement and delivery interleave freely here.
    for (auto& t : wave) t.join();
    launched += n;
  }
  server.flush();

  const OnlineSnapshot snap = analyzer.snapshot();
  EXPECT_EQ(snap.spans, kThreads * kSpansPerThread);
  EXPECT_EQ(snap.kernel_spans, kThreads * kSpansPerThread);
  // The consumer kept the server empty; churned slots were all retired.
  EXPECT_EQ(server.span_count(), 0u);
  EXPECT_EQ(server.live_slot_count(), 0u);
  EXPECT_EQ(server.retired_slot_count(), kThreads);

  server.remove_drain_subscriber(id);
}

}  // namespace
}  // namespace xsp::analysis
