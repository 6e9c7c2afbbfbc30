// OnlineAnalyzer: the online-vs-offline equivalence suite.
//
// The subsystem's core claim is that the streaming aggregates are
// *provably equivalent* — exact counts, exact integer-ns totals, the same
// interned StrId keys — to offline A6/A7/A10-style aggregation computed
// over the identical batch stream, including under concurrent
// publishers, while steady-state aggregation performs zero heap allocations.
// Only percentiles are approximate, with the histogram's documented
// bucket bound.
#include "xsp/analysis/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <new>
#include <thread>
#include <vector>

#include "../trace/json_check.hpp"
#include "xsp/models/builder.hpp"
#include "xsp/profile/model_profile.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/profile/span_keys.hpp"
#include "xsp/trace/trace_server.hpp"

// GCC pairs the malloc-backed replacement operator new below with the
// inlined operator delete and misreports a mismatch; both halves are ours
// and consistently use malloc/free.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

// Binary-wide allocation counter (one definition per test binary — the
// trace suite has its own): the steady-state zero-allocation acceptance
// check reads it around observe() calls.
static std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace xsp::analysis {
namespace {

using profile::span_keys;
using trace::Span;
using trace::SpanBatch;
using trace::SpanBatches;
using trace::SpanKind;

// --- span builders using the production annotation keys --------------------

Span layer_span(trace::SpanId id, TimePoint begin, Ns dur, StrId type, double alloc_bytes) {
  Span s;
  s.id = id;
  s.level = trace::kLayerLevel;
  s.kind = SpanKind::kRegular;
  s.name = "layer";
  s.tracer = "framework_profiler";
  s.begin = begin;
  s.end = begin + dur;
  s.tags.set(span_keys().layer_type, type);
  s.metrics.set(span_keys().alloc_bytes, alloc_bytes);
  return s;
}

Span kernel_span(trace::SpanId id, TimePoint begin, Ns dur, StrId name, double reads,
                 double writes) {
  Span s;
  s.id = id;
  s.level = trace::kKernelLevel;
  s.kind = SpanKind::kExecution;
  s.name = name;
  s.tracer = "cupti";
  s.begin = begin;
  s.end = begin + dur;
  s.tags.set(span_keys().kind, span_keys().kind_kernel);
  s.metrics.set(span_keys().dram_read_bytes, reads);
  s.metrics.set(span_keys().dram_write_bytes, writes);
  return s;
}

Span memcpy_span(trace::SpanId id, TimePoint begin, Ns dur) {
  Span s;
  s.id = id;
  s.level = trace::kKernelLevel;
  s.kind = SpanKind::kExecution;
  s.name = "memcpy_HtoD";
  s.tracer = "cupti";
  s.begin = begin;
  s.end = begin + dur;
  s.tags.set(span_keys().kind, span_keys().kind_memcpy);
  return s;
}

/// Offline reference aggregation over a span stream — the A6/A7/A10-style
/// grouping the analyzer must match key for key, written as the obvious
/// direct loop so the test is its own specification.
struct OfflineRef {
  struct Agg {
    std::uint64_t count = 0;
    Ns total_ns = 0;
    Ns min_ns = std::numeric_limits<Ns>::max();
    Ns max_ns = 0;
    double bytes = 0;
  };
  std::map<std::uint32_t, Agg> layer_types;  // keyed by raw StrId
  std::map<std::uint32_t, Agg> kernels;
  std::uint64_t spans = 0, layer_spans = 0, kernel_spans = 0, memcpy_spans = 0;
  Ns layer_total = 0, kernel_total = 0;

  void add(const Span& s) {
    ++spans;
    const Ns dur = s.duration() > 0 ? s.duration() : 0;
    if (s.level == trace::kLayerLevel && s.kind == SpanKind::kRegular) {
      ++layer_spans;
      layer_total += dur;
      StrId type = s.tag_or(span_keys().layer_type);
      if (type.empty()) type = s.name;
      auto& agg = layer_types[type.raw()];
      ++agg.count;
      agg.total_ns += dur;
      agg.min_ns = std::min(agg.min_ns, dur);
      agg.max_ns = std::max(agg.max_ns, dur);
      agg.bytes += s.metric_or(span_keys().alloc_bytes, 0);
    } else if (s.level == trace::kKernelLevel && s.kind == SpanKind::kExecution) {
      if (s.tag_or(span_keys().kind) == span_keys().kind_memcpy) {
        ++memcpy_spans;
      } else {
        ++kernel_spans;
        kernel_total += dur;
        auto& agg = kernels[s.name.raw()];
        ++agg.count;
        agg.total_ns += dur;
        agg.min_ns = std::min(agg.min_ns, dur);
        agg.max_ns = std::max(agg.max_ns, dur);
        agg.bytes += s.metric_or(span_keys().dram_read_bytes, 0) +
                     s.metric_or(span_keys().dram_write_bytes, 0);
      }
    }
  }

  void add(const SpanBatches& batches) {
    for (const auto& batch : batches) {
      for (const Span& s : batch) add(s);
    }
  }
};

void expect_rows_equal(const std::vector<OnlineAggregate>& online,
                       const std::map<std::uint32_t, OfflineRef::Agg>& offline,
                       const char* what) {
  ASSERT_EQ(online.size(), offline.size()) << what;
  for (const OnlineAggregate& row : online) {
    const auto it = offline.find(row.key.raw());
    ASSERT_NE(it, offline.end()) << what << ": unexpected key " << row.key;
    EXPECT_EQ(row.count, it->second.count) << what << " key " << row.key;
    EXPECT_EQ(row.total_ns, it->second.total_ns) << what << " key " << row.key;
    EXPECT_EQ(row.min_ns, it->second.min_ns) << what << " key " << row.key;
    EXPECT_EQ(row.max_ns, it->second.max_ns) << what << " key " << row.key;
    EXPECT_DOUBLE_EQ(row.bytes, it->second.bytes) << what << " key " << row.key;
  }
}

// --- exact equivalence over a synthetic batch stream ------------------------

SpanBatches synthetic_stream(std::size_t spans) {
  SpanBatches batches;
  SpanBatch batch;
  trace::SpanId id = 1;
  for (std::size_t i = 0; i < spans; ++i) {
    const auto t = static_cast<TimePoint>(i * 1000);
    switch (i % 5) {
      case 0:
        batch.push_back(layer_span(id++, t, 900 + static_cast<Ns>(i % 13) * 10,
                                   i % 2 == 0 ? "Conv2D" : "Relu", 1e6 + double(i)));
        break;
      case 1:
        batch.push_back(layer_span(id++, t, 500, "Add", 2e6));
        break;
      case 2:
        batch.push_back(kernel_span(id++, t, 700 + static_cast<Ns>(i % 7) * 11,
                                    i % 3 == 0 ? "volta_sgemm" : "eigen_kernel", 1e5 + double(i),
                                    5e4));
        break;
      case 3:
        batch.push_back(memcpy_span(id++, t, 300));
        break;
      default: {
        // Unclassified span (model level): counts toward totals only.
        Span s;
        s.id = id++;
        s.level = trace::kModelLevel;
        s.name = "Model Prediction";
        s.begin = t;
        s.end = t + 50;
        batch.push_back(s);
      }
    }
    if (batch.size() == 100) {
      batches.push_back(std::move(batch));
      batch = SpanBatch();
    }
  }
  if (!batch.empty()) batches.push_back(std::move(batch));
  return batches;
}

TEST(OnlineEquivalence, ExactlyMatchesOfflineAggregationOverTheSameBatches) {
  const SpanBatches batches = synthetic_stream(5003);
  OfflineRef ref;
  ref.add(batches);

  OnlineAnalyzer analyzer;
  analyzer.observe(batches);
  const OnlineSnapshot snap = analyzer.snapshot();

  EXPECT_EQ(snap.spans, ref.spans);
  EXPECT_EQ(snap.layer_spans, ref.layer_spans);
  EXPECT_EQ(snap.kernel_spans, ref.kernel_spans);
  EXPECT_EQ(snap.memcpy_spans, ref.memcpy_spans);
  EXPECT_EQ(snap.layer_total_ns, ref.layer_total);
  EXPECT_EQ(snap.kernel_total_ns, ref.kernel_total);
  expect_rows_equal(snap.layer_types, ref.layer_types, "layer_types");
  expect_rows_equal(snap.kernels, ref.kernels, "kernels");
}

TEST(OnlineEquivalence, SplitDeliveryEqualsSingleDelivery) {
  // Aggregation must be associative over delivery granularity: one
  // observe() of N batches == N observe() calls of one batch each.
  const SpanBatches batches = synthetic_stream(2000);
  OnlineAnalyzer whole;
  whole.observe(batches);
  OnlineAnalyzer split;
  for (const auto& batch : batches) {
    SpanBatches one;
    one.push_back(batch);
    split.observe(one);
  }
  const auto a = whole.snapshot();
  const auto b = split.snapshot();
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.layer_total_ns, b.layer_total_ns);
  EXPECT_EQ(a.kernel_total_ns, b.kernel_total_ns);
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (std::size_t i = 0; i < a.kernels.size(); ++i) {
    EXPECT_EQ(a.kernels[i].key, b.kernels[i].key);
    EXPECT_EQ(a.kernels[i].count, b.kernels[i].count);
    EXPECT_EQ(a.kernels[i].total_ns, b.kernels[i].total_ns);
  }
  EXPECT_EQ(a.layer_p50, b.layer_p50);
  EXPECT_EQ(a.kernel_p99, b.kernel_p99);
}

// --- equivalence under the 4-thread stress harness --------------------------

TEST(OnlineEquivalence, FourThreadStressMatchesOfflineAggregation) {
  // 4 publisher threads into an async server; the analyzer is the
  // stream's only consumer (kConsume — the bounded-memory service shape)
  // while a kObserve collector captures the identical stream for the
  // offline reference. Whatever the interleaving, the aggregates must
  // match the reference exactly.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 5000;
  trace::TraceServer server(trace::PublishMode::kAsync);

  OnlineAnalyzer analyzer;
  server.add_drain_subscriber(analyzer.subscriber(), trace::DrainHandoff::kConsume);

  std::mutex collected_mu;
  std::vector<Span> collected;
  server.add_drain_subscriber(
      [&](const SpanBatches& batches) {
        std::lock_guard lk(collected_mu);
        for (const auto& b : batches) collected.insert(collected.end(), b.begin(), b.end());
      },
      trace::DrainHandoff::kObserve);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const auto time = static_cast<TimePoint>(t * 1'000'000 + i * 100);
        const trace::SpanId id = server.next_span_id();
        // Deterministic per-thread mix; metric values are integral so
        // double sums are order-independent and compare exactly.
        if (i % 3 == 0) {
          server.publish(layer_span(id, time, 800 + static_cast<Ns>((t + i) % 9) * 25,
                                    i % 2 == 0 ? "Conv2D" : "Softmax",
                                    double(1000 * t + i % 50)));
        } else if (i % 3 == 1) {
          server.publish(kernel_span(id, time, 400 + static_cast<Ns>((t + i) % 5) * 17,
                                     t % 2 == 0 ? "volta_sgemm" : "implicit_gemm",
                                     double(100 * (i % 11)), double(10 * (i % 7))));
        } else {
          server.publish(memcpy_span(id, time, 200));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  server.flush();

  // The consumer kept the server empty the whole time.
  EXPECT_TRUE(server.take_batches().empty());

  OfflineRef ref;
  {
    std::lock_guard lk(collected_mu);
    ASSERT_EQ(collected.size(), kThreads * kPerThread);
    for (const Span& s : collected) ref.add(s);
  }

  const OnlineSnapshot snap = analyzer.snapshot();
  // Every span of every publisher reached the analyzer.
  EXPECT_EQ(snap.spans, kThreads * kPerThread);
  EXPECT_EQ(snap.spans, ref.spans);
  EXPECT_EQ(snap.layer_spans, ref.layer_spans);
  EXPECT_EQ(snap.kernel_spans, ref.kernel_spans);
  EXPECT_EQ(snap.memcpy_spans, ref.memcpy_spans);
  EXPECT_EQ(snap.layer_total_ns, ref.layer_total);
  EXPECT_EQ(snap.kernel_total_ns, ref.kernel_total);
  expect_rows_equal(snap.layer_types, ref.layer_types, "layer_types");
  expect_rows_equal(snap.kernels, ref.kernels, "kernels");
}

// --- equivalence against the real profiling pipeline ------------------------

framework::Graph test_graph(std::int64_t batch = 4) {
  models::GraphBuilder b("online_test_model", batch, true);
  b.input(3, 32, 32);
  b.conv(16, 3, 1).batch_norm().relu();
  b.conv(32, 3, 2).relu();
  b.global_avg_pool().fc(10).softmax();
  return std::move(b).build();
}

TEST(OnlineEquivalence, SessionLayerRunMatchesTimelineDerivedA6A7Aggregation) {
  profile::Session session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  auto opts = profile::ProfileOptions::model_layer();
  opts.live_stats = true;
  const auto run = session.profile(test_graph(), opts);
  const OnlineSnapshot snap = session.live_snapshot();

  // M/L publishes no async pairs: raw stream == assembled timeline.
  EXPECT_EQ(snap.spans, run.timeline.size());

  // Offline reference: the same grouping A6/A7 perform, computed from the
  // assembled timeline's layer spans (integer-exact, same StrId keys).
  OfflineRef ref;
  run.timeline.walk([&ref](const trace::TimelineNode& node, int) { ref.add(node.span); });
  EXPECT_EQ(snap.layer_spans, ref.layer_spans);
  EXPECT_EQ(snap.layer_total_ns, ref.layer_total);
  expect_rows_equal(snap.layer_types, ref.layer_types, "layer_types");
}

TEST(OnlineEquivalence, SessionGpuRunMatchesModelProfileA10Aggregation) {
  // Leveled runs, by hand, with live stats on the M/L/G session: the
  // merged ModelProfile's kernels come from exactly the span stream that
  // session's analyzer observed, so the online kernel table must equal
  // the offline A10 grouping of profile.kernels — same keys, same counts,
  // same integer-ns totals, same byte sums.
  profile::Session sm(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  profile::Session sml(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  profile::Session smlg(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto m = sm.profile(test_graph(), profile::ProfileOptions::model_only());
  const auto ml = sml.profile(test_graph(), profile::ProfileOptions::model_layer());
  auto gopts = profile::ProfileOptions::full(/*metrics=*/true);
  gopts.live_stats = true;
  const auto mlg = smlg.profile(test_graph(), gopts);
  const auto profile =
      profile::merge_runs(m, ml, mlg, "online_test_model", "Tesla_V100", "tensorflow", 4);
  const OnlineSnapshot snap = smlg.live_snapshot();

  struct Agg {
    std::uint64_t count = 0;
    Ns total_ns = 0;
    double bytes = 0;
  };
  std::map<std::uint32_t, Agg> offline;  // A10: kernels grouped by name
  std::uint64_t memcpys = 0;
  for (const auto& k : profile.kernels) {
    if (k.is_memcpy) {
      ++memcpys;
      continue;
    }
    auto& agg = offline[k.name.raw()];
    ++agg.count;
    agg.total_ns += k.latency;
    agg.bytes += k.dram_read_bytes + k.dram_write_bytes;
  }
  ASSERT_FALSE(offline.empty());
  EXPECT_EQ(snap.memcpy_spans, memcpys);
  EXPECT_EQ(snap.kernel_total_ns, profile.total_kernel_latency());
  ASSERT_EQ(snap.kernels.size(), offline.size());
  for (const OnlineAggregate& row : snap.kernels) {
    const auto it = offline.find(row.key.raw());
    ASSERT_NE(it, offline.end()) << "unexpected kernel " << row.key;
    EXPECT_EQ(row.count, it->second.count) << row.key;
    EXPECT_EQ(row.total_ns, it->second.total_ns) << row.key;
    EXPECT_DOUBLE_EQ(row.bytes, it->second.bytes) << row.key;
  }
  // Streaming A13 consistency: cumulative gpu_pct derives from the two
  // exact totals.
  if (snap.layer_total_ns > 0) {
    EXPECT_DOUBLE_EQ(snap.gpu_pct, 100.0 * double(snap.kernel_total_ns) /
                                       double(snap.layer_total_ns));
  }
}

// --- acceptance: zero steady-state allocation -------------------------------

TEST(OnlineAnalyzerMemory, SteadyStateObserveIsAllocationFree) {
  const SpanBatches batches = synthetic_stream(2000);
  OnlineAnalyzer analyzer;
  // Warm-up: key set saturates, tables/histograms reach steady state.
  for (int i = 0; i < 3; ++i) analyzer.observe(batches);

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) analyzer.observe(batches);
  const std::uint64_t during = g_alloc_count.load(std::memory_order_relaxed) - before;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  (void)during;  // sanitizer runtimes allocate on their own
#else
  EXPECT_EQ(during, 0u) << "steady-state observe() allocated";
#endif
  // The aggregates kept advancing while allocation-free.
  EXPECT_EQ(analyzer.snapshot().spans, 11u * 2000u);
}

// --- histogram --------------------------------------------------------------

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (Ns v = 0; v < 8; ++v) h.record(v);  // one of each of 0..7
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.percentile(0), 0);
  EXPECT_EQ(h.percentile(100), 7);
  EXPECT_EQ(h.percentile(50), 3);  // 4th of 8 values
}

TEST(LatencyHistogramTest, PercentileErrorIsWithinBucketBound) {
  LatencyHistogram h;
  std::vector<Ns> values;
  std::uint64_t seed = 42;
  for (int i = 0; i < 10000; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    const Ns v = static_cast<Ns>(seed % 10'000'000);  // 0..10ms
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double p : {50.0, 95.0, 99.0}) {
    const Ns exact = values[static_cast<std::size_t>(p / 100.0 * (values.size() - 1))];
    const Ns estimate = h.percentile(p);
    EXPECT_GE(estimate, exact - exact / 8 - 1) << "p" << p;
    EXPECT_LE(estimate, exact + exact / 8 + 1) << "p" << p;
  }
}

TEST(LatencyHistogramTest, HugeDurationsDoNotOverflowTheBucketRange) {
  LatencyHistogram h;
  h.record(std::numeric_limits<Ns>::max());
  h.record(-5);  // clamps to 0
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.percentile(100), std::numeric_limits<Ns>::max() / 2);
  EXPECT_EQ(h.percentile(0), 0);
}

// --- sliding window ---------------------------------------------------------

TEST(OnlineWindow, OldSpansAgeOutOfTheWindowStats) {
  OnlineAnalyzerOptions opts;
  opts.window = 1000;  // 1 µs window
  OnlineAnalyzer analyzer(opts);

  // Burst at t≈0, then a lone span much later: only the recent span may
  // appear in the window.
  SpanBatches early;
  early.push_back({});
  for (int i = 0; i < 100; ++i) {
    early.back().push_back(kernel_span(static_cast<trace::SpanId>(i + 1),
                                       static_cast<TimePoint>(i), 10, "k", 0, 0));
  }
  analyzer.observe(early);
  const auto mid = analyzer.snapshot();
  EXPECT_GT(mid.window_spans_per_sec, 0);

  SpanBatches late;
  late.push_back({kernel_span(1000, 1'000'000, 10, "k", 0, 0)});
  analyzer.observe(late);
  const auto snap = analyzer.snapshot();
  // 1 span in a 1 µs window = 1e6 spans/s of simulated time.
  EXPECT_DOUBLE_EQ(snap.window_spans_per_sec, 1e6);
  // Cumulative aggregates are unaffected by aging.
  EXPECT_EQ(snap.spans, 101u);
  EXPECT_EQ(snap.kernels.front().count, 101u);
}

// --- snapshot helpers -------------------------------------------------------

TEST(OnlineSnapshotTest, SummaryJsonIsValidAndEscaped) {
  OnlineAnalyzer analyzer;
  SpanBatches batches;
  batches.push_back(
      {kernel_span(1, 0, 500, "Eigen::Tensor<\"quoted\\name\">", 1e5, 5e4),
       layer_span(2, 1000, 900, "Conv2D", 2e6), memcpy_span(3, 2000, 100)});
  analyzer.observe(batches);
  const std::string json = online_summary_json(analyzer.snapshot());
  std::string error;
  EXPECT_TRUE(trace::testjson::valid_json(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"spans\":3"), std::string::npos);
  EXPECT_NE(json.find("\"kernels\":["), std::string::npos);
  EXPECT_EQ(json.find("shard"), std::string::npos);
}

TEST(OnlineSnapshotTest, ResetForgetsEverything) {
  OnlineAnalyzer analyzer;
  analyzer.observe(synthetic_stream(500));
  ASSERT_GT(analyzer.snapshot().spans, 0u);
  analyzer.reset();
  const auto snap = analyzer.snapshot();
  EXPECT_EQ(snap.spans, 0u);
  EXPECT_TRUE(snap.kernels.empty());
  EXPECT_TRUE(snap.layer_types.empty());
  EXPECT_EQ(snap.layer_p99, 0);
  EXPECT_DOUBLE_EQ(snap.window_spans_per_sec, 0);
}

// --- decoded spans with extreme times ---------------------------------------

TEST(OnlineExtremeTimes, SpanOverTheWholeRangeSaturatesEveryDurationSum) {
  // A collector observes spans decoded from other processes, which may
  // carry any pair of times. A span over the whole Ns range lasts the
  // largest Ns, and every duration sum it joins stays there.
  constexpr Ns kMin = std::numeric_limits<Ns>::min();
  constexpr Ns kMax = std::numeric_limits<Ns>::max();
  Span wide_layer = layer_span(2, 0, 0, "Conv2D", 0);
  wide_layer.begin = kMin;
  wide_layer.end = kMax;
  Span wide_kernel = kernel_span(5, 0, 0, "k", 0, 0);
  wide_kernel.begin = kMin;
  wide_kernel.end = kMax;
  SpanBatches batches;
  batches.push_back({layer_span(1, 0, 100, "Conv2D", 0), wide_layer,
                     layer_span(3, 200, 50, "Conv2D", 0), kernel_span(4, 10, 20, "k", 0, 0),
                     wide_kernel, kernel_span(6, 40, 30, "k", 0, 0)});
  OnlineAnalyzer analyzer;
  analyzer.observe(batches);
  analyzer.observe(batches);  // sums already at the top stay there

  const OnlineSnapshot snap = analyzer.snapshot();
  EXPECT_EQ(snap.layer_spans, 6u);
  EXPECT_EQ(snap.kernel_spans, 6u);
  EXPECT_EQ(snap.first_begin, kMin);
  EXPECT_EQ(snap.last_end, kMax);
  EXPECT_EQ(snap.layer_total_ns, kMax);
  EXPECT_EQ(snap.kernel_total_ns, kMax);
  for (const auto* rows : {&snap.layer_types, &snap.kernels}) {
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_EQ((*rows)[0].count, 6u);
    EXPECT_EQ((*rows)[0].total_ns, kMax);
    EXPECT_EQ((*rows)[0].max_ns, kMax);
  }
  EXPECT_EQ(snap.layer_types[0].min_ns, 50);
  EXPECT_EQ(snap.kernels[0].min_ns, 20);
  EXPECT_GT(snap.window_gpu_busy_pct, 0);
  std::string error;
  EXPECT_TRUE(trace::testjson::valid_json(online_summary_json(snap), &error)) << error;
}

}  // namespace
}  // namespace xsp::analysis
