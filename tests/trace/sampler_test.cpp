#include "xsp/trace/sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

std::uint64_t drained_spans(TraceServer& server) {
  std::uint64_t n = 0;
  for (const auto& batch : server.take_batches()) n += batch.size();
  return n;
}

Span make_span(std::uint64_t corr, Ns dur = 100, int level = kKernelLevel) {
  Span s;
  s.id = corr;  // distinct non-zero id; the hash keys on corr when set
  s.level = level;
  s.begin = 0;
  s.end = dur;
  s.correlation_id = corr;
  return s;
}

TEST(Sampler, RateOneIsPassThrough) {
  Sampler sampler(SamplerOptions{});
  EXPECT_TRUE(sampler.pass_through());
  for (std::uint64_t c = 1; c < 1000; ++c) {
    EXPECT_TRUE(sampler.admit(make_span(c)));
    EXPECT_DOUBLE_EQ(sampler.effective_rate(make_span(c)), 1.0);
  }
}

TEST(Sampler, RateZeroRejectsEverything) {
  SamplerOptions opts;
  opts.rate = 0.0;
  Sampler sampler(opts);
  for (std::uint64_t c = 1; c < 1000; ++c) {
    EXPECT_FALSE(sampler.admit(make_span(c)));
  }
}

TEST(Sampler, DecisionsAreDeterministic) {
  SamplerOptions opts;
  opts.rate = 0.3;
  Sampler a(opts);
  Sampler b(opts);
  for (std::uint64_t c = 1; c < 5000; ++c) {
    const Span s = make_span(c);
    EXPECT_EQ(a.admit(s), b.admit(s)) << "corr " << c;
  }
}

TEST(Sampler, DistinctSeedsSampleDistinctSubsets) {
  SamplerOptions opts;
  opts.rate = 0.5;
  Sampler a(opts);
  opts.seed = 0x1234;
  Sampler b(opts);
  int differ = 0;
  for (std::uint64_t c = 1; c < 4000; ++c) {
    if (a.admit(make_span(c)) != b.admit(make_span(c))) ++differ;
  }
  // Independent 50% draws disagree ~50% of the time; far from zero.
  EXPECT_GT(differ, 1000);
}

TEST(Sampler, RateIsAccurateOverManyKeys) {
  for (const double rate : {0.5, 0.1, 0.01}) {
    SamplerOptions opts;
    opts.rate = rate;
    Sampler sampler(opts);
    constexpr int kKeys = 100000;
    int kept = 0;
    for (std::uint64_t c = 1; c <= kKeys; ++c) {
      if (sampler.admit(make_span(c))) ++kept;
    }
    const double observed = static_cast<double>(kept) / kKeys;
    // splitmix64 over sequential keys behaves as iid draws; 5 sigma.
    const double sigma = std::sqrt(rate * (1 - rate) / kKeys);
    EXPECT_NEAR(observed, rate, 5 * sigma) << "rate " << rate;
  }
}

TEST(Sampler, CorrelationGroupsAreCoherent) {
  SamplerOptions opts;
  opts.rate = 0.2;
  Sampler sampler(opts);
  // All spans of one request (same correlation id, any level/id/duration)
  // get one verdict — whole requests are kept or shed, never halves.
  for (std::uint64_t corr = 1; corr < 2000; ++corr) {
    const bool verdict = sampler.admit(make_span(corr));
    for (int level = 0; level <= kKernelLevel; ++level) {
      Span s = make_span(corr, /*dur=*/100 + level, level);
      s.id = corr * 100 + static_cast<std::uint64_t>(level);  // distinct span ids
      EXPECT_EQ(sampler.admit(s), verdict) << "corr " << corr << " level " << level;
    }
  }
}

TEST(Sampler, SpansWithoutCorrelationFallBackToSpanId) {
  SamplerOptions opts;
  opts.rate = 0.5;
  Sampler sampler(opts);
  int kept = 0;
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    Span s = make_span(0);
    s.id = id;
    s.correlation_id = 0;
    if (sampler.admit(s)) ++kept;
  }
  EXPECT_GT(kept, 1500);
  EXPECT_LT(kept, 2500);
}

TEST(Sampler, VerdictIgnoresLevelAndTracer) {
  const StrId tracers[] = {StrId{"framework"}, StrId{"cupti"}};
  SamplerOptions opts;
  opts.rate = 0.1;
  opts.tail_keep_ns = 1000;
  Sampler sampler(opts);
  EXPECT_FALSE(sampler.pass_through());
  // One request's spans share a correlation id; the verdict, the inclusion
  // probability and the pressure verdict are the same at every level and
  // under every tracer, for short spans and for tail-kept ones alike.
  int kept = 0;
  int pressure_kept = 0;
  for (std::uint64_t corr = 1; corr <= 2000; ++corr) {
    const Ns dur = corr % 50 == 0 ? 1000 : 100;
    const Span ref = make_span(corr, dur, kModelLevel);
    const bool verdict = sampler.admit(ref);
    const double rate = sampler.effective_rate(ref);
    const bool pressure = sampler.keep_under_pressure(ref);
    kept += verdict ? 1 : 0;
    pressure_kept += pressure ? 1 : 0;
    for (const int level : {kModelLevel, kLayerLevel, kKernelLevel}) {
      for (const StrId tracer : tracers) {
        Span s = make_span(corr, dur, level);
        s.tracer = tracer;
        EXPECT_EQ(sampler.admit(s), verdict) << "corr " << corr << " level " << level;
        EXPECT_DOUBLE_EQ(sampler.effective_rate(s), rate) << "corr " << corr;
        EXPECT_EQ(sampler.keep_under_pressure(s), pressure) << "corr " << corr;
      }
    }
  }
  // Both verdicts split the ids: the check compared keeps and drops.
  EXPECT_GT(kept, 0);
  EXPECT_LT(kept, 2000);
  EXPECT_GT(pressure_kept, 0);
  EXPECT_LT(pressure_kept, 2000);
}

TEST(Sampler, TailKeepForceAdmitsLongSpans) {
  SamplerOptions opts;
  opts.rate = 0.0;
  opts.tail_keep_ns = 1000;
  Sampler sampler(opts);
  for (std::uint64_t c = 1; c < 500; ++c) {
    EXPECT_FALSE(sampler.admit(make_span(c, 999)));
    EXPECT_TRUE(sampler.admit(make_span(c, 1000)));
    // Force-admitted spans carry inclusion probability 1 (unbiased HT).
    EXPECT_DOUBLE_EQ(sampler.effective_rate(make_span(c, 1000)), 1.0);
  }
}

TEST(Sampler, EffectiveRateMatchesPolicy) {
  SamplerOptions opts;
  opts.rate = 0.25;
  Sampler sampler(opts);
  EXPECT_DOUBLE_EQ(sampler.effective_rate(make_span(3, 100, kKernelLevel)), 0.25);
}

TEST(Sampler, ShedLowValueKeepsTailsAndHighPrioritySlice) {
  SamplerOptions opts;
  opts.rate = 1.0;  // everything admitted normally...
  opts.tail_keep_ns = 10000;
  Sampler sampler(opts);
  SpanBatch batch;
  for (std::uint64_t c = 1; c <= 1000; ++c) {
    batch.push_back(make_span(c, c == 500 ? 20000 : 100));
  }
  const std::size_t removed = sampler.shed_low_value(batch);
  EXPECT_EQ(removed + batch.size(), 1000u);
  // The shed is selective, not total: the tail outlier always survives,
  // and the rate*kShedKeepFraction hash slice keeps a deterministic core.
  bool tail_survived = false;
  for (const Span& s : batch) {
    if (s.correlation_id == 500) tail_survived = true;
    EXPECT_TRUE(sampler.keep_under_pressure(s));
  }
  EXPECT_TRUE(tail_survived);
  EXPECT_LT(batch.size(), 1000u);  // something was shed
}

// --- admission accounting through the servers ---------------------------

TEST(TraceServerSampling, InvariantPublishedEqualsKeptPlusDropped) {
  for (const PublishMode mode : {PublishMode::kSync, PublishMode::kAsync}) {
    TraceServer server(mode);
    SamplerOptions opts;
    opts.rate = 0.25;
    server.set_sampler(std::make_shared<const Sampler>(opts));
    constexpr std::uint64_t kSpans = 20000;
    for (std::uint64_t i = 0; i < kSpans; ++i) {
      Span s = make_span(server.next_correlation_id());
      s.id = server.next_span_id();
      server.publish(s);
    }
    const std::uint64_t kept = server.meta().sampled_kept;
    const std::uint64_t dropped = server.meta().sampled_dropped;
    EXPECT_EQ(kept + dropped, kSpans);
    EXPECT_GT(dropped, 0u);
    // Admitted spans all made it into the trace.
    EXPECT_EQ(drained_spans(server), kept);
  }
}

TEST(TraceServerSampling, CountersSurviveEmptyDrains) {
  TraceServer server(PublishMode::kSync);
  SamplerOptions opts;
  opts.rate = 0.0;
  server.set_sampler(std::make_shared<const Sampler>(opts));
  for (std::uint64_t i = 0; i < 100; ++i) {
    Span s = make_span(server.next_correlation_id());
    s.id = server.next_span_id();
    server.publish(s);
  }
  // Every span was sampled out, so the drain sees no batches — the
  // accounting must still land.
  EXPECT_EQ(drained_spans(server), 0u);
  EXPECT_EQ(server.meta().sampled_dropped, 100u);
  EXPECT_EQ(server.meta().sampled_kept, 0u);
}

TEST(TraceServerSampling, NoSamplerMeansNoAccounting) {
  TraceServer server(PublishMode::kSync);
  for (std::uint64_t i = 0; i < 50; ++i) {
    Span s = make_span(i + 1);
    s.id = server.next_span_id();
    server.publish(s);
  }
  EXPECT_EQ(server.meta().sampled_kept, 0u);
  EXPECT_EQ(server.meta().sampled_dropped, 0u);
}

TEST(TraceServerSampling, PublishBatchAdmitsSpanBySpanLikePublish) {
  SamplerOptions opts;
  opts.rate = 0.25;
  const auto sampler = std::make_shared<const Sampler>(opts);
  TraceServer one_by_one(PublishMode::kSync);
  TraceServer whole(PublishMode::kSync);
  one_by_one.set_sampler(sampler);
  whole.set_sampler(sampler);
  // The same spans both ways: ids and correlation ids come from neither
  // server, so both see identical admission keys.
  constexpr std::uint64_t kSpans = 3000;
  SpanBatch batch;
  for (std::uint64_t i = 1; i <= kSpans; ++i) {
    batch.push_back(make_span(i));
    one_by_one.publish(batch.back());
  }
  whole.publish_batch(std::move(batch));
  const std::uint64_t kept = whole.meta().sampled_kept;
  const std::uint64_t dropped = whole.meta().sampled_dropped;
  EXPECT_EQ(kept + dropped, kSpans);
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(kept, 0u);
  EXPECT_EQ(kept, one_by_one.meta().sampled_kept);
  EXPECT_EQ(dropped, one_by_one.meta().sampled_dropped);
  // The admitted spans, in publication order, are the same spans.
  const auto ids = [](TraceServer& server) {
    std::vector<SpanId> out;
    for (const Span& s : server.take_trace()) out.push_back(s.id);
    return out;
  };
  const std::vector<SpanId> whole_ids = ids(whole);
  EXPECT_EQ(whole_ids.size(), kept);
  EXPECT_EQ(whole_ids, ids(one_by_one));
}

TEST(TraceServerSampling, AWhollyRejectedBatchIsCountedAndNotHeld) {
  TraceServer server(PublishMode::kSync);
  SamplerOptions opts;
  opts.rate = 0.0;
  server.set_sampler(std::make_shared<const Sampler>(opts));
  SpanBatch batch;
  for (std::uint64_t i = 1; i <= 100; ++i) batch.push_back(make_span(i));
  server.publish_batch(std::move(batch));
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(drained_spans(server), 0u);
  EXPECT_EQ(server.meta().sampled_dropped, 100u);
  EXPECT_EQ(server.meta().sampled_kept, 0u);
}

TEST(TraceServerSampling, InvariantHoldsUnderConcurrentPublishers) {
  TraceServer server(PublishMode::kAsync);
  SamplerOptions opts;
  opts.rate = 0.5;
  server.set_sampler(std::make_shared<const Sampler>(opts));
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        Span s = make_span(server.next_correlation_id());
        s.id = server.next_span_id();
        server.publish(s);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t kept = server.meta().sampled_kept;
  EXPECT_EQ(kept + server.meta().sampled_dropped, kThreads * kPerThread);
  EXPECT_EQ(drained_spans(server), kept);
}

TEST(TraceServerSampling, SetSamplerMidStreamTakesEffect) {
  TraceServer server(PublishMode::kSync);
  for (std::uint64_t i = 0; i < 10; ++i) {
    Span s = make_span(i + 1);
    s.id = server.next_span_id();
    server.publish(s);
  }
  SamplerOptions opts;
  opts.rate = 0.0;
  server.set_sampler(std::make_shared<const Sampler>(opts));
  for (std::uint64_t i = 0; i < 10; ++i) {
    Span s = make_span(i + 100);
    s.id = server.next_span_id();
    server.publish(s);
  }
  EXPECT_EQ(drained_spans(server), 10u);
  EXPECT_EQ(server.meta().sampled_dropped, 10u);
}

}  // namespace
}  // namespace xsp::trace
