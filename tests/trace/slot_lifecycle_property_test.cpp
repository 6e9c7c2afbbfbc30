// Property tests for the producer-slot lifecycle: a seeded interleaving
// of publish / flush / take_batches / drop / thread-exit against a
// live server must collect every span of the schedule exactly once, and
// the timeline assembled from the collected batches must equal the
// single-threaded oracle assembly of the same schedule — extending the
// randomized-oracle pattern of timeline_property_test.cpp from assembly
// to the full collection lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "xsp/common/rng.hpp"
#include "xsp/trace/timeline.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

/// Random strictly-nested span schedule (the timeline_property_test
/// generator shape): a model span covering disjoint layers, each covering
/// disjoint kernels. Ids are pre-assigned — the schedule is the oracle.
std::vector<Span> random_nested_trace(std::uint64_t seed, int layers, int kernels_per_layer) {
  SplitMix64 rng(seed);
  std::vector<Span> spans;
  SpanId next_id = 1;

  Span model;
  model.id = next_id++;
  model.level = kModelLevel;
  model.name = "Predict";
  model.begin = 0;

  TimePoint t = 10;
  for (int l = 0; l < layers; ++l) {
    Span layer;
    layer.id = next_id++;
    layer.level = kLayerLevel;
    layer.name = "layer_" + std::to_string(l);
    layer.begin = t;
    TimePoint kt = t + 1 + static_cast<TimePoint>(rng.below(5));
    for (int k = 0; k < kernels_per_layer; ++k) {
      Span kernel;
      kernel.id = next_id++;
      kernel.level = kKernelLevel;
      kernel.name = "kernel_" + std::to_string(l) + "_" + std::to_string(k);
      kernel.begin = kt;
      kernel.end = kt + 1 + static_cast<TimePoint>(rng.below(50));
      kt = kernel.end + 1 + static_cast<TimePoint>(rng.below(5));
      spans.push_back(kernel);
    }
    layer.end = kt + static_cast<TimePoint>(rng.below(5));
    t = layer.end + 1 + static_cast<TimePoint>(rng.below(10));
    spans.push_back(layer);
  }
  model.end = t + 5;
  spans.push_back(model);
  return spans;
}

/// Run the seeded op interleaving against `server`; returns every span
/// collected (across all takes plus the final one).
template <typename Server>
std::vector<Span> run_lifecycle(Server& server, const std::vector<Span>& schedule,
                                std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Span> collected;
  collected.reserve(schedule.size());
  std::size_t next = 0;

  const auto take_all = [&] {
    SpanBatches batches = server.take_batches();
    for (const auto& batch : batches) {
      collected.insert(collected.end(), batch.begin(), batch.end());
    }
  };

  while (next < schedule.size()) {
    const std::size_t chunk = std::min<std::size_t>(1 + rng.below(40), schedule.size() - next);
    switch (rng.below(5)) {
      case 0: {
        // The churn op: a short-lived producer thread publishes the next
        // chunk and exits — its slot is marked and later retired by
        // whichever drain the other ops trigger.
        std::thread producer([&server, &schedule, next, chunk] {
          for (std::size_t i = 0; i < chunk; ++i) server.publish(schedule[next + i]);
        });
        producer.join();
        next += chunk;
        break;
      }
      case 1:
        // Main-thread publication (a long-lived producer).
        for (std::size_t i = 0; i < chunk; ++i) server.publish(schedule[next + i]);
        next += chunk;
        break;
      case 2: server.flush(); break;
      case 3: take_all(); break;
      case 4:
        // Telemetry reads interleave with everything else; the slot
        // counters must never wedge or lose a drain.
        (void)server.live_slot_count();
        (void)server.retired_slot_count();
        break;
    }
  }
  take_all();
  return collected;
}

struct LifecycleCase {
  const char* name;
  std::function<std::vector<Span>(const std::vector<Span>&, std::uint64_t)> run;
};

class SlotLifecycleRandomized : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlotLifecycleRandomized, CollectedTimelineMatchesSingleThreadedOracle) {
  const std::uint64_t seed = GetParam();
  const auto schedule = random_nested_trace(seed, 25, 4);
  const Timeline oracle = Timeline::assemble(schedule);

  const std::vector<LifecycleCase> cases = {
      {"single_sync",
       [](const std::vector<Span>& s, std::uint64_t rng_seed) {
         TraceServer server(PublishMode::kSync);
         return run_lifecycle(server, s, rng_seed);
       }},
      {"single_async",
       [](const std::vector<Span>& s, std::uint64_t rng_seed) {
         TraceServer server(PublishMode::kAsync);
         return run_lifecycle(server, s, rng_seed);
       }},
  };

  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<Span> collected = c.run(schedule, seed ^ 0xC0FFEE);

    // Exactly once: the collected id multiset equals the schedule's.
    ASSERT_EQ(collected.size(), schedule.size());
    std::vector<SpanId> got_ids, want_ids;
    got_ids.reserve(collected.size());
    want_ids.reserve(schedule.size());
    for (const auto& s : collected) got_ids.push_back(s.id);
    for (const auto& s : schedule) want_ids.push_back(s.id);
    std::sort(got_ids.begin(), got_ids.end());
    std::sort(want_ids.begin(), want_ids.end());
    EXPECT_EQ(got_ids, want_ids);

    // The assembled timeline is oblivious to how collection interleaved:
    // same nodes, same parents as the oracle.
    const Timeline assembled = Timeline::assemble(collected);
    ASSERT_EQ(assembled.size(), oracle.size());
    oracle.walk([&](const TimelineNode& n, int) {
      EXPECT_EQ(assembled.node(n.span.id).parent, n.parent) << n.span.name.view();
    });
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlotLifecycleRandomized,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u, 606u));

}  // namespace
}  // namespace xsp::trace
