// TraceServer::bind_metrics: every shard exposes its own xsp_trace_*
// series under a shard="<i>" label, and the per-shard values add up to
// the server-wide getters.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "on_shard.hpp"
#include "xsp/metrics/exposition.hpp"
#include "xsp/metrics/registry.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

/// (series name, shard label) -> every value scraped for it.
using Scrape = std::map<std::pair<std::string, std::string>, std::vector<double>>;

Scrape scrape(const metrics::Registry& registry) {
  Scrape out;
  const std::string text = registry.text();
  std::string_view rest = text;
  while (!rest.empty()) {
    const std::size_t eol = rest.find('\n');
    const std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{} : rest.substr(eol + 1);
    metrics::ExpositionSample s;
    if (!metrics::parse_exposition_line(line, s)) continue;
    if (s.name.substr(0, 10) != "xsp_trace_") continue;
    out[{std::string(s.name), metrics::label_value(s.labels, "shard").value_or("")}].push_back(
        s.value);
  }
  return out;
}

TEST(TraceServerMetrics, EveryShardHasOneSeriesPerNameAndTheyAddUp) {
  TraceServer server(2, PublishMode::kSync);
  metrics::Registry registry;
  server.bind_metrics(registry, {{"job", "test"}});
  SamplerOptions sopts;
  sopts.rate = 0.5;
  server.set_sampler(std::make_shared<const Sampler>(sopts));

  // 300 spans per shard, each with distinct correlation ids (the sampler
  // hashes them) and two dropped annotations.
  std::uint64_t corr = 1;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    on_shard(server, shard, [&server, &corr] {
      for (int i = 0; i < 300; ++i) {
        Span s;
        s.id = server.next_span_id();
        s.correlation_id = corr++;
        s.begin = i;
        s.end = i + 1;
        s.dropped_annotations = 2;
        server.publish(s);
      }
    });
  }
  const std::vector<std::uint64_t> loads = server.shard_loads();  // flushes
  const std::uint64_t kept = server.sampled_kept_count();
  const std::uint64_t dropped = server.sampled_dropped_count();
  ASSERT_EQ(kept + dropped, 600u);
  ASSERT_GT(kept, 0u);
  ASSERT_GT(dropped, 0u);
  EXPECT_EQ(loads[0] + loads[1], kept);
  EXPECT_EQ(server.dropped_annotation_count(), 2 * kept);

  const Scrape series = scrape(registry);
  const char* const names[] = {
      "xsp_trace_drained_spans_total",       "xsp_trace_sampled_kept_total",
      "xsp_trace_sampled_dropped_total",     "xsp_trace_dropped_annotations_total",
      "xsp_trace_live_slots",                "xsp_trace_retired_slots_total",
      "xsp_trace_slot_bytes",                "xsp_trace_drain_duration_ns_count",
  };
  for (const char* name : names) {
    for (const char* shard : {"0", "1"}) {
      const auto it = series.find({name, shard});
      ASSERT_NE(it, series.end()) << name << " shard " << shard;
      EXPECT_EQ(it->second.size(), 1u) << name << " shard " << shard;
    }
    // No series without a shard label, and no third shard.
    std::size_t families = 0;
    for (const auto& [key, values] : series) families += key.first == name;
    EXPECT_EQ(families, 2u) << name;
  }

  const auto value = [&series](const char* name, const char* shard) {
    return series.at({name, shard}).front();
  };
  double sum_kept = 0;
  double sum_sampled_dropped = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string shard = std::to_string(i);
    const double drained = value("xsp_trace_drained_spans_total", shard.c_str());
    EXPECT_EQ(drained, static_cast<double>(loads[i])) << "shard " << i;
    // Each shard's dropped-annotation counter is its own spans' sum.
    EXPECT_EQ(value("xsp_trace_dropped_annotations_total", shard.c_str()), 2 * drained);
    // Both publishing threads exited and were retired by the flush.
    EXPECT_EQ(value("xsp_trace_live_slots", shard.c_str()), 0.0);
    EXPECT_EQ(value("xsp_trace_retired_slots_total", shard.c_str()), 1.0);
    EXPECT_GT(value("xsp_trace_drain_duration_ns_count", shard.c_str()), 0.0);
    sum_kept += value("xsp_trace_sampled_kept_total", shard.c_str());
    sum_sampled_dropped += value("xsp_trace_sampled_dropped_total", shard.c_str());
  }
  EXPECT_EQ(sum_kept, static_cast<double>(kept));
  EXPECT_EQ(sum_sampled_dropped, static_cast<double>(dropped));
}

TEST(TraceServerMetrics, SeriesLeaveTheRegistryWithTheServer) {
  metrics::Registry registry;
  {
    TraceServer server(2, PublishMode::kAsync);
    server.bind_metrics(registry);
    EXPECT_FALSE(scrape(registry).empty());
  }
  // The callback series are gone; what remains are the retained drain
  // histograms, which no longer advance.
  for (const auto& [key, values] : scrape(registry)) {
    EXPECT_EQ(key.first.rfind("xsp_trace_drain_duration_ns", 0), 0u) << key.first;
  }
}

}  // namespace
}  // namespace xsp::trace
