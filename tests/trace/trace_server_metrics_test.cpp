// TraceServer::bind_metrics: the server exposes one xsp_trace_* series per
// name under the bound labels, and each agrees with the server's getters.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "xsp/metrics/exposition.hpp"
#include "xsp/metrics/registry.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

/// Series name -> every value scraped for it.
using Scrape = std::map<std::string, std::vector<double>>;

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
    out[std::string(s.name)].push_back(s.value);
  }
  return out;
}

TEST(TraceServerMetrics, OneSeriesPerNameAgreesWithTheGetters) {
  TraceServer server(PublishMode::kSync);
  metrics::Registry registry;
  server.bind_metrics(registry, {{"job", "test"}});
  SamplerOptions sopts;
  sopts.rate = 0.5;
  server.set_sampler(std::make_shared<const Sampler>(sopts));

  // 300 spans from each of two threads that exit, each span with a
  // distinct correlation id (the sampler hashes them) and two dropped
  // annotations.
  std::uint64_t corr = 1;
  for (int t = 0; t < 2; ++t) {
    std::thread([&server, &corr] {
      for (int i = 0; i < 300; ++i) {
        Span s;
        s.id = server.next_span_id();
        s.correlation_id = corr++;
        s.begin = i;
        s.end = i + 1;
        s.dropped_annotations = 2;
        server.publish(s);
      }
    }).join();
  }
  const std::uint64_t kept = server.sampled_kept_count();  // flushes
  const std::uint64_t dropped = server.sampled_dropped_count();
  ASSERT_EQ(kept + dropped, 600u);
  ASSERT_GT(kept, 0u);
  ASSERT_GT(dropped, 0u);
  EXPECT_EQ(server.span_count(), kept);
  EXPECT_EQ(server.dropped_annotation_count(), 2 * kept);

  const Scrape series = scrape(registry);
  const char* const names[] = {
      "xsp_trace_drained_spans_total",       "xsp_trace_sampled_kept_total",
      "xsp_trace_sampled_dropped_total",     "xsp_trace_dropped_annotations_total",
      "xsp_trace_live_slots",                "xsp_trace_retired_slots_total",
      "xsp_trace_slot_bytes",                "xsp_trace_drain_duration_ns_count",
  };
  for (const char* name : names) {
    const auto it = series.find(name);
    ASSERT_NE(it, series.end()) << name;
    EXPECT_EQ(it->second.size(), 1u) << name;
  }
  EXPECT_EQ(registry.text().find("shard="), std::string::npos);

  const auto value = [&registry](const char* name) { return scrape(registry).at(name).front(); };
  EXPECT_EQ(value("xsp_trace_drained_spans_total"), static_cast<double>(kept));
  EXPECT_EQ(value("xsp_trace_dropped_annotations_total"), static_cast<double>(2 * kept));
  // Both publishing threads exited and were retired by the flush.
  EXPECT_EQ(value("xsp_trace_live_slots"), 0.0);
  EXPECT_EQ(value("xsp_trace_retired_slots_total"), 2.0);
  EXPECT_GT(value("xsp_trace_drain_duration_ns_count"), 0.0);
  EXPECT_EQ(value("xsp_trace_sampled_kept_total"), static_cast<double>(kept));
  EXPECT_EQ(value("xsp_trace_sampled_dropped_total"), static_cast<double>(dropped));

  // The drained counter is lifetime load, not the held trace: a take
  // empties the server but leaves it where it was.
  (void)server.take_batches();
  EXPECT_EQ(server.span_count(), 0u);
  EXPECT_EQ(value("xsp_trace_drained_spans_total"), static_cast<double>(kept));
}

TEST(TraceServerMetrics, BatchPoolBytesIsOneGaugeThatCountsPooledBlocks) {
  TraceServer server(PublishMode::kSync);
  metrics::Registry registry;
  server.bind_metrics(registry, {{"job", "test"}});
  const auto pool_gauge = [&registry] {
    const Scrape series = scrape(registry);
    const auto it = series.find("xsp_trace_batch_pool_bytes");
    return it == series.end() || it->second.size() != 1 ? -1.0 : it->second.front();
  };
  EXPECT_NE(registry.text().find("xsp_trace_batch_pool_bytes{job=\"test\"}"), std::string::npos);

  SpanBatch batch;
  batch.reserve(kBatchCapacity);  // a pooled-size block, now live
  const double before = pool_gauge();
  EXPECT_EQ(before, static_cast<double>(batch_pool_bytes()));
  batch = SpanBatch();  // the known drop
  const double after = pool_gauge();
  EXPECT_EQ(after, before + 55296.0);
  EXPECT_EQ(after, static_cast<double>(batch_pool_bytes()));
  EXPECT_EQ(static_cast<std::uint64_t>(after) % 55296u, 0u);  // whole blocks only
}

TEST(TraceServerMetrics, SeriesLeaveTheRegistryWithTheServer) {
  metrics::Registry registry;
  {
    TraceServer server(PublishMode::kAsync);
    server.bind_metrics(registry);
    EXPECT_FALSE(scrape(registry).empty());
  }
  // The callback series are gone; what remains are the retained drain
  // histograms, which no longer advance.
  for (const auto& [name, values] : scrape(registry)) {
    EXPECT_EQ(name.rfind("xsp_trace_drain_duration_ns", 0), 0u) << name;
  }
}

}  // namespace
}  // namespace xsp::trace
