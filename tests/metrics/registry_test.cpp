// Registry semantics (idempotent registration, type conflicts, callback
// lifetimes), Prometheus exposition shape, and — the reason this suite is
// in the sanitizer matrix — concurrent mutation: N writer threads driving
// counters/gauges/histograms while a reader scrapes, with monotonicity
// checked across scrapes.
#include "xsp/metrics/registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <latch>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace xsp::metrics {
namespace {

// Minimal exposition parser: `name{labels} value` or `name value` lines
// into a flat map keyed by "name{labels}". Comment lines are validated to
// look like HELP/TYPE and skipped.
std::map<std::string, double> parse_exposition(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_FALSE(line.empty()) << "blank line in exposition";
    if (line.empty()) return {};
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0)
          << "unexpected comment: " << line;
      continue;
    }
    const auto sp = line.rfind(' ');
    EXPECT_NE(sp, std::string::npos) << line;
    if (sp == std::string::npos) return {};
    out[line.substr(0, sp)] = std::stod(line.substr(sp + 1));
  }
  if (::testing::Test::HasFailure()) return {};
  return out;
}

std::map<std::string, double> parse_exposition(const Registry& reg) {
  return parse_exposition(reg.text());
}

TEST(RegistryTest, CounterRegistrationIsIdempotent) {
  Registry reg;
  auto a = reg.counter("xsp_test_total", "help");
  auto b = reg.counter("xsp_test_total", "help");
  EXPECT_EQ(a.get(), b.get());
  a->inc();
  b->inc(4);
  EXPECT_EQ(a->value(), 5u);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(RegistryTest, LabeledSeriesAreDistinct) {
  Registry reg;
  auto a = reg.counter("xsp_test_total", "help", {{"shard", "0"}});
  auto b = reg.counter("xsp_test_total", "help", {{"shard", "1"}});
  EXPECT_NE(a.get(), b.get());
  a->inc(3);
  const auto samples = parse_exposition(reg);
  EXPECT_EQ(samples.at("xsp_test_total{shard=\"0\"}"), 3.0);
  EXPECT_EQ(samples.at("xsp_test_total{shard=\"1\"}"), 0.0);
}

TEST(RegistryTest, KindConflictThrows) {
  Registry reg;
  (void)reg.counter("xsp_test_total", "help");
  EXPECT_THROW((void)reg.gauge("xsp_test_total", "help"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("xsp_test_total", "help", {1, 2}), std::logic_error);
}

TEST(RegistryTest, HistogramBoundsConflictThrows) {
  Registry reg;
  (void)reg.histogram("xsp_test_ns", "help", {1, 2, 3});
  // Same bounds: fine, same instrument.
  (void)reg.histogram("xsp_test_ns", "help", {1, 2, 3});
  EXPECT_THROW((void)reg.histogram("xsp_test_ns", "help", {1, 2}), std::logic_error);
}

TEST(RegistryTest, InvalidNameThrows) {
  Registry reg;
  EXPECT_THROW((void)reg.counter("0starts_with_digit", "h"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("has-dash", "h"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("", "h"), std::invalid_argument);
  (void)reg.counter("_ok:name_1", "h");  // must not throw
}

TEST(RegistryTest, GaugeGoesUpAndDown) {
  Registry reg;
  auto g = reg.gauge("xsp_test_depth", "help");
  g->set(7);
  g->add(-9);
  EXPECT_EQ(g->value(), -2);
  const auto samples = parse_exposition(reg);
  EXPECT_EQ(samples.at("xsp_test_depth"), -2.0);
}

TEST(RegistryTest, HistogramBucketsAreCumulativeInExposition) {
  Registry reg;
  auto h = reg.histogram("xsp_test_ns", "help", {10, 100, 1000});
  h->observe(5);     // le=10
  h->observe(10);    // le=10 (inclusive upper bound)
  h->observe(50);    // le=100
  h->observe(5000);  // +Inf
  EXPECT_EQ(h->count(), 4u);
  EXPECT_EQ(h->sum(), 5065u);
  const auto samples = parse_exposition(reg);
  EXPECT_EQ(samples.at("xsp_test_ns_bucket{le=\"10\"}"), 2.0);
  EXPECT_EQ(samples.at("xsp_test_ns_bucket{le=\"100\"}"), 3.0);
  EXPECT_EQ(samples.at("xsp_test_ns_bucket{le=\"1000\"}"), 3.0);
  EXPECT_EQ(samples.at("xsp_test_ns_bucket{le=\"+Inf\"}"), 4.0);
  EXPECT_EQ(samples.at("xsp_test_ns_sum"), 5065.0);
  EXPECT_EQ(samples.at("xsp_test_ns_count"), 4.0);
}

TEST(RegistryTest, LabelValuesAreEscaped) {
  Registry reg;
  auto c = reg.counter("xsp_test_total", "help", {{"path", "a\"b\\c\nd"}});
  c->inc();
  const std::string text = reg.text();
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos) << text;
}

TEST(RegistryTest, CallbackSeriesSampleAtScrape) {
  Registry reg;
  std::atomic<std::uint64_t> backing{0};
  CallbackHandle handle = reg.callback(
      "xsp_test_cb_total", "help", Kind::kCounter, {},
      [&backing] { return static_cast<double>(backing.load()); });
  backing = 41;
  EXPECT_EQ(parse_exposition(reg).at("xsp_test_cb_total"), 41.0);
  backing = 42;
  EXPECT_EQ(parse_exposition(reg).at("xsp_test_cb_total"), 42.0);
  EXPECT_EQ(reg.series_count(), 1u);
}

TEST(RegistryTest, DuplicateCallbackThrows) {
  Registry reg;
  CallbackHandle a = reg.callback("xsp_test_cb", "h", Kind::kGauge, {}, [] { return 0.0; });
  EXPECT_THROW((void)reg.callback("xsp_test_cb", "h", Kind::kGauge, {}, [] { return 0.0; }),
               std::logic_error);
  // Releasing frees the slot for re-registration.
  a.release();
  CallbackHandle b = reg.callback("xsp_test_cb", "h", Kind::kGauge, {}, [] { return 1.0; });
  EXPECT_EQ(parse_exposition(reg).at("xsp_test_cb"), 1.0);
}

TEST(RegistryTest, ReleasedCallbackDisappearsFromScrape) {
  Registry reg;
  {
    CallbackHandle handle =
        reg.callback("xsp_test_cb", "h", Kind::kGauge, {}, [] { return 1.0; });
    EXPECT_EQ(reg.series_count(), 1u);
  }
  EXPECT_EQ(reg.series_count(), 0u);
  EXPECT_EQ(reg.text().find("xsp_test_cb"), std::string::npos);
}

TEST(RegistryTest, HandleOutlivingRegistryIsSafe) {
  CallbackHandle handle;
  {
    Registry reg;
    handle = reg.callback("xsp_test_cb", "h", Kind::kGauge, {}, [] { return 1.0; });
  }
  handle.release();  // must be a no-op, not a crash
}

TEST(RegistryTest, InstrumentOutlivingRegistryIsSafe) {
  std::shared_ptr<Counter> c;
  {
    Registry reg;
    c = reg.counter("xsp_test_total", "h");
  }
  c->inc();  // instrument is shared, registry death must not invalidate it
  EXPECT_EQ(c->value(), 1u);
}

TEST(RegistryTest, HistogramCallbackKindThrows) {
  Registry reg;
  EXPECT_THROW(
      (void)reg.callback("xsp_test", "h", Kind::kHistogram, {}, [] { return 0.0; }),
      std::logic_error);
}

TEST(RegistryTest, FamiliesExposeInRegistrationOrder) {
  Registry reg;
  (void)reg.counter("xsp_b_total", "h");
  (void)reg.counter("xsp_a_total", "h");
  const std::string text = reg.text();
  EXPECT_LT(text.find("xsp_b_total"), text.find("xsp_a_total"));
}

// The sanitizer-matrix test: writers hammer shared instruments while a
// reader scrapes into a reused buffer. TSan checks the synchronization
// story; the assertions check monotonic counters across scrapes and exact
// totals once the writers join.
TEST(RegistryConcurrencyTest, WritersVsScrapingReader) {
  Registry reg;
  constexpr int kWriters = 4;
  constexpr std::uint64_t kIncsPerWriter = 20000;
  auto counter = reg.counter("xsp_stress_total", "h");
  auto gauge = reg.gauge("xsp_stress_depth", "h");
  auto hist = reg.histogram("xsp_stress_ns", "h", {8, 64, 512});
  std::atomic<std::uint64_t> cb_backing{0};
  CallbackHandle cb = reg.callback("xsp_stress_cb_total", "h", Kind::kCounter, {},
                                   [&cb_backing] { return static_cast<double>(cb_backing.load()); });

  // Writers start only after the reader's first scrape: under load they
  // could otherwise finish before the reader ever runs, leaving nothing
  // scraped concurrently.
  std::latch first_scrape(1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      first_scrape.wait();
      for (std::uint64_t i = 0; i < kIncsPerWriter; ++i) {
        counter->inc();
        gauge->set(static_cast<std::int64_t>(i));
        hist->observe((i * 37 + static_cast<std::uint64_t>(w)) % 1000);
        cb_backing.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread reader([&] {
    std::string buf;
    double last_counter = 0.0;
    double last_cb = 0.0;
    std::uint64_t scrapes = 0;
    bool released = false;
    while (!stop.load(std::memory_order_acquire)) {
      buf.clear();
      reg.write_prometheus(buf);
      if (!released) {
        first_scrape.count_down();
        released = true;
      }
      const auto samples = parse_exposition(buf);
      if (samples.empty()) break;  // parse assertion already failed
      const double now_counter = samples.at("xsp_stress_total");
      const double now_cb = samples.at("xsp_stress_cb_total");
      EXPECT_GE(now_counter, last_counter);
      EXPECT_GE(now_cb, last_cb);
      // A histogram's cumulative buckets never exceed its count.
      EXPECT_LE(samples.at("xsp_stress_ns_bucket{le=\"512\"}"),
                samples.at("xsp_stress_ns_count"));
      last_counter = now_counter;
      last_cb = now_cb;
      ++scrapes;
    }
    EXPECT_GT(scrapes, 0u);
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  constexpr std::uint64_t kTotal = kWriters * kIncsPerWriter;
  EXPECT_EQ(counter->value(), kTotal);
  EXPECT_EQ(hist->count(), kTotal);
  const auto samples = parse_exposition(reg);
  EXPECT_EQ(samples.at("xsp_stress_total"), static_cast<double>(kTotal));
  EXPECT_EQ(samples.at("xsp_stress_ns_bucket{le=\"+Inf\"}"), static_cast<double>(kTotal));
  EXPECT_EQ(samples.at("xsp_stress_cb_total"), static_cast<double>(kTotal));
}

// Callback release must serialize with scrapes: a component dying while
// another thread scrapes can never leave the scrape calling into freed
// state. (ASan/TSan would flag the use-after-free / race.)
TEST(RegistryConcurrencyTest, ReleaseRacesScrape) {
  Registry reg;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::string buf;
    while (!stop.load(std::memory_order_acquire)) {
      buf.clear();
      reg.write_prometheus(buf);
    }
  });
  for (int round = 0; round < 200; ++round) {
    auto value = std::make_shared<std::atomic<std::uint64_t>>(round);
    CallbackHandle handle = reg.callback(
        "xsp_churn", "h", Kind::kGauge, {},
        [value] { return static_cast<double>(value->load()); });
    // Handle (and the captured state) dies here, mid-scrape-loop.
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(reg.series_count(), 0u);
}

}  // namespace
}  // namespace xsp::metrics
