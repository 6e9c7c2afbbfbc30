// Self-metrics registry: the profiler observing itself.
//
// The stack profiles workloads across process boundaries, but its own health
// (publish/drop counts, drain latency, outbox depth, per-producer liveness)
// was scattered across RunTrace fields, wire footers, and greppable stats
// lines. This module gives every layer one registry of named, labeled series
// with a Prometheus text-exposition writer, so a running fleet is watchable
// by machines (`GET /metrics` on xsp_collectd, `xsp_cli top --daemon`) and the
// adaptive sampling/rebalancing loops on the roadmap have a substrate to
// read from.
//
// Design constraints, in the same spirit as analysis::OnlineAnalyzer:
//   * lock-cheap updates — Counter/Gauge/Histogram are plain relaxed
//     atomics; inc() is one fetch_add with no registry involvement,
//   * zero steady-state allocation — label sets intern as StrIds and are
//     rendered to exposition text once at registration; a scrape appends
//     into a caller-owned reusable buffer,
//   * two-way lifetime safety — instrument handles are shared_ptrs (a
//     component may outlive the registry), and callback series are removed
//     by RAII handles holding weak_ptrs (a registry may outlive the
//     component).
//
// Callback series exist so hot paths need no new code at all: a component
// registers closures over counters it already maintains (TraceServer's
// drained/sampled atomics, RemoteSink's drop accounting) and pays nothing
// until a scrape samples them under the registry lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "xsp/common/string_table.hpp"

namespace xsp::metrics {

/// Series kind, mirrored into the exposition `# TYPE` header.
enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

/// One label dimension. Keys and values intern as StrIds so registering
/// the same label set twice costs no new storage and series identity
/// compares ids, not bytes.
struct Label {
  common::StrId key;
  common::StrId value;
};
using Labels = std::vector<Label>;

/// Monotonic counter. inc() is a single relaxed fetch_add — safe from any
/// thread, never resets, never goes down.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written signed value (queue depths, connection counts, flags).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket histogram over unsigned observations (latencies in ns,
/// sizes in bytes). Bucket upper bounds are fixed at registration, so
/// observe() is an upper_bound over a small immutable array plus three
/// relaxed fetch_adds — no locks, no allocation, safe from any thread.
/// Exposition renders cumulative `_bucket{le=...}` lines plus `_sum` and
/// `_count`, per the Prometheus histogram convention.
class Histogram {
 public:
  /// `bounds` must be strictly ascending inclusive upper bounds; a final
  /// +Inf bucket is implicit.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
  /// Non-cumulative count of bucket `i` (i == bounds().size() is +Inf).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::uint64_t> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Decade latency bounds in nanoseconds, 1µs .. 1s — the default for
/// drain/scrape duration histograms.
[[nodiscard]] std::vector<std::uint64_t> latency_buckets_ns();

/// Callback sample: invoked at scrape time, under the registry lock. Keep
/// it cheap (read an atomic, take one short component lock) and never
/// touch the registry from inside it.
using Sample = std::function<double()>;

namespace detail {
struct State;
}  // namespace detail

class Registry;

/// RAII registration of one callback series. Destroying (or release()-ing)
/// the handle removes the series; holding only a weak_ptr to the registry
/// state, it is safe in either destruction order.
class CallbackHandle {
 public:
  CallbackHandle() = default;
  CallbackHandle(CallbackHandle&& other) noexcept;
  CallbackHandle& operator=(CallbackHandle&& other) noexcept;
  CallbackHandle(const CallbackHandle&) = delete;
  CallbackHandle& operator=(const CallbackHandle&) = delete;
  ~CallbackHandle() { release(); }

  /// Unregister now. After release() returns, the sample callback is
  /// guaranteed not to be running and will never run again (removal
  /// serializes with scrapes on the registry lock). Idempotent.
  void release() noexcept;

 private:
  friend class Registry;
  CallbackHandle(std::weak_ptr<detail::State> state, std::uint64_t id)
      : state_(std::move(state)), id_(id) {}

  std::weak_ptr<detail::State> state_;
  std::uint64_t id_ = 0;
};

/// The registry: named families of labeled series. Registration is
/// idempotent — the same (name, labels) returns the same instrument — and
/// type-checked: re-registering a name under a different kind, or with
/// different histogram bounds, throws std::logic_error. Metric names must
/// match [a-zA-Z_:][a-zA-Z0-9_:]* (std::invalid_argument otherwise).
///
/// Families expose in registration order; series within a family in their
/// own registration order — scrapes are deterministic and diffable.
class Registry {
 public:
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Register (or find) a counter/gauge/histogram series. The returned
  /// shared_ptr keeps the instrument alive even if the registry dies
  /// first, so cached handles never dangle.
  std::shared_ptr<Counter> counter(std::string_view name, std::string_view help,
                                   const Labels& labels = {});
  std::shared_ptr<Gauge> gauge(std::string_view name, std::string_view help,
                               const Labels& labels = {});
  std::shared_ptr<Histogram> histogram(std::string_view name, std::string_view help,
                                       std::vector<std::uint64_t> bounds,
                                       const Labels& labels = {});

  /// Register a callback-backed series (kind kCounter or kGauge;
  /// kHistogram throws). The sample runs at scrape time under the
  /// registry lock. Duplicate (name, labels) throws std::logic_error —
  /// a callback series has exactly one owner.
  [[nodiscard]] CallbackHandle callback(std::string_view name, std::string_view help,
                                        Kind kind, const Labels& labels, Sample sample);

  /// Append the full Prometheus text exposition (format 0.0.4) to `out`.
  /// Reuse one string across scrapes to keep the steady state
  /// allocation-free once it has grown to scrape size.
  void write_prometheus(std::string& out) const;
  [[nodiscard]] std::string text() const;

  /// Number of live series across all families (callback series included).
  [[nodiscard]] std::size_t series_count() const;

 private:
  std::shared_ptr<detail::State> state_;
};

// Exposition building blocks, shared with components (net::CollectorService)
// that format dynamic per-connection series straight into the scrape buffer
// without registering them.

/// `k="v",k2="v2"` (no braces). Values are escaped per the exposition rules.
[[nodiscard]] std::string render_label_text(const Labels& labels);
/// Append `v` with `\\` -> `\\\\`, `"` -> `\\"`, newline -> `\\n`.
void append_escaped_label_value(std::string& out, std::string_view v);
/// Append a number: integral doubles in [-2^53, 2^53] print as integers,
/// everything else via %.10g.
void append_metric_value(std::string& out, double v);
/// `# HELP name help\n# TYPE name counter|gauge|histogram\n`.
void append_family_header(std::string& out, std::string_view name, std::string_view help,
                          Kind kind);
/// `name{label_text} value\n` (no braces when label_text is empty).
void append_sample_line(std::string& out, std::string_view name,
                        std::string_view label_text, double value);
void append_sample_line(std::string& out, std::string_view name,
                        std::string_view label_text, std::uint64_t value);

}  // namespace xsp::metrics
