// Shared plumbing for the benchmark workloads: clocks, memory probes, an
// exact-enough latency histogram, the run Report every workload fills, and
// the benchmark-local trace Ledger used by `--trace 1` runs.
//
// Nothing here touches xsp's own Tracer or StringTable: the ledger records
// plain string literals into its own buffer, so tracing the benchmark never
// perturbs the interning and id paths it measures.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xspbench {

// --- clocks ----------------------------------------------------------------

/// Host monotonic time in ns (steady_clock is CLOCK_MONOTONIC on Linux, the
/// clock span `begin` stamps use in the fleet workloads).
inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by the whole process / the calling thread.
std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();

/// Kernel thread id of the calling thread.
int current_tid();

/// CPU time of one thread of this process, read from
/// /proc/self/task/<tid>/schedstat (0 if the thread is gone).
std::int64_t task_cpu_ns(int tid);

/// Every live thread id of this process.
std::vector<int> task_ids();

// --- memory ----------------------------------------------------------------

/// Current resident set size in bytes.
std::int64_t rss_bytes();
/// Peak resident set size (ru_maxrss) in MB.
double peak_rss_mb();

// --- statistics ------------------------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0,1]); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Harrell-Davis estimate of quantile q in (0,1): a Beta-weighted mean of
/// all order statistics. Where the values near q are sparse, one sample
/// moving past another shifts a plain quantile by their whole gap; this
/// estimate moves smoothly.
double hd_quantile(std::vector<double> values, double q);

// --- host speed ------------------------------------------------------------

/// The host's speed right now: wall time of a fixed job that depends on
/// nothing under test (see common.cpp for what it does).
std::int64_t host_probe_ns();

/// Host-speed scaling. A shared VM runs the same code up to 1.7x slower
/// for seconds to minutes at a time (co-tenants), which would swamp any
/// regression bound. A slowdown compares the probe with kReferenceProbeNs
/// (the probe on a 4-CPU Xeon VM, undisturbed). zoo_leveled, one thread
/// that is always busy, divides each experiment's times by the slowdown
/// probed just before it; fleet_steady, which leaves most of the host
/// idle, probes from its main thread while each round runs and divides
/// that round's CPU cost and lag tail by the median.
class HostSpeed {
 public:
  static constexpr double kReferenceProbeNs = 390'000;

  /// Probe now (median of three); records and returns the slowdown, > 1
  /// when the host runs slower than the reference.
  double sample();
  /// Median of every slowdown sampled.
  [[nodiscard]] double slowdown() const { return median(samples_); }

 private:
  std::vector<double> samples_;
};

/// Log-linear histogram over non-negative integers: values below 128 are
/// exact, larger ones land in one of 128 equal sub-buckets per power of
/// two, so a reported quantile is within 0.4% of a recorded value (bucket
/// midpoint, <= 1/256 relative error). Single writer; merge() to combine.
class LogHistogram {
 public:
  void record(std::int64_t v) noexcept {
    ++counts_[index(v < 0 ? 0 : static_cast<std::uint64_t>(v))];
    ++total_;
  }
  void merge(const LogHistogram& other) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }
  /// Value at quantile q (nearest rank), as its bucket's midpoint.
  [[nodiscard]] double quantile(double q) const noexcept;
  /// Mean of the values above quantile q (the worst 1 - q share), from
  /// bucket midpoints.
  [[nodiscard]] double tail_mean(double q) const noexcept;
  [[nodiscard]] double max() const noexcept;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int shift = 63 - __builtin_clzll(v) - kSubBits;
    return static_cast<std::size_t>((shift + 1) * kSub + ((v >> shift) - kSub));
  }
  static double midpoint(std::size_t i) noexcept;

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

// --- results ---------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

/// One workload run's outcome: counts, end-to-end and per-layer metrics,
/// and the list of failed output checks (empty = correct).
struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  /// Workload-specific figures under the names of the benchmark doc
  /// (experiments_per_s, ingest_lag_ms_p99, loss_ratio, ...).
  std::map<std::string, Metric> detail;
  /// Non-numeric facts about the run (output digests).
  std::map<std::string, std::string> info;
  std::vector<std::string> check_failures;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

/// The one-line JSON result a run ends with (parsed by run.py).
std::string report_json(const Report& r, const std::map<std::string, std::string>& context);

// --- trace ledger ----------------------------------------------------------

/// Benchmark-side spans recorded around calls into each layer during a
/// traced run, kept in memory and written out at exit. Thread-safe; names
/// must be string literals.
class Ledger {
 public:
  struct Span {
    const char* name;
    std::int64_t begin;
    std::int64_t end;
    std::uint32_t id;
    std::uint32_t parent;  ///< 0 = root
    int tid;
  };

  explicit Ledger(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Record a finished span; returns its id (0 when disabled).
  std::uint32_t add(const char* name, std::int64_t begin, std::int64_t end,
                    std::uint32_t parent = 0);

  /// Reserve an id for a parent span recorded later with add_with_id().
  std::uint32_t reserve_id();
  void add_with_id(std::uint32_t id, const char* name, std::int64_t begin, std::int64_t end,
                   std::uint32_t parent = 0);

  /// Write {"context", "spans", "layers", "detail", "end_to_end"} JSON.
  bool write(const std::string& path, const std::map<std::string, std::string>& context,
             const Report& report) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
};

/// Times one call and records it in the ledger when tracing; returns the
/// elapsed ns either way.
template <typename Fn>
std::int64_t timed(Ledger& ledger, const char* name, std::uint32_t parent, Fn&& fn) {
  const std::int64_t t0 = mono_ns();
  fn();
  const std::int64_t t1 = mono_ns();
  if (ledger.enabled()) ledger.add(name, t0, t1, parent);
  return t1 - t0;
}

// --- workloads -------------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for per-run scratch (sockets, .xspb files); created and
  /// removed by the workload.
  std::string tmp_root;
  /// zoo_leveled golden digests (read) / regeneration target (write).
  std::string golden_path;
  bool write_golden = false;
};

Report run_zoo(const RunConfig& cfg, Ledger& ledger);
Report run_fleet(const RunConfig& cfg, Ledger& ledger);

/// splitmix64: the seed -> input expansion every workload uses.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace xspbench
