// OnlineAnalyzer: live, bounded-memory aggregation over draining span
// batches — the streaming counterpart of the offline analyses.
//
// The 15 analyses of Table I (analyses.hpp) consume a fully materialized
// ModelProfile/Timeline, so a long-running service can only be analyzed
// after the fact. The drain-subscriber hooks already stream every
// SpanBatch mid-drain with bounded memory; this subsystem rides them and
// incrementally maintains, with O(distinct keys) memory and zero
// per-span heap allocation in steady state:
//
//   * per-layer-type and per-kernel aggregates keyed by interned StrId
//     (count, total/min/max ns, bytes) — streaming A6/A7 and A10,
//   * log-bucketed latency histograms with p50/p95/p99 extraction,
//   * sliding-window span/s and GPU busy occupancy, plus the cumulative
//     GPU-vs-non-GPU split — streaming A13,
//   * per-shard load counters for hot-shard detection.
//
// Aggregation is exact where the offline analyses are exact: counts,
// integer-ns totals, min/max, and byte sums over the same batch stream
// equal the offline values key for key (pinned by the online-vs-offline
// equivalence suite). Only the percentiles are approximate, with a
// bounded relative error set by the histogram's sub-bucket resolution.
//
// This header deliberately depends only on xsp::trace — it sits *below*
// profile in the link DAG so profile::Session can own an analyzer and
// expose live snapshots during a run.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "xsp/common/string_table.hpp"
#include "xsp/common/time.hpp"
#include "xsp/trace/sampler.hpp"
#include "xsp/trace/span.hpp"
#include "xsp/trace/trace_server.hpp"  // DrainSubscriber

namespace xsp::analysis {

using common::StrId;

/// Log-bucketed latency histogram: 8 linear sub-buckets per power of two,
/// 512 fixed buckets covering the whole non-negative Ns range. record()
/// is branch-cheap and allocation-free; percentile() walks the fixed
/// array. The quantile error is bounded by the sub-bucket width: a
/// reported percentile is the upper bound of its bucket, at most 12.5%
/// above the true value (exact below 2^kSubBits ns).
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 3;                       ///< 8 sub-buckets per octave
  static constexpr std::size_t kSubCount = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBucketCount = 64 << kSubBits;   ///< covers all 63 value bits

  /// Record one duration (negative durations clamp to 0).
  void record(Ns d) noexcept {
    ++counts_[bucket_index(d)];
    ++total_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return total_; }

  /// Upper bound of the bucket holding the p-th percentile (p in
  /// [0, 100]); 0 when empty.
  [[nodiscard]] Ns percentile(double p) const noexcept;

  void clear() noexcept {
    counts_.fill(0);
    total_ = 0;
  }

  /// Bucket index for a duration: values below kSubCount map exactly;
  /// above, the top kSubBits+1 bits select (octave, sub-bucket).
  static std::size_t bucket_index(Ns d) noexcept;
  /// Inclusive upper bound of a bucket's value range.
  static Ns bucket_upper_bound(std::size_t index) noexcept;

 private:
  std::array<std::uint64_t, kBucketCount> counts_{};
  std::uint64_t total_ = 0;
};

/// One streaming aggregate row: the online counterpart of an offline
/// A6/A7 (layer-type) or A10 (kernel-name) aggregation row. Keys are
/// interned StrIds — the same ids the offline analyses group by.
struct OnlineAggregate {
  StrId key;
  std::uint64_t count = 0;
  Ns total_ns = 0;
  Ns min_ns = std::numeric_limits<Ns>::max();
  Ns max_ns = 0;
  /// alloc_bytes total for layer rows; DRAM read+write bytes total for
  /// kernel rows.
  double bytes = 0;
  /// Horvitz-Thompson rescaled estimates of the *pre-sampling* count and
  /// total: each observed span contributes 1/effective_rate (weight 1
  /// with no sampler attached, so est == exact on unsampled streams).
  /// Unbiased for the unsampled totals; see src/analysis/README.md for
  /// the variance bounds the equivalence tests pin.
  double est_count = 0;
  double est_total_ns = 0;
  /// SpaceSaving overestimation bound, non-zero only for rows that took
  /// over an evicted slot in a bounded kernel table: the row's true count
  /// is within [count - count_error, count]. 0 = exact.
  std::uint64_t count_error = 0;

  [[nodiscard]] double mean_ns() const noexcept {
    return count > 0 ? static_cast<double>(total_ns) / static_cast<double>(count) : 0;
  }
};

/// A consistent point-in-time copy of every online aggregate. Cheap to
/// take relative to the span rate (it copies O(distinct keys) rows, not
/// spans) and safe to read while publication continues.
struct OnlineSnapshot {
  // -- totals ------------------------------------------------------------
  std::uint64_t spans = 0;     ///< every span observed, all levels/kinds
  std::uint64_t batches = 0;   ///< drain deliveries observed
  std::uint64_t layer_spans = 0;
  std::uint64_t kernel_spans = 0;   ///< execution-kind kernel spans (memcpys excluded)
  std::uint64_t memcpy_spans = 0;
  Ns first_begin = 0;  ///< earliest span begin seen (0 when none)
  Ns last_end = 0;     ///< latest span end seen

  // -- streaming A13: GPU vs non-GPU -------------------------------------
  Ns layer_total_ns = 0;   ///< sum of layer-span durations
  Ns kernel_total_ns = 0;  ///< sum of kernel execution durations
  /// kernel_total / layer_total, as a percentage (0 when no layer time) —
  /// the whole-model aggregate of offline A13's per-layer split.
  double gpu_pct = 0;

  // -- keyed aggregates (sorted by descending total_ns, ties by name) ----
  std::vector<OnlineAggregate> layer_types;  ///< streaming A6/A7
  std::vector<OnlineAggregate> kernels;      ///< streaming A10

  // -- latency percentiles (bucket upper bounds; ≤12.5% high) ------------
  Ns layer_p50 = 0, layer_p95 = 0, layer_p99 = 0;
  Ns kernel_p50 = 0, kernel_p95 = 0, kernel_p99 = 0;

  // -- sliding window (simulated time) -----------------------------------
  Ns window = 0;                    ///< configured window width
  double window_spans_per_sec = 0;  ///< spans/s of simulated time over the window
  double window_gpu_busy_pct = 0;   ///< GPU-busy fraction of the window, percent

  // -- shard loads --------------------------------------------------------
  /// Spans observed per shard (hot-shard detection); size = configured
  /// shard_count, all zero except [0] when the single-sink adapter fed
  /// the analyzer.
  std::vector<std::uint64_t> shard_spans;

  // -- interning telemetry ------------------------------------------------
  /// Global StringTable size/bytes sampled at snapshot time, plus the
  /// bounded-interning state: the byte budget in force (0 = unbounded)
  /// and the lifetime count of interns rejected at the budget or slot
  /// ceiling (the xsp_top "strtab:" line).
  std::uint64_t interned_strings = 0;
  std::uint64_t interned_bytes = 0;
  std::uint64_t strtab_budget_bytes = 0;
  std::uint64_t rejected_interns = 0;

  // -- sampling ----------------------------------------------------------
  /// Horvitz-Thompson estimate of the pre-sampling span count (== spans
  /// when no sampler is attached).
  double est_spans = 0;
  /// Attached sampler's configured base rate (1.0 when none).
  double sampling_rate = 1.0;
  /// Publish-layer admission accounting injected via
  /// set_sampling_accounting() — the fleet's kept/shed counters, so a
  /// dashboard can show actual shed volume, which the analyzer cannot see
  /// from the admitted stream alone. Both 0 until injected.
  std::uint64_t sampled_kept = 0;
  std::uint64_t sampled_dropped = 0;
  /// Bounded-kernel-table telemetry: the configured row cap (0 = exact,
  /// unbounded) and lifetime SpaceSaving takeovers so far.
  std::size_t kernel_row_limit = 0;
  std::uint64_t kernel_evictions = 0;
};

/// max(shard_spans) / mean(shard_spans): 1.0 = perfectly balanced, and a
/// value near shard-count means one shard carries everything. 0 when no
/// spans were observed.
double shard_imbalance(const std::vector<std::uint64_t>& shard_spans);

/// Render a snapshot as a JSON object — the payload the streaming
/// exporter's span-JSON metadata footer carries as its "online" section.
/// Keyed aggregates are truncated to `max_rows` per table (the footer is
/// a summary, not a second copy of the trace).
std::string online_summary_json(const OnlineSnapshot& snapshot, std::size_t max_rows = 10);

struct OnlineAnalyzerOptions {
  /// Shards feeding this analyzer (sizes the per-shard load counters).
  std::size_t shard_count = 1;
  /// Sliding window for span/s and GPU-busy occupancy, in simulated time.
  Ns window = 100 * kNsPerMs;
  /// Bound on distinct kernel rows. 0 keeps the exact unbounded table;
  /// > 0 turns the kernel table into a SpaceSaving top-k sketch: when a
  /// new kernel name arrives with the table full, the minimum-count row
  /// is evicted and the newcomer inherits its count as `count_error`
  /// (the classic overestimation bound). True heavy hitters — kernels
  /// whose count exceeds observed/max_kernel_rows — are guaranteed
  /// present; time/byte stats of a takeover row restart from zero.
  std::size_t max_kernel_rows = 0;
};

/// A threshold alert on snapshot-derived metrics, evaluated by
/// poll_alerts(). Edge-triggered: the callback fires when `value(snap)`
/// crosses the threshold in the armed direction and re-arms only after
/// the metric recovers — a serving layer polling every second gets one
/// callback per excursion, not one per poll.
struct AlertRule {
  std::string name;
  /// Metric extractor, e.g. [](const OnlineSnapshot& s) { return
  /// double(s.kernel_p99); } or a drop-rate derived from the sampling
  /// accounting fields.
  std::function<double(const OnlineSnapshot&)> value;
  double threshold = 0;
  /// true: fire when the metric rises above the threshold; false: when it
  /// falls below.
  bool fire_above = true;
};

/// Handle for one registered alert (remove_alert). 0 is never valid.
using AlertId = std::uint64_t;

/// Fired from poll_alerts() with the rule, the offending value, and the
/// snapshot it was computed from.
using AlertCallback =
    std::function<void(const AlertRule&, double, const OnlineSnapshot&)>;

/// Thread-safe streaming aggregator over draining span batches.
///
/// Attach via subscriber()/shard_subscriber() as a drain subscriber
/// (kObserve to tee alongside normal assembly, kConsume to be the span
/// stream's only consumer), or call observe()/observe_shard() directly.
/// Locking is per delivered batch list, never per span; concurrent calls
/// from N shard collector threads are the intended shape.
///
/// Memory is O(distinct keys) + fixed histogram/window arrays, and a
/// steady-state observe() (no new keys) performs zero heap allocations —
/// both pinned by tests.
class OnlineAnalyzer {
 public:
  explicit OnlineAnalyzer(OnlineAnalyzerOptions options = {});

  OnlineAnalyzer(const OnlineAnalyzer&) = delete;
  OnlineAnalyzer& operator=(const OnlineAnalyzer&) = delete;

  /// Aggregate one drained batch list (attributed to shard 0).
  void observe(const trace::SpanBatches& batches) { observe_shard(0, batches); }

  /// Aggregate one drained batch list from shard `shard` (indices beyond
  /// shard_count clamp to the last counter).
  void observe_shard(std::size_t shard, const trace::SpanBatches& batches);

  /// Point-in-time copy of every aggregate; callable from any thread
  /// while observe() keeps running (the live dashboard path).
  [[nodiscard]] OnlineSnapshot snapshot() const;

  /// Forget everything (aggregates, histograms, window, shard loads).
  void reset();

  /// Reconfigure the sliding window width in place. The (transient)
  /// window ring restarts; cumulative aggregates are untouched — a
  /// service reconfiguring its dashboard must not lose lifetime stats.
  /// No-op for non-positive or unchanged values.
  void set_window(Ns window);

  /// Grow the per-shard load counters to cover `shard_count` shards
  /// (existing counts are kept; shrinking is not supported). Lets one
  /// analyzer outlive a resharded fleet without losing history.
  void ensure_shard_count(std::size_t shard_count);

  /// Adapter for TraceServer::add_drain_subscriber.
  /// The returned callable references *this: keep the analyzer alive
  /// until the subscriber is removed.
  [[nodiscard]] trace::DrainSubscriber subscriber() {
    return [this](const trace::SpanBatches& batches) { observe(batches); };
  }

  /// Shard-aware adapter (the ShardDrainSubscriber overload of
  /// TraceServer::add_drain_subscriber), feeding the per-shard load
  /// counters.
  [[nodiscard]] std::function<void(std::size_t, const trace::SpanBatches&)>
  shard_subscriber() {
    return [this](std::size_t shard, const trace::SpanBatches& batches) {
      observe_shard(shard, batches);
    };
  }

  [[nodiscard]] const OnlineAnalyzerOptions& options() const noexcept { return options_; }

  // --- sampling-aware estimation -----------------------------------------
  /// Attach (or clear, with nullptr) the sampler whose admission decisions
  /// shaped the observed stream. Each subsequent span is weighted by
  /// 1/Sampler::effective_rate(span) into the est_count/est_total_ns
  /// aggregate fields and est_spans — the Horvitz-Thompson estimator of
  /// the pre-sampling totals. Exact fields (count, total_ns, min/max) stay
  /// what was actually observed.
  void set_sampler(std::shared_ptr<const trace::Sampler> sampler);

  /// Inject the publish-layer admission counters (TraceServer::
  /// sampled_kept/dropped_count deltas) so snapshots can report the true
  /// shed volume; the analyzer never sees rejected spans itself.
  void set_sampling_accounting(std::uint64_t kept, std::uint64_t dropped);

  // --- alerting ----------------------------------------------------------
  /// Register an edge-triggered threshold alert; returns a handle for
  /// remove_alert(). The callback runs inside poll_alerts() on the polling
  /// thread, outside the analyzer's locks — it may call snapshot() or
  /// add/remove alerts, but blocking in it delays only the poller.
  AlertId add_alert(AlertRule rule, AlertCallback callback);
  void remove_alert(AlertId id);

  /// Take one snapshot and evaluate every registered rule against it,
  /// firing callbacks for rules newly crossing their threshold (and
  /// re-arming ones that recovered). Returns the number fired. The
  /// intended shape is a dashboard/serving loop calling this at its
  /// refresh cadence.
  std::size_t poll_alerts();

 private:
  /// Open-addressing StrId -> row-index map plus its dense row storage:
  /// lookups probe a power-of-two slot array (no allocation), inserts
  /// append a row and may rehash (amortized, new-key only). Dense rows
  /// make snapshot() a plain vector copy.
  struct KeyedTable {
    std::vector<std::uint32_t> slots;  ///< row index + 1; 0 = empty
    std::vector<OnlineAggregate> rows;

    /// Pre-size for kExpectedKeys distinct keys (online.cpp). The analyzer
    /// calls it on construction, so at() always finds a slot array.
    void reserve();
    OnlineAggregate& at(StrId key);
    /// SpaceSaving variant: like at(), but a *new* key arriving with
    /// `max_rows` rows already present takes over the minimum-count row
    /// instead of appending — the evicted key's count is inherited and
    /// recorded as the newcomer's count_error, time/byte stats reset, and
    /// the slot array is rebuilt for the key swap. `evictions` counts the
    /// takeovers.
    OnlineAggregate& at_capped(StrId key, std::size_t max_rows, std::uint64_t& evictions);
    void clear() noexcept;

   private:
    void rehash(std::size_t new_slot_count);
  };

  /// One sliding-window bucket: epoch-tagged so stale laps of the ring
  /// reset lazily instead of requiring a sweep.
  struct WindowBucket {
    std::uint64_t epoch = 0;  ///< bucket start / bucket width, +1 (0 = never used)
    std::uint64_t spans = 0;
    Ns gpu_busy = 0;
  };
  static constexpr std::size_t kWindowBuckets = 64;

  /// Credit `spans`/`gpu_busy` to window bucket number `b` in one touch —
  /// observe_shard() run-length batches consecutive same-bucket spans
  /// (the common case: timestamps within a batch are near-monotonic), so
  /// the ring is touched per bucket-run, not per span.
  void record_window_bulk(std::uint64_t b, std::uint64_t spans, Ns gpu_busy);

  OnlineAnalyzerOptions options_;
  /// Window bucket width, rounded up to a power of two so the per-span
  /// bucket computation is a shift, not a division; the shift amount is
  /// what record_window() uses.
  Ns bucket_width_ = 1;
  unsigned bucket_shift_ = 0;

  mutable std::mutex mu_;
  // Everything below is guarded by mu_.
  std::uint64_t spans_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t layer_spans_ = 0;
  std::uint64_t kernel_spans_ = 0;
  std::uint64_t memcpy_spans_ = 0;
  Ns first_begin_ = std::numeric_limits<Ns>::max();
  Ns last_end_ = 0;
  Ns layer_total_ns_ = 0;
  Ns kernel_total_ns_ = 0;
  KeyedTable layer_types_;
  KeyedTable kernels_;
  LatencyHistogram layer_hist_;
  LatencyHistogram kernel_hist_;
  std::array<WindowBucket, kWindowBuckets> window_{};
  std::vector<std::uint64_t> shard_spans_;
  /// Sampling state (still guarded by mu_): the attached policy, the HT
  /// running total, injected publish-layer accounting, and the bounded
  /// kernel table's takeover count.
  std::shared_ptr<const trace::Sampler> sampler_;
  double est_spans_ = 0;
  std::uint64_t sampled_kept_ = 0;
  std::uint64_t sampled_dropped_ = 0;
  std::uint64_t kernel_evictions_ = 0;

  /// Interned annotation keys this analyzer reads from spans. These
  /// mirror profile::span_keys() by string value (equal strings intern to
  /// equal ids — pinned by OnlineKeysMatchSpanKeys); they are re-interned
  /// here so this module needs no profile/cupti dependency.
  struct Keys {
    StrId layer_type{"layer_type"};
    StrId alloc_bytes{"alloc_bytes"};
    StrId kind{"kind"};
    StrId kind_memcpy{"memcpy"};
    StrId dram_read_bytes{"dram_read_bytes"};
    StrId dram_write_bytes{"dram_write_bytes"};
  };
  Keys keys_;

  /// Alert registry, under its own lock so registration/polling never
  /// contends with the observe hot path. `fired` is the edge-trigger
  /// latch: set on crossing, cleared on recovery.
  struct Alert {
    AlertId id = 0;
    AlertRule rule;
    AlertCallback callback;
    bool fired = false;
  };
  std::mutex alert_mu_;
  std::vector<Alert> alerts_;
  AlertId next_alert_id_ = 1;
};

}  // namespace xsp::analysis
