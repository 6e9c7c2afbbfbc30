#include "xsp/analysis/online.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "xsp/trace/export.hpp"

namespace xsp::analysis {

namespace {

/// a + b for durations (both >= 0), saturated at the largest Ns: a decoded
/// span may last up to that, and sums of such spans must not overflow.
Ns add_saturated(Ns a, Ns b) noexcept {
  Ns sum;
  return __builtin_add_overflow(a, b, &sum) ? std::numeric_limits<Ns>::max() : sum;
}

/// Distinct keys each keyed table is pre-sized for, a power of two. Growth
/// past this allocates (amortized, on new-key insert only); steady state —
/// no new keys — never allocates.
constexpr std::size_t kExpectedKeys = 64;

}  // namespace

// ------------------------------------------------------------------------
// LatencyHistogram

std::size_t LatencyHistogram::bucket_index(Ns d) noexcept {
  const std::uint64_t u = d > 0 ? static_cast<std::uint64_t>(d) : 0;
  if (u < kSubCount) return static_cast<std::size_t>(u);
  // Octave = position of the leading bit; the next kSubBits bits pick the
  // linear sub-bucket, the remaining low bits are truncated — so a
  // bucket's width is 1/kSubCount of its value, the error bound.
  const unsigned e = static_cast<unsigned>(std::bit_width(u)) - 1 - kSubBits;
  return ((static_cast<std::size_t>(e) + 1) << kSubBits) |
         static_cast<std::size_t>((u >> e) & (kSubCount - 1));
}

Ns LatencyHistogram::bucket_upper_bound(std::size_t index) noexcept {
  if (index < kSubCount) return static_cast<Ns>(index);
  const unsigned e = static_cast<unsigned>(index >> kSubBits) - 1;
  const std::uint64_t sub = index & (kSubCount - 1);
  const std::uint64_t lower = (kSubCount + sub) << e;
  return static_cast<Ns>(lower + ((std::uint64_t{1} << e) - 1));
}

Ns LatencyHistogram::percentile(double p) const noexcept {
  if (total_ == 0) return 0;
  const double clamped = p < 0 ? 0 : (p > 100 ? 100 : p);
  std::uint64_t target =
      static_cast<std::uint64_t>(std::ceil(clamped / 100.0 * static_cast<double>(total_)));
  if (target == 0) target = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += counts_[i];
    if (cumulative >= target) return bucket_upper_bound(i);
  }
  return bucket_upper_bound(kBucketCount - 1);
}

// ------------------------------------------------------------------------
// KeyedTable

namespace {

std::size_t key_hash(StrId key) noexcept {
  // StrIds are dense small integers; a multiplicative mix spreads them
  // over the high bits before masking.
  return static_cast<std::size_t>((key.raw() * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

void OnlineAnalyzer::KeyedTable::reserve() {
  slots.assign(2 * kExpectedKeys, 0);
  rows.reserve(kExpectedKeys);
}

void OnlineAnalyzer::KeyedTable::rehash(std::size_t new_slot_count) {
  slots.assign(new_slot_count, 0);
  const std::size_t mask = new_slot_count - 1;
  for (std::uint32_t r = 0; r < rows.size(); ++r) {
    std::size_t i = key_hash(rows[r].key) & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = r + 1;
  }
}

OnlineAggregate& OnlineAnalyzer::KeyedTable::at(StrId key) {
  std::size_t mask = slots.size() - 1;
  std::size_t i = key_hash(key) & mask;
  while (slots[i] != 0) {
    OnlineAggregate& row = rows[slots[i] - 1];
    if (row.key == key) return row;
    i = (i + 1) & mask;
  }
  // New key. Keep load under 3/4 so probes stay short; growth only ever
  // happens here — a steady-state stream (no new keys) never reaches it.
  if ((rows.size() + 1) * 4 >= slots.size() * 3) {
    rehash(slots.size() * 2);
    mask = slots.size() - 1;
    i = key_hash(key) & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
  }
  OnlineAggregate row;
  row.key = key;
  rows.push_back(row);
  slots[i] = static_cast<std::uint32_t>(rows.size());
  return rows.back();
}

OnlineAggregate& OnlineAnalyzer::KeyedTable::at_capped(StrId key, std::size_t max_rows,
                                                       std::uint64_t& evictions) {
  std::size_t mask = slots.size() - 1;
  std::size_t i = key_hash(key) & mask;
  while (slots[i] != 0) {
    OnlineAggregate& row = rows[slots[i] - 1];
    if (row.key == key) return row;
    i = (i + 1) & mask;
  }
  if (max_rows == 0 || rows.size() < max_rows) {
    // Under the cap: identical to at()'s append path.
    if ((rows.size() + 1) * 4 >= slots.size() * 3) {
      rehash(slots.size() * 2);
      mask = slots.size() - 1;
      i = key_hash(key) & mask;
      while (slots[i] != 0) i = (i + 1) & mask;
    }
    OnlineAggregate row;
    row.key = key;
    rows.push_back(row);
    slots[i] = static_cast<std::uint32_t>(rows.size());
    return rows.back();
  }
  // SpaceSaving takeover: the newcomer seizes the minimum-count row,
  // inheriting its count (and HT estimate) as the standard overestimate —
  // recorded in count_error so readers know the bound. A true heavy
  // hitter's count always exceeds every minimum it could seize, so it can
  // never be evicted once established. The linear victim scan is O(cap)
  // but runs only on *new-key-while-full*, which a heavy-hitter-skewed
  // stream makes rare; the slot rebuild for the key swap is O(cap) too.
  ++evictions;
  std::size_t victim = 0;
  for (std::size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].count < rows[victim].count) victim = r;
  }
  OnlineAggregate& row = rows[victim];
  const std::uint64_t inherited_count = row.count;
  const double inherited_est = row.est_count;
  row = OnlineAggregate{};
  row.key = key;
  row.count = inherited_count;
  row.est_count = inherited_est;
  row.count_error = inherited_count;
  rehash(slots.size());
  return row;
}

void OnlineAnalyzer::KeyedTable::clear() noexcept {
  std::fill(slots.begin(), slots.end(), 0);
  rows.clear();
}

// ------------------------------------------------------------------------
// OnlineAnalyzer

OnlineAnalyzer::OnlineAnalyzer(OnlineAnalyzerOptions options) : options_(options) {
  if (options_.shard_count == 0) options_.shard_count = 1;
  if (options_.window <= 0) options_.window = 100 * kNsPerMs;
  const Ns ideal_width = options_.window / static_cast<Ns>(kWindowBuckets);
  bucket_shift_ = ideal_width > 1
                      ? static_cast<unsigned>(
                            std::bit_width(static_cast<std::uint64_t>(ideal_width) - 1))
                      : 0;
  bucket_width_ = Ns{1} << bucket_shift_;
  layer_types_.reserve();
  kernels_.reserve();
  shard_spans_.assign(options_.shard_count, 0);
}

void OnlineAnalyzer::set_window(Ns window) {
  if (window <= 0) return;
  std::lock_guard lk(mu_);
  if (window == options_.window) return;
  options_.window = window;
  const Ns ideal_width = options_.window / static_cast<Ns>(kWindowBuckets);
  bucket_shift_ = ideal_width > 1
                      ? static_cast<unsigned>(
                            std::bit_width(static_cast<std::uint64_t>(ideal_width) - 1))
                      : 0;
  bucket_width_ = Ns{1} << bucket_shift_;
  // Ring epochs are keyed by bucket number, which just changed meaning:
  // drop the (windowed, transient) ring rather than misattribute it. The
  // cumulative aggregates are untouched — reconfiguring the window must
  // not reset a service's lifetime stats.
  window_.fill(WindowBucket{});
}

void OnlineAnalyzer::ensure_shard_count(std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  std::lock_guard lk(mu_);
  if (shard_count > shard_spans_.size()) shard_spans_.resize(shard_count, 0);
  if (shard_count > options_.shard_count) options_.shard_count = shard_count;
}

void OnlineAnalyzer::record_window_bulk(std::uint64_t b, std::uint64_t spans, Ns gpu_busy) {
  WindowBucket& bucket = window_[b % kWindowBuckets];
  if (bucket.epoch != b + 1) {
    // A span older than a full ring lap must not clobber a newer bucket
    // (cross-shard arrival order is arbitrary); it is outside any window
    // we would still report, so drop it.
    if (bucket.epoch > b + 1) return;
    bucket.epoch = b + 1;
    bucket.spans = 0;
    bucket.gpu_busy = 0;
  }
  bucket.spans += spans;
  bucket.gpu_busy = add_saturated(bucket.gpu_busy, gpu_busy);
}

void OnlineAnalyzer::observe_shard(std::size_t shard, const trace::SpanBatches& batches) {
  using trace::SpanKind;
  std::lock_guard lk(mu_);
  // Hot loop: keys and scalar accumulators live in locals so the compiler
  // does not reload members through `this` after every aggregate write
  // (aliasing it cannot disprove); they are written back once per call.
  const Keys keys = keys_;
  const trace::Sampler* sampler = sampler_.get();
  const std::size_t kernel_cap = options_.max_kernel_rows;
  Ns first_begin = first_begin_;
  Ns last_end = last_end_;
  Ns layer_total = 0;
  Ns kernel_total = 0;
  std::uint64_t layer_spans = 0;
  std::uint64_t kernel_spans = 0;
  std::uint64_t memcpy_spans = 0;
  std::uint64_t observed = 0;
  double est = 0;
  // Window run-length accumulator: consecutive spans almost always land
  // in the same (coarse) window bucket, so fold them locally and touch
  // the ring once per run.
  std::uint64_t run_bucket = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t run_spans = 0;
  Ns run_gpu = 0;
  const unsigned bucket_shift = bucket_shift_;
  for (const auto& batch : batches) {
    if (batch.empty()) continue;
    ++batches_;
    observed += batch.size();
    for (const trace::Span& s : batch) {
      const Ns dur = std::max(s.duration(), Ns{0});
      if (s.begin < first_begin) first_begin = s.begin;
      if (s.end > last_end) last_end = s.end;
      // Horvitz-Thompson weight: an admitted span stands in for
      // 1/effective_rate pre-sampling spans. 1.0 without a sampler, so
      // est fields stay exactly equal to the exact fields on unsampled
      // streams (pinned by the sampled-vs-oracle suite).
      double w = 1.0;
      if (sampler != nullptr) {
        const double r = sampler->effective_rate(s);
        if (r > 0 && r < 1.0) w = 1.0 / r;
      }
      est += w;
      Ns gpu_busy = 0;
      if (s.level == trace::kLayerLevel && s.kind == SpanKind::kRegular) {
        ++layer_spans;
        layer_total = add_saturated(layer_total, dur);
        layer_hist_.record(dur);
        StrId type = s.tag_or(keys.layer_type);
        if (type.empty()) type = s.name;  // generic traces without layer_type tags
        OnlineAggregate& agg = layer_types_.at(type);
        ++agg.count;
        agg.total_ns = add_saturated(agg.total_ns, dur);
        if (dur < agg.min_ns) agg.min_ns = dur;
        if (dur > agg.max_ns) agg.max_ns = dur;
        agg.bytes += s.metric_or(keys.alloc_bytes, 0.0);
        agg.est_count += w;
        agg.est_total_ns += w * static_cast<double>(dur);
      } else if (s.level == trace::kKernelLevel && s.kind == SpanKind::kExecution) {
        if (s.tag_or(keys.kind) == keys.kind_memcpy) {
          ++memcpy_spans;
        } else {
          ++kernel_spans;
          kernel_total = add_saturated(kernel_total, dur);
          kernel_hist_.record(dur);
          gpu_busy = dur;
          OnlineAggregate& agg = kernel_cap > 0
                                     ? kernels_.at_capped(s.name, kernel_cap, kernel_evictions_)
                                     : kernels_.at(s.name);
          ++agg.count;
          agg.total_ns = add_saturated(agg.total_ns, dur);
          if (dur < agg.min_ns) agg.min_ns = dur;
          if (dur > agg.max_ns) agg.max_ns = dur;
          // One pass for both DRAM counters instead of two find()s.
          double dram = 0;
          for (const auto& e : s.metrics) {
            if (e.key == keys.dram_read_bytes || e.key == keys.dram_write_bytes) {
              dram += e.value;
            }
          }
          agg.bytes += dram;
          agg.est_count += w;
          agg.est_total_ns += w * static_cast<double>(dur);
        }
      }
      const std::uint64_t b =
          static_cast<std::uint64_t>(s.end > 0 ? s.end : 0) >> bucket_shift;
      if (b != run_bucket) {
        if (run_spans != 0) record_window_bulk(run_bucket, run_spans, run_gpu);
        run_bucket = b;
        run_spans = 0;
        run_gpu = 0;
      }
      ++run_spans;
      run_gpu = add_saturated(run_gpu, gpu_busy);
    }
  }
  if (run_spans != 0) record_window_bulk(run_bucket, run_spans, run_gpu);
  first_begin_ = first_begin;
  last_end_ = last_end;
  layer_total_ns_ = add_saturated(layer_total_ns_, layer_total);
  kernel_total_ns_ = add_saturated(kernel_total_ns_, kernel_total);
  layer_spans_ += layer_spans;
  kernel_spans_ += kernel_spans;
  memcpy_spans_ += memcpy_spans;
  spans_ += observed;
  est_spans_ += est;
  shard_spans_[shard < shard_spans_.size() ? shard : shard_spans_.size() - 1] += observed;
}

void OnlineAnalyzer::set_sampler(std::shared_ptr<const trace::Sampler> sampler) {
  std::lock_guard lk(mu_);
  sampler_ = std::move(sampler);
}

void OnlineAnalyzer::set_sampling_accounting(std::uint64_t kept, std::uint64_t dropped) {
  std::lock_guard lk(mu_);
  sampled_kept_ = kept;
  sampled_dropped_ = dropped;
}

namespace {

/// Descending total time, ties broken lexicographically by key text — the
/// same presentation order the offline analyses use.
void sort_rows(std::vector<OnlineAggregate>& rows) {
  std::sort(rows.begin(), rows.end(), [](const OnlineAggregate& a, const OnlineAggregate& b) {
    if (a.total_ns != b.total_ns) return a.total_ns > b.total_ns;
    return a.key < b.key;
  });
}

}  // namespace

OnlineSnapshot OnlineAnalyzer::snapshot() const {
  OnlineSnapshot snap;
  {
    std::lock_guard lk(mu_);
    snap.spans = spans_;
    snap.batches = batches_;
    snap.layer_spans = layer_spans_;
    snap.kernel_spans = kernel_spans_;
    snap.memcpy_spans = memcpy_spans_;
    snap.first_begin = spans_ > 0 ? first_begin_ : 0;
    snap.last_end = last_end_;
    snap.layer_total_ns = layer_total_ns_;
    snap.kernel_total_ns = kernel_total_ns_;
    snap.layer_types = layer_types_.rows;
    snap.kernels = kernels_.rows;
    snap.layer_p50 = layer_hist_.percentile(50);
    snap.layer_p95 = layer_hist_.percentile(95);
    snap.layer_p99 = layer_hist_.percentile(99);
    snap.kernel_p50 = kernel_hist_.percentile(50);
    snap.kernel_p95 = kernel_hist_.percentile(95);
    snap.kernel_p99 = kernel_hist_.percentile(99);
    snap.window = options_.window;
    const Ns window_start = last_end_ - options_.window;
    std::uint64_t window_spans = 0;
    Ns window_gpu = 0;
    for (const WindowBucket& bucket : window_) {
      if (bucket.epoch == 0) continue;
      const Ns start = static_cast<Ns>(bucket.epoch - 1) * bucket_width_;
      // A bucket counts while any part of it overlaps the window ending
      // at the newest timestamp seen.
      if (start > window_start - bucket_width_ && start <= last_end_) {
        window_spans += bucket.spans;
        window_gpu = add_saturated(window_gpu, bucket.gpu_busy);
      }
    }
    snap.window_spans_per_sec =
        static_cast<double>(window_spans) / to_seconds(options_.window);
    snap.window_gpu_busy_pct =
        100.0 * static_cast<double>(window_gpu) / static_cast<double>(options_.window);
    snap.shard_spans = shard_spans_;
    snap.est_spans = est_spans_;
    snap.sampling_rate = sampler_ != nullptr ? sampler_->options().rate : 1.0;
    snap.sampled_kept = sampled_kept_;
    snap.sampled_dropped = sampled_dropped_;
    snap.kernel_row_limit = options_.max_kernel_rows;
    snap.kernel_evictions = kernel_evictions_;
  }
  snap.gpu_pct = snap.layer_total_ns > 0
                     ? 100.0 * static_cast<double>(snap.kernel_total_ns) /
                           static_cast<double>(snap.layer_total_ns)
                     : 0;
  sort_rows(snap.layer_types);
  sort_rows(snap.kernels);
  const auto& table = common::StringTable::global();
  snap.interned_strings = table.size();
  snap.interned_bytes = table.approx_bytes();
  snap.strtab_budget_bytes = table.budget_bytes();
  snap.rejected_interns = table.rejected_interns();
  return snap;
}

void OnlineAnalyzer::reset() {
  std::lock_guard lk(mu_);
  spans_ = batches_ = layer_spans_ = kernel_spans_ = memcpy_spans_ = 0;
  first_begin_ = std::numeric_limits<Ns>::max();
  last_end_ = 0;
  layer_total_ns_ = kernel_total_ns_ = 0;
  layer_types_.clear();
  kernels_.clear();
  layer_hist_.clear();
  kernel_hist_.clear();
  window_.fill(WindowBucket{});
  std::fill(shard_spans_.begin(), shard_spans_.end(), 0);
  // Sampling state: the accumulators reset; the attached policy survives
  // (reset() forgets history, not configuration).
  est_spans_ = 0;
  sampled_kept_ = 0;
  sampled_dropped_ = 0;
  kernel_evictions_ = 0;
}

// ------------------------------------------------------------------------
// Alerts

AlertId OnlineAnalyzer::add_alert(AlertRule rule, AlertCallback callback) {
  std::lock_guard lk(alert_mu_);
  const AlertId id = next_alert_id_++;
  alerts_.push_back(Alert{id, std::move(rule), std::move(callback), false});
  return id;
}

void OnlineAnalyzer::remove_alert(AlertId id) {
  std::lock_guard lk(alert_mu_);
  alerts_.erase(std::remove_if(alerts_.begin(), alerts_.end(),
                               [id](const Alert& a) { return a.id == id; }),
                alerts_.end());
}

std::size_t OnlineAnalyzer::poll_alerts() {
  // One snapshot per poll: every rule sees the same consistent state, and
  // rule extractors never run under the analyzer's aggregate lock. The
  // fired-latch update holds only alert_mu_; callbacks run after it drops
  // so they may freely call snapshot(), add_alert(), or remove_alert().
  const OnlineSnapshot snap = snapshot();
  struct Firing {
    AlertRule rule;
    AlertCallback callback;
    double value;
  };
  std::vector<Firing> firings;
  {
    std::lock_guard lk(alert_mu_);
    for (Alert& a : alerts_) {
      if (!a.rule.value) continue;
      const double v = a.rule.value(snap);
      const bool crossed = a.rule.fire_above ? v > a.rule.threshold : v < a.rule.threshold;
      if (crossed && !a.fired) {
        a.fired = true;
        firings.push_back(Firing{a.rule, a.callback, v});
      } else if (!crossed && a.fired) {
        a.fired = false;  // recovered: re-arm for the next excursion
      }
    }
  }
  for (const Firing& f : firings) {
    if (f.callback) f.callback(f.rule, f.value, snap);
  }
  return firings.size();
}

// ------------------------------------------------------------------------
// Snapshot helpers

double shard_imbalance(const std::vector<std::uint64_t>& shard_spans) {
  if (shard_spans.empty()) return 0;
  std::uint64_t max = 0;
  std::uint64_t total = 0;
  for (const std::uint64_t v : shard_spans) {
    max = std::max(max, v);
    total += v;
  }
  if (total == 0) return 0;
  const double mean = static_cast<double>(total) / static_cast<double>(shard_spans.size());
  return static_cast<double>(max) / mean;
}

namespace {

// Numbers for the JSON summary: integers exact, doubles shortest
// round-trip. Strings are escaped as exported span text is.

void append_uint(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_int(std::string& out, std::int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
#if defined(__cpp_lib_to_chars)
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
#else
  char buf[32];
  out.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof buf, "%.17g", v)));
#endif
}

void append_rows(std::string& out, const std::vector<OnlineAggregate>& rows,
                 std::size_t max_rows) {
  out += '[';
  const std::size_t n = std::min(rows.size(), max_rows);
  for (std::size_t i = 0; i < n; ++i) {
    const OnlineAggregate& row = rows[i];
    if (i != 0) out += ',';
    out += "{\"key\":";
    trace::append_json_string(out, row.key.view());
    out += ",\"count\":";
    append_uint(out, row.count);
    out += ",\"total_ns\":";
    append_int(out, row.total_ns);
    out += ",\"min_ns\":";
    append_int(out, row.count > 0 ? row.min_ns : 0);
    out += ",\"max_ns\":";
    append_int(out, row.max_ns);
    out += ",\"bytes\":";
    append_double(out, row.bytes);
    out += ",\"est_count\":";
    append_double(out, row.est_count);
    out += ",\"count_error\":";
    append_uint(out, row.count_error);
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string online_summary_json(const OnlineSnapshot& snap, std::size_t max_rows) {
  std::string out;
  out.reserve(1024);
  out += "{\"spans\":";
  append_uint(out, snap.spans);
  out += ",\"batches\":";
  append_uint(out, snap.batches);
  out += ",\"layer_spans\":";
  append_uint(out, snap.layer_spans);
  out += ",\"kernel_spans\":";
  append_uint(out, snap.kernel_spans);
  out += ",\"memcpy_spans\":";
  append_uint(out, snap.memcpy_spans);
  out += ",\"layer_total_ns\":";
  append_int(out, snap.layer_total_ns);
  out += ",\"kernel_total_ns\":";
  append_int(out, snap.kernel_total_ns);
  out += ",\"gpu_pct\":";
  append_double(out, snap.gpu_pct);
  out += ",\"layer_p50_ns\":";
  append_int(out, snap.layer_p50);
  out += ",\"layer_p95_ns\":";
  append_int(out, snap.layer_p95);
  out += ",\"layer_p99_ns\":";
  append_int(out, snap.layer_p99);
  out += ",\"kernel_p50_ns\":";
  append_int(out, snap.kernel_p50);
  out += ",\"kernel_p95_ns\":";
  append_int(out, snap.kernel_p95);
  out += ",\"kernel_p99_ns\":";
  append_int(out, snap.kernel_p99);
  out += ",\"window_ns\":";
  append_int(out, snap.window);
  out += ",\"window_spans_per_sec\":";
  append_double(out, snap.window_spans_per_sec);
  out += ",\"window_gpu_busy_pct\":";
  append_double(out, snap.window_gpu_busy_pct);
  out += ",\"shard_spans\":[";
  for (std::size_t i = 0; i < snap.shard_spans.size(); ++i) {
    if (i != 0) out += ',';
    append_uint(out, snap.shard_spans[i]);
  }
  out += "],\"shard_imbalance\":";
  append_double(out, shard_imbalance(snap.shard_spans));
  out += ",\"est_spans\":";
  append_double(out, snap.est_spans);
  out += ",\"sampling_rate\":";
  append_double(out, snap.sampling_rate);
  out += ",\"sampled_kept\":";
  append_uint(out, snap.sampled_kept);
  out += ",\"sampled_dropped\":";
  append_uint(out, snap.sampled_dropped);
  out += ",\"kernel_evictions\":";
  append_uint(out, snap.kernel_evictions);
  out += ",\"layer_types\":";
  append_rows(out, snap.layer_types, max_rows);
  out += ",\"kernels\":";
  append_rows(out, snap.kernels, max_rows);
  out += '}';
  return out;
}

}  // namespace xsp::analysis
