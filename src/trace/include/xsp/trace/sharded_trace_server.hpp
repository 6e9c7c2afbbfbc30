// ShardedTraceServer: N independent TraceServer shards behind one SpanSink.
//
// After the batched publication refactor, one TraceServer per trace was the
// last global aggregation point: every producer's sealed batches funnel
// through a single drain lock and collector thread. Sharding removes it —
// publishers are routed to one of N fully independent servers by a cheap
// selector, so heavy multi-model traffic fans out instead of serializing on
// one collector. This is the paper's "tracing server" run as a small fleet
// (Section III-A: the server may be "on a local or remote system" — here,
// N in-process instances).
//
// Design:
//   * Id uniqueness: shard i of N allocates id blocks striped i, i+N,
//     i+2N, ... (TraceServer::IdStripe), so span ids are unique across the
//     whole fleet with zero cross-shard coordination.
//   * Routing: by publishing thread — keeps a producer's slot, id block,
//     and batch all on one shard. The selector is one thread-local load
//     and a modulo.
//   * Merge: take_batches() concatenates the per-shard batch lists —
//     O(number of batches) handle moves, no span is touched. Ordering is
//     restored downstream: Timeline::assemble begin-orders nodes anyway,
//     so a merged multi-shard trace assembles identically to a
//     single-server trace of the same spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "xsp/trace/span_sink.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {

class ShardedTraceServer final : public SpanSink {
 public:
  /// Hard cap on shard count; beyond this the collector threads themselves
  /// become the contention.
  static constexpr std::size_t kMaxShards = 64;

  /// Default shard count: hardware concurrency, capped at 8 (one collector
  /// per shard in kAsync mode; more shards than cores only adds churn).
  static std::size_t default_shard_count() noexcept;

  /// The shard count a `requested` value resolves to (0 -> default, else
  /// capped at kMaxShards) — what shard_count() will report after
  /// construction with the same request.
  static std::size_t resolve_shard_count(std::size_t requested) noexcept;

  /// `shard_count` 0 means default_shard_count().
  explicit ShardedTraceServer(std::size_t shard_count = 0,
                              PublishMode mode = PublishMode::kAsync);
  ~ShardedTraceServer() override = default;

  ShardedTraceServer(const ShardedTraceServer&) = delete;
  ShardedTraceServer& operator=(const ShardedTraceServer&) = delete;

  /// Fleet-unique span id, allocated from the calling thread's shard. Any
  /// shard's ids are unique across the whole fleet (striped blocks), so id
  /// allocation never needs to match publish routing.
  SpanId next_span_id() noexcept override;

  /// Fleet-wide correlation id (one counter; correlation ids pair launch
  /// and execution spans that may land on different shards).
  std::uint64_t next_correlation_id() noexcept override {
    return next_corr_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Block from the calling thread's shard (fleet-unique, like
  /// next_span_id).
  SpanId next_span_block() noexcept override;

  std::uint64_t next_correlation_block() noexcept override {
    return next_corr_.fetch_add(kIdBlock, std::memory_order_relaxed);
  }

  /// Publish to the calling thread's shard.
  void publish(Span span) override;

  /// Flush every shard.
  void flush();

  /// Total spans aggregated across all shards (flushes first).
  [[nodiscard]] std::size_t span_count();

  /// Sum of the per-shard dropped-annotation aggregates (flushes first).
  [[nodiscard]] std::uint64_t dropped_annotation_count();

  /// Install one admission policy on every shard (nullptr clears). One
  /// shared immutable Sampler serves the whole fleet — the decision is
  /// deterministic in the span, so shard routing cannot change a verdict.
  void set_sampler(std::shared_ptr<const Sampler> sampler);

  /// Sum of the per-shard sampler admissions (flushes first; monotonic).
  [[nodiscard]] std::uint64_t sampled_kept_count();

  /// Sum of the per-shard sampler rejections (flushes first; monotonic).
  [[nodiscard]] std::uint64_t sampled_dropped_count();

  /// The merge step: concatenation of every shard's batch list, cost
  /// O(batches). Span order across shards is arbitrary, exactly as it is
  /// across producer slots of one server; Timeline::assemble orders it.
  [[nodiscard]] SpanBatches take_batches();

  /// Flush and flatten the merged trace (convenience; prefer take_batches).
  [[nodiscard]] std::vector<Span> take_trace();

  /// Distribute recycled batch buffers round-robin across shard freelists.
  void recycle(SpanBatches batches);

  /// A drain subscriber that is also told which shard drained the batches
  /// — the shape shard-aware consumers (online analyzers tracking hot
  /// shards) subscribe with.
  using ShardDrainSubscriber = std::function<void(std::size_t shard, const SpanBatches&)>;

  /// Attach one drain subscriber on every shard — the per-shard exporter
  /// shape: in kAsync mode each shard's collector thread drains its own
  /// producers and pushes into the (thread-safe) subscriber, N writers
  /// funneling into one sink. The subscriber must tolerate concurrent
  /// calls (per-shard drains are serialized, cross-shard drains are not);
  /// StreamingExporter and analysis::OnlineAnalyzer are. Fan-out and
  /// consumer exclusivity follow TraceServer::add_drain_subscriber:
  /// observers unlimited, at most one consumer fleet-wide (a second
  /// kConsume attach throws std::logic_error and leaves no shard
  /// partially subscribed). kConsume keeps every shard's memory bounded
  /// for arbitrarily long traces.
  SubscriberId add_drain_subscriber(DrainSubscriber subscriber,
                                    DrainHandoff handoff = DrainHandoff::kObserve);

  /// Shard-aware overload: the subscriber additionally receives the index
  /// of the shard whose drain pass is delivering.
  SubscriberId add_drain_subscriber(ShardDrainSubscriber subscriber,
                                    DrainHandoff handoff = DrainHandoff::kObserve);

  /// Detach one subscriber from every shard. Unknown ids are a no-op;
  /// synchronizes with in-flight drains on all shards.
  void remove_drain_subscriber(SubscriberId id);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] PublishMode mode() const noexcept { return mode_; }

  /// Direct shard access (tests, per-shard telemetry).
  [[nodiscard]] TraceServer& shard(std::size_t i) noexcept { return *shards_[i]; }

  /// Cumulative spans shard `i` has drained over its lifetime (flushes
  /// that shard first). Unlike span_count() — spans currently *held* —
  /// this is monotonic load telemetry: it keeps advancing while a
  /// kConsume subscriber keeps the shards empty, which is what a serving
  /// layer compares across shards to spot a hot one.
  [[nodiscard]] std::uint64_t span_count(std::size_t shard);

  /// All shards' cumulative drained-span loads, indexed by shard
  /// (flushes every shard first). shard_loads()[i] == span_count(i).
  [[nodiscard]] std::vector<std::uint64_t> shard_loads();

  /// Fleet-wide producer-slot health: sums of the per-shard counters.
  /// Sharding multiplies slot count (a producer thread owns one slot per
  /// shard it touched), which is exactly why a long-lived sharded fleet
  /// needs thread-exit reclamation (see TraceServer).
  [[nodiscard]] std::size_t live_slot_count();
  [[nodiscard]] std::uint64_t retired_slot_count();
  [[nodiscard]] std::size_t pooled_slot_count();
  [[nodiscard]] std::uint64_t approx_slot_bytes();

  /// Toggle thread-exit slot reclamation on every shard (on by default).
  void set_slot_reclamation(bool enabled) noexcept;

  /// Bind every shard's health series to `registry`, each under `labels`
  /// plus a {"shard","<i>"} label — so fleet totals are a PromQL sum over
  /// the shard dimension and a hot shard is visible as its own series.
  /// Same zero-hot-path-cost contract as TraceServer::bind_metrics.
  void bind_metrics(metrics::Registry& registry, const metrics::Labels& labels = {});

  /// The shard index publish() routes the calling thread to. Exposed so
  /// routing is testable.
  [[nodiscard]] std::size_t shard_for_current_thread() const noexcept;

 private:
  /// Attach `make_fn(shard_index)` on every shard, unwinding the shards
  /// already subscribed if a later attach throws (consumer exclusivity).
  SubscriberId add_subscriber_impl(
      const std::function<DrainSubscriber(std::size_t)>& make_fn, DrainHandoff handoff);

  PublishMode mode_;
  std::vector<std::unique_ptr<TraceServer>> shards_;

  /// Fleet-level subscriber registry: one fleet id maps to the per-shard
  /// ids the attach produced (guarded by sub_mu_).
  struct FleetSubscriber {
    SubscriberId id = 0;
    std::vector<SubscriberId> shard_ids;  ///< indexed by shard
  };
  std::mutex sub_mu_;
  std::vector<FleetSubscriber> subscribers_;
  SubscriberId next_subscriber_id_ = 1;

  alignas(64) std::atomic<std::uint64_t> next_corr_{1};
};

}  // namespace xsp::trace
