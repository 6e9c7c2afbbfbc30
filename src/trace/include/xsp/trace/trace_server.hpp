// TraceServer: aggregates spans published by all tracers into one trace.
//
// "Spans are published to a tracing server which is run on a local or remote
//  system. The tracing server aggregates the spans published by the
//  different tracers into one application timeline trace."  — Section III-A
//
// This implementation is in-process but keeps the same publish/aggregate
// interface and supports asynchronous publication ("XSP converts the
// captured CUPTI information into spans and publishes them to the tracer
// server (asynchronously to avoid added overhead)" — Section III-B).
//
// Publication path: instead of one global queue behind one mutex, each
// publishing thread owns a producer slot holding an append-only batch.
// publish() appends to the caller's slot under a slot-private spinlock that
// is uncontended except when the collector steals a batch — there is no
// cross-producer synchronization. Full batches are sealed and handed to the
// collector whole, so the trace mutex is touched once per kBatchCapacity
// spans rather than once per span. flush()/take_trace() semantics: after
// flush() every span published happens-before the call is aggregated.
//
// One server, one drain: the producer slots, the drain pass that empties
// them, the held trace and (kAsync) the collector thread exist once per
// server, as do the id and correlation counters, the sampler and the
// drain-subscriber registry.
//
// Producer-slot lifecycle: a (thread, server) slot is registered on the
// thread's first publish and reclaimed after the thread exits — a TLS
// destructor object weakly marks the thread's slots reclaimable on every
// still-live server it touched (keyed by the process-unique server uid,
// so a dead server is never dereferenced), and the next drain pass sweeps
// it one final time (no span is ever lost), retires it, and parks it on a
// bounded freelist that new producer threads draw from before growing the
// registry. A long-lived server fed by ever-fresh worker threads therefore
// holds O(live threads + kSlotFreelistCapacity) slots instead of O(all
// threads ever).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "xsp/metrics/registry.hpp"
#include "xsp/trace/span.hpp"
#include "xsp/trace/span_sink.hpp"
#include "xsp/trace/trace_meta.hpp"

namespace xsp::trace {

class Sampler;  // sampler.hpp: head-sampling admission policy

namespace detail {
class SlotRegistry;  // trace_server.cpp: uid-keyed weak map of live servers
}

/// Long-lived servers fed by other threads (the collector daemon) run kAsync;
/// a Session runs kSync: it publishes each run in one burst, then drains it.
enum class PublishMode : std::uint8_t {
  kSync,   ///< no collector thread; callers drain batches on flush()
  /// A collector thread drains sealed batches in the background.
  /// The first batch sealed since its last pass wakes it; 50 ms without a
  /// seal makes it sweep partial batches too, so a live producer's trickle
  /// is delivered without a flush().
  kAsync,
};

// SpanBatch/SpanBatches live in span.hpp (shared with Timeline::assemble).

/// What happens to drained batches after a drain subscriber has seen them.
enum class DrainHandoff : std::uint8_t {
  /// Tee: the subscriber observes the batches, which then accumulate in
  /// the server as usual for take_batches()/take_trace(). Memory grows
  /// with the trace — the shape for "stream a copy while also assembling".
  kObserve,
  /// The subscriber *is* the consumer: after the callback returns, the
  /// batches are dropped (their blocks go back to the batch pool) and
  /// never accumulate. Server memory stays bounded regardless of trace
  /// length; take_batches()/take_trace() return nothing while attached.
  kConsume,
};

/// Observes every drained batch list, in the drain pass that moved it out
/// of the producer slots (the collector thread in kAsync, the flushing
/// caller in kSync). Drain passes are serialized, so calls never overlap.
/// Invoked with no slot spinlock held, so publishers
/// keep publishing while the subscriber writes. Should not throw: a
/// throwing subscriber is detached on the spot; if it was the consumer,
/// the drained batches (and all later ones) accumulate in the server as
/// if none were attached — spans are preserved for take_batches(), never
/// re-delivered. The list is mutable only for the kConsume subscriber,
/// which runs last and may move batches out (the server drops what is
/// left); observers take it by const reference.
using DrainSubscriber = std::function<void(SpanBatches&)>;

/// Handle for one attached drain subscriber (remove_drain_subscriber).
/// 0 is never a valid id.
using SubscriberId = std::uint64_t;

/// Thread-safe span sink + aggregator. `final` so calls through a concrete
/// TraceServer reference devirtualize.
class TraceServer final : public SpanSink {
 public:
  /// Spans per producer batch (span.hpp): the granularity at which the
  /// collector takes work and the most a crashing producer could strand.
  static constexpr std::size_t kBatchCapacity = trace::kBatchCapacity;

  /// Retired producer slots the server parks for reuse: a new producer
  /// thread draws a parked slot before growing the registry, so
  /// steady-state thread churn recirculates a handful of slots instead of
  /// allocating ~55KB per short-lived thread. Retired slots beyond the cap
  /// are destroyed outright — the freelist bounds idle slot memory, it is
  /// not a cache of record.
  static constexpr std::size_t kSlotFreelistCapacity = 8;

  explicit TraceServer(PublishMode mode = PublishMode::kAsync);
  ~TraceServer() override;

  TraceServer(const TraceServer&) = delete;
  TraceServer& operator=(const TraceServer&) = delete;

  /// Allocate a fresh server-unique span id (never kNoSpan). Ids are
  /// handed to threads in blocks of 1024, so concurrent tracers touch the
  /// one counter once per 1024 ids; ids are unique but not globally dense.
  SpanId next_span_id() noexcept override;

  /// Allocate a fresh correlation id for an async launch/execution pair.
  std::uint64_t next_correlation_id() noexcept override {
    return next_corr_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Publish one completed span. Thread-safe; appends to the calling
  /// thread's batch without touching any global lock. When a sampler is
  /// attached, the admission decision happens here — before the span costs
  /// a batch slot — and the outcome is counted per slot (sampled_kept /
  /// sampled_dropped) so `published == admitted + sampled_dropped` holds
  /// exactly.
  void publish(const Span& span) override;

  /// Publish a whole batch: it joins the calling thread's slot as one
  /// sealed batch, its spans unmoved, and wakes a kAsync collector as a seal
  /// does. The hand-off for a caller that already holds spans in batches
  /// (the collector, one batch per decoded frame). Annotation drops are
  /// counted as publish() counts them; an attached sampler admits span by
  /// span and the rejected spans are removed, so `published == admitted +
  /// sampled_dropped` holds exactly. Leaves `batch` empty; an empty batch
  /// is a no-op.
  void publish_batch(SpanBatch&& batch);

  /// Attach (or clear, with nullptr) the head-sampling admission policy
  /// consulted by publish(). The hot path reads one raw pointer: with no
  /// sampler attached publication cost is unchanged. Samplers set earlier
  /// stay alive until the server dies, so a publisher racing a
  /// set_sampler() call may use either policy but never a dangling one.
  /// The decision is deterministic in the span, so the publishing thread
  /// cannot change a verdict.
  void set_sampler(std::shared_ptr<const Sampler> sampler);

  /// Lifetime count of spans a sampler admitted at publish (flushes
  /// first). Monotonic; zero when no sampler has ever
  /// been attached.
  [[nodiscard]] std::uint64_t sampled_kept_count();

  /// Lifetime count of spans a sampler rejected at publish (flushes
  /// first). Monotonic. `spans published == sampled_kept + sampled_dropped`
  /// whenever a sampler was attached for the whole run.
  [[nodiscard]] std::uint64_t sampled_dropped_count();

  /// Block until every span published before this call has been aggregated
  /// (drains all sealed and partial batches on the caller thread).
  void flush();

  /// Number of spans aggregated and held so far (flushes first).
  [[nodiscard]] std::size_t span_count();

  /// Total annotations dropped (tag/metric capacity overflow) across all
  /// spans aggregated so far, summed at aggregation time so operators see
  /// fidelity loss without scanning spans (flushes first). Reset by
  /// take_trace()/take_batches() along with the trace itself.
  [[nodiscard]] std::uint64_t dropped_annotation_count();

  /// Flush and move the aggregated trace out, leaving the server empty and
  /// ready for the next evaluation run. Flattens into one contiguous span
  /// vector; prefer take_batches() on the hot path.
  [[nodiscard]] std::vector<Span> take_trace();

  /// Flush and move the aggregated trace out in publication batches — the
  /// zero-copy hand-off Timeline::assemble consumes directly. Span order
  /// across producer slots is arbitrary; Timeline::assemble orders it.
  /// Dropping the result
  /// returns its batch blocks to the batch pool.
  [[nodiscard]] SpanBatches take_batches();

  /// Attach a drain subscriber: the streaming hook. Subscribers observe
  /// batches as they drain instead of a consumer waiting for
  /// take_batches(); any number of kObserve subscribers may be attached
  /// at once (fan-out: a streaming exporter teeing to disk AND an online
  /// analyzer aggregating live), but at most ONE kConsume subscriber —
  /// consuming drops the batches right after all callbacks ran, so two
  /// consumers would each believe they own the stream. Attaching a second
  /// consumer throws std::logic_error.
  ///
  /// Delivery order per drain pass: observers in attach order, the
  /// consumer last. With a consumer attached the publish → seal → drain →
  /// deliver → drop cycle runs in bounded memory for arbitrarily long
  /// traces and take_batches() returns nothing. Attaching/detaching
  /// synchronizes with an in-flight drain; spans already
  /// aggregated before attach are NOT replayed (attach before publishing
  /// starts).
  ///
  /// Returns the id to pass to remove_drain_subscriber().
  SubscriberId add_drain_subscriber(DrainSubscriber subscriber,
                                    DrainHandoff handoff = DrainHandoff::kObserve);

  /// Detach one subscriber. Unknown/already-removed ids are a no-op.
  /// Synchronizes with in-flight drains: after this returns no drain pass
  /// will call the removed subscriber (safe to destroy it).
  void remove_drain_subscriber(SubscriberId id);

  /// Number of currently attached drain subscribers (tests/telemetry).
  [[nodiscard]] std::size_t drain_subscriber_count();

  /// Producer slots currently registered: live publishing
  /// threads plus exited threads whose slots the next drain pass will
  /// retire. The slot health number a long-lived server watches — it must
  /// track live producers, not cumulative thread history.
  [[nodiscard]] std::size_t live_slot_count();

  /// Cumulative slots retired by drain sweeps over this server's
  /// lifetime (monotonic; one retirement per exited producer thread).
  [[nodiscard]] std::uint64_t retired_slot_count();

  /// Retired slots currently parked for reuse (<= kSlotFreelistCapacity).
  [[nodiscard]] std::size_t pooled_slot_count();

  /// Approximate bytes resident in producer slots, live and parked:
  /// struct plus active/sealed batch capacities. The ~55KB-per-slot
  /// figure operators size serving fleets with.
  [[nodiscard]] std::uint64_t approx_slot_bytes();

  /// The run telemetry the server can report, after one flush: annotation
  /// drops, slot health, sampler counts, and the process-wide StringTable
  /// fields. Callers fill what they own (remote_* fields,
  /// per-run deltas).
  [[nodiscard]] TraceMeta meta();

  /// Register the server's health series with a metrics registry under
  /// `labels`. Every field meta() reads from the server's own counters is
  /// one series, xsp_trace_<key> (plus _total for a counter) with its
  /// kMetaFields help text, and xsp_trace_drained_spans_total counts the
  /// spans drained out of the producer slots. The series
  /// are callback-backed reads of counters the server already maintains,
  /// so the publish hot path gains ZERO new instructions; values advance
  /// at drain cadence (they are sampled without forcing a flush). The one
  /// new measurement is a drain-pass wall-time histogram
  /// (xsp_trace_drain_duration_ns), observed once per pass — nanoseconds
  /// per hundreds of spans. The process-wide batch pool is one more
  /// series, xsp_trace_batch_pool_bytes.
  /// Rebinding replaces the previous binding; the binding is removed when
  /// either the server or the registry dies first (handles are weak).
  void bind_metrics(metrics::Registry& registry, const metrics::Labels& labels = {});

 private:
  struct ProducerSlot;  // one publishing thread's batch head
  struct Subscriber;    // one drain_subscribers_ entry
  struct MetaRow;       // a TraceMeta field the server's own counters produce
  /// Every such field: meta() reads each, bind_metrics() exposes each.
  static const MetaRow kMetaRows[];

  /// The calling thread's slot for this server (registered on first use,
  /// cached thread-locally keyed by a process-unique server uid so slot
  /// pointers never dangle across server lifetimes). First use also
  /// registers the thread's exit hook (a TLS destructor object) so the
  /// slot is reclaimed when the thread dies.
  ProducerSlot& local_slot();

  /// Find-or-register the slot for thread `thread_key` (drawing a parked
  /// retired slot before allocating). `resurrect` is the
  /// publish-after-exit-hook path: un-mark a still-registered slot so a
  /// concurrent drain cannot retire it out from under the caller.
  ProducerSlot& register_slot(std::uint64_t thread_key, bool resurrect);

  /// Called (via detail::SlotRegistry, which pins this server alive for
  /// the duration) when a producer thread exits: mark its slot
  /// reclaimable and nudge the collector so retirement is prompt.
  void note_thread_exit(std::uint64_t thread_key);
  friend class detail::SlotRegistry;

  /// Hand one drain pass's batches to the subscribers; true when the
  /// consumer took them. Caller holds drain_mu_.
  bool deliver(SpanBatches& batches);

  /// Count one unit of collector work (a sealed batch or a retiring
  /// slot); the first since the collector's last pass wakes it.
  void wake();
  void collector_loop();
  /// Move sealed (and, when `steal_active`, partial) batches of every slot
  /// into the held trace.
  void drain(bool steal_active);

  const PublishMode mode_;
  const std::uint64_t uid_;

  alignas(64) std::mutex registry_mu_;
  std::vector<std::unique_ptr<ProducerSlot>> slots_;
  /// Retired slots parked for reuse (bounded by kSlotFreelistCapacity).
  std::vector<std::unique_ptr<ProducerSlot>> free_slots_;
  /// Lifetime count of slot retirements.
  std::uint64_t retired_slots_ = 0;

  /// Serializes whole drain passes (slot sweep + trace append). Without
  /// it, a flush could sweep the slots while a concurrent collector pass
  /// still holds swept batches in its local staging — and hand the trace
  /// off incomplete. Also guards the subscriber registry.
  alignas(64) std::mutex drain_mu_;
  /// Drain staging, reused across passes (guarded by drain_mu_).
  SpanBatches staging_;
  /// Drain-pass wall-time histogram (bind_metrics); null when unbound,
  /// so an unbound pass costs one relaxed load.
  std::atomic<metrics::Histogram*> drain_hist_{nullptr};

  alignas(64) std::mutex trace_mu_;
  SpanBatches trace_;
  std::uint64_t dropped_total_ = 0;
  /// Lifetime total of spans drained out of the producer slots. Atomic so
  /// telemetry reads race-free against a collector mid-drain.
  std::atomic<std::uint64_t> drained_spans_{0};
  /// Lifetime sampler admission counters, aggregated from the per-slot
  /// counts at drain (atomic for the same reason as drained_spans_).
  std::atomic<std::uint64_t> sampled_kept_{0};
  std::atomic<std::uint64_t> sampled_dropped_{0};

  alignas(64) std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<std::size_t> pending_batches_{0};

  /// Id counters are hammered by every producer; isolate them from the
  /// read-mostly fields around them so RMWs never evict those lines.
  alignas(64) std::atomic<std::uint64_t> next_block_{0};
  std::atomic<std::uint64_t> next_corr_{1};

  /// Admission policy. The hot path loads the raw pointer (acquire); the
  /// shared_ptrs in sampler_refs_ keep every policy ever set alive so the
  /// raw pointer can never dangle mid-publish (set_sampler is a rare
  /// configuration action — retaining superseded policies is cheap).
  alignas(64) std::atomic<const Sampler*> sampler_ptr_{nullptr};
  std::mutex sampler_mu_;
  std::vector<std::shared_ptr<const Sampler>> sampler_refs_;

  /// The drain-subscriber registry, read by a drain pass and changed by
  /// add/remove under drain_mu_, so attach/detach synchronize with an
  /// in-flight drain and consumer exclusivity is one check. Observers fan
  /// out in attach order; at most one entry has kConsume and it is kept
  /// last.
  std::vector<std::unique_ptr<Subscriber>> subscribers_;
  SubscriberId next_subscriber_id_ = 1;

  std::atomic<bool> stop_{false};

  /// Self-metrics binding (bind_metrics). drain_hist_refs_ keeps every
  /// histogram ever bound alive (the retain-superseded idiom of
  /// sampler_refs_, so a drain racing a rebind can never observe a
  /// dangling pointer). The callback handles are cleared first thing in
  /// the destructor, which synchronizes with any in-flight scrape on the
  /// registry lock, so a sample can never touch a dying server.
  std::mutex metrics_mu_;
  std::vector<std::shared_ptr<metrics::Histogram>> drain_hist_refs_;
  std::vector<metrics::CallbackHandle> metrics_cbs_;

  /// Started last, in the constructor body, once every member above exists.
  std::thread collector_;
};

}  // namespace xsp::trace
