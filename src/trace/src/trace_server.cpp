#include "xsp/trace/trace_server.hpp"

#include "xsp/trace/sampler.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

namespace xsp::trace {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t next_server_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

namespace detail {

/// Process-wide map of live servers keyed by their process-unique uid —
/// the weak link between a thread-exit hook and the servers the thread
/// published to. Keying on the uid (never reused) rather than the server
/// address (readily reused by the allocator) is what makes the hook safe
/// to run after any subset of its servers has died: a dead server simply
/// is not in the map, and a new server at the old address has a new uid.
///
/// The singleton is leaked on purpose: the main thread's TLS destructors
/// can run while static destruction is already under way (and a
/// static-storage TraceServer can die before or after them, in either
/// order), so the registry must stay valid to the very end of the
/// process.
class SlotRegistry {
 public:
  static SlotRegistry& instance() {
    static SlotRegistry* leaked = new SlotRegistry;
    return *leaked;
  }

  void add(std::uint64_t uid, TraceServer* server) {
    std::lock_guard lk(mu_);
    servers_.emplace(uid, server);
  }

  void remove(std::uint64_t uid) {
    std::lock_guard lk(mu_);
    servers_.erase(uid);
  }

  /// Drop uids whose server is gone. Bounds a long-lived thread's
  /// touched-uid list to the servers still alive: without pruning, a
  /// thread outliving many short-lived servers would accrete dead uids
  /// forever and walk them all at exit while holding mu_.
  void prune_dead(std::vector<std::uint64_t>& uids) {
    std::lock_guard lk(mu_);
    uids.erase(std::remove_if(uids.begin(), uids.end(),
                              [this](std::uint64_t uid) {
                                return servers_.find(uid) == servers_.end();
                              }),
               uids.end());
  }

  /// Thread-exit hook body: mark `thread_key`'s slot reclaimable on every
  /// still-live server among `uids`. Holding mu_ pins each server —
  /// ~TraceServer blocks in remove() until the marking is done, so the
  /// mapped pointers cannot dangle mid-call.
  void thread_exited(std::uint64_t thread_key, const std::vector<std::uint64_t>& uids) {
    std::lock_guard lk(mu_);
    for (const std::uint64_t uid : uids) {
      if (auto it = servers_.find(uid); it != servers_.end()) {
        it->second->note_thread_exit(thread_key);
      }
    }
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::uint64_t, TraceServer*> servers_;
};

}  // namespace detail

/// Slots are cache-line aligned: a producer's spinlock and batch head
/// never share a line with another producer's.
struct alignas(64) TraceServer::ProducerSlot {
  /// Guards everything below. Only the owning thread and the drain ever
  /// touch a slot, so this spinlock is effectively uncontended on the
  /// publish path.
  std::atomic_flag lock = ATOMIC_FLAG_INIT;
  SpanBatch active;
  SpanBatches sealed;
  /// Annotation drops published through this slot since the last drain;
  /// aggregated into the server's counter when batches are taken.
  std::uint64_t dropped = 0;
  /// Sampler admissions/rejections through this slot since the last
  /// drain; aggregated into the server's lifetime counters exactly like
  /// `dropped` above.
  std::uint64_t sampled_kept = 0;
  std::uint64_t sampled_dropped = 0;
  /// Stable key of the owning thread: re-registration after a TLS cache
  /// eviction finds this slot again instead of growing the registry.
  std::uint64_t owner = 0;
  /// Set (under the slot spinlock) by the owning thread's exit hook;
  /// the next drain pass sweeps the slot one final time and retires it.
  /// Cleared if the exited thread publishes again from a later TLS
  /// destructor — the slot is resurrected rather than torn from under
  /// an in-flight publish.
  bool reclaimable = false;

  void acquire() noexcept {
    int spins = 0;
    while (lock.test_and_set(std::memory_order_acquire)) {
      // The holder is the collector moving batch handles (sub-µs) — spin
      // briefly, then yield so an oversubscribed core can run the holder.
      if (++spins > 64) std::this_thread::yield();
    }
  }
  void release() noexcept { lock.clear(std::memory_order_release); }
};

/// A TraceMeta field the server produces, read from its own counters
/// without flushing.
struct TraceServer::MetaRow {
  std::uint64_t TraceMeta::*member;
  std::uint64_t (*read)(TraceServer&);
};

const TraceServer::MetaRow TraceServer::kMetaRows[] = {
    {&TraceMeta::dropped_annotations,
     [](TraceServer& s) {
       std::lock_guard lk(s.trace_mu_);
       return s.dropped_total_;
     }},
    {&TraceMeta::live_slots, [](TraceServer& s) -> std::uint64_t { return s.live_slot_count(); }},
    {&TraceMeta::retired_slots, [](TraceServer& s) { return s.retired_slot_count(); }},
    {&TraceMeta::slot_bytes, [](TraceServer& s) { return s.approx_slot_bytes(); }},
    {&TraceMeta::sampled_kept,
     [](TraceServer& s) { return s.sampled_kept_.load(std::memory_order_relaxed); }},
    {&TraceMeta::sampled_dropped,
     [](TraceServer& s) { return s.sampled_dropped_.load(std::memory_order_relaxed); }},
};

struct TraceServer::Subscriber {
  SubscriberId id = 0;
  DrainSubscriber fn;
  DrainHandoff handoff = DrainHandoff::kObserve;
  /// Set by the drain pass that caught a throw from `fn`; later passes
  /// skip it, and the next add/remove erases it.
  std::atomic<bool> detached{false};
};

namespace {

/// Span ids a thread takes from the server's block counter at a time.
constexpr std::uint64_t kIdBlock = 1024;

struct IdBlock {
  const void* server;
  std::uint64_t uid;
  SpanId next;
  SpanId end;
};

thread_local IdBlock tls_id_block{nullptr, 0, 0, 0};

}  // namespace

SpanId TraceServer::next_span_id() noexcept {
  IdBlock& block = tls_id_block;
  if (block.server == this && block.uid == uid_ && block.next != block.end) {
    return block.next++;
  }
  // Block 0 starts at id 1, so kNoSpan is never handed out.
  const SpanId start = next_block_.fetch_add(1, std::memory_order_relaxed) * kIdBlock + 1;
  block = {this, uid_, start + 1, start + kIdBlock};
  return start;
}

TraceServer::TraceServer(PublishMode mode) : uid_(next_server_uid()) {
  if (mode == PublishMode::kAsync) {
    collector_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) collect(Clock::time_point::max());
    });
  }
  // Discoverable by thread-exit hooks only once fully constructed.
  detail::SlotRegistry::instance().add(uid_, this);
}

TraceServer::~TraceServer() {
  // Unbind self-metrics before anything starts tearing down: releasing the
  // callback handles serializes with any in-flight scrape on the registry
  // lock, so no sample callback can observe a half-destroyed server.
  {
    std::lock_guard lk(metrics_mu_);
    drain_hist_.store(nullptr, std::memory_order_release);
    metrics_cbs_.clear();
    // drain_hist_refs_ stays populated until member destruction (after
    // the collector joins below): an in-flight drain pass may still hold
    // the raw pointer it loaded before the store above.
  }
  // Next, disappear from the exit-hook registry: remove() synchronizes
  // with any in-flight thread_exited() walk (which holds the registry
  // lock while calling into servers), so after this line no exit hook can
  // reach a server that is tearing down.
  detail::SlotRegistry::instance().remove(uid_);
  // The no-drop guarantee is that flush()/take_trace() return every span
  // published before them, at any point up to destruction — queued spans
  // are never lost while the server is alive. Destruction itself only
  // joins the collector; whatever the owner chose not to take is freed
  // with the slots.
  stop_.store(true, std::memory_order_release);
  wake();
  if (collector_.joinable()) collector_.join();
}

/// Passing through wake_mu_ before notifying keeps the wake from landing
/// between collect()'s predicate check and its sleep: pending stays
/// nonzero, no later call would notify, and the waiter would sleep out
/// its period.
void TraceServer::wake() {
  if (pending_wakes_.fetch_add(1, std::memory_order_release) != 0) return;
  { std::lock_guard lk(wake_mu_); }
  wake_cv_.notify_one();
}

std::uint64_t TraceServer::approx_slot_bytes() {
  const auto bytes_of = [](ProducerSlot& slot) {
    std::uint64_t bytes = sizeof(ProducerSlot);
    // Capacities mutate under the slot spinlock (publish/seal); take it
    // so the estimate is coherent. Telemetry-rate call, not a hot path.
    slot.acquire();
    bytes += slot.active.capacity() * sizeof(Span);
    bytes += slot.sealed.capacity() * sizeof(SpanBatch);
    for (const auto& batch : slot.sealed) bytes += batch.capacity() * sizeof(Span);
    slot.release();
    return bytes;
  };
  std::lock_guard lk(registry_mu_);
  std::uint64_t total = 0;
  for (auto& slot : slots_) total += bytes_of(*slot);
  for (auto& slot : free_slots_) total += bytes_of(*slot);
  return total;
}

namespace {

struct CacheEntry {
  const void* server;
  std::uint64_t uid;
  void* slot;
};

// Single-entry fast path: the overwhelmingly common case is one thread
// publishing to one server in a tight loop. POD thread_local, so no TLS
// guard check on access.
thread_local CacheEntry tls_last_slot{nullptr, 0, nullptr};

// True once this thread's exit hook (~ThreadRecord) has run. POD, so it
// stays readable from TLS destructors sequenced after the record's own —
// the guard that keeps a late publish from touching the destroyed record.
thread_local bool tls_thread_exited = false;

/// Process-unique key for the calling thread (thread ids can be reused by
/// the OS; this never is).
std::uint64_t this_thread_key() {
  static std::atomic<std::uint64_t> counter{1};
  thread_local std::uint64_t key = counter.fetch_add(1, std::memory_order_relaxed);
  return key;
}

/// Per-thread slot-cache + reclamation record. Constructed on the
/// thread's first local_slot() registration (lazy TLS init), which is
/// also what arms the exit hook: the destructor tells every still-live
/// server the thread touched to reclaim its slot.
struct ThreadRecord {
  std::vector<CacheEntry> cache;
  /// Uids of the servers this thread registered a slot with. Uids, not
  /// pointers: the hook must be weak against servers dying first.
  std::vector<std::uint64_t> touched;

  ~ThreadRecord() {
    // Invalidate the caches BEFORE marking: the instant a slot is marked
    // reclaimable, a concurrent drain may retire (and even free) it, so
    // no cached pointer to it may survive this point. A publish from a
    // TLS destructor sequenced after this one takes the degraded
    // registry-lookup path via tls_thread_exited.
    tls_last_slot = {nullptr, 0, nullptr};
    cache.clear();
    tls_thread_exited = true;
    detail::SlotRegistry::instance().thread_exited(this_thread_key(), touched);
  }
};

thread_local ThreadRecord tls_record;

}  // namespace

TraceServer::ProducerSlot& TraceServer::local_slot() {
  if (tls_last_slot.server == this && tls_last_slot.uid == uid_) {
    return *static_cast<ProducerSlot*>(tls_last_slot.slot);
  }
  const std::uint64_t me = this_thread_key();
  if (tls_thread_exited) {
    // Publishing after this thread's exit hook already ran (a TLS
    // destructor sequenced later than the record's). No future hook will
    // mark whatever we use now, so resurrect-or-register uncached: the
    // slot simply lives until the server dies. Nothing is lost, the slot
    // is merely not reclaimed.
    return register_slot(me, /*resurrect=*/true);
  }
  ThreadRecord& rec = tls_record;  // first use arms the exit hook
  for (const auto& e : rec.cache) {
    if (e.server == this && e.uid == uid_) {
      tls_last_slot = e;
      return *static_cast<ProducerSlot*>(e.slot);
    }
  }
  // Cache miss: find this thread's existing slot (registered before a
  // cache eviction) or register a new one. The uid check above makes
  // stale entries (a dead server whose address was reused) miss, and the
  // cache is bounded so long-lived threads touching many short-lived
  // servers re-look-up instead of growing forever.
  if (rec.cache.size() >= 64) rec.cache.clear();
  ProducerSlot& slot = register_slot(me, /*resurrect=*/false);
  if (std::find(rec.touched.begin(), rec.touched.end(), uid_) == rec.touched.end()) {
    // Like the cache bound above, but for the exit hook's work list:
    // shed uids of dead servers so a long-lived thread touching many
    // short-lived servers carries (and at exit walks) only live ones.
    if (rec.touched.size() >= 64) detail::SlotRegistry::instance().prune_dead(rec.touched);
    rec.touched.push_back(uid_);
  }
  rec.cache.push_back({this, uid_, &slot});
  tls_last_slot = rec.cache.back();
  return slot;
}

TraceServer::ProducerSlot& TraceServer::register_slot(std::uint64_t thread_key, bool resurrect) {
  std::lock_guard lk(registry_mu_);
  for (const auto& existing : slots_) {
    if (existing->owner == thread_key) {
      if (resurrect) {
        // Un-mark under the slot spinlock: a drain pass either retired
        // the slot before we got here (not found, fall through below) or
        // will see reclaimable == false and leave it alone while the
        // caller publishes into it.
        existing->acquire();
        existing->reclaimable = false;
        existing->release();
      }
      return *existing;
    }
  }
  std::unique_ptr<ProducerSlot> owned;
  if (!free_slots_.empty()) {
    owned = std::move(free_slots_.back());
    free_slots_.pop_back();
  } else {
    owned = std::make_unique<ProducerSlot>();
  }
  owned->owner = thread_key;
  owned->reclaimable = false;
  owned->active.reserve(kBatchCapacity);  // no-op if a parked slot kept its block
  ProducerSlot* slot = owned.get();
  slots_.push_back(std::move(owned));
  return *slot;
}

void TraceServer::note_thread_exit(std::uint64_t thread_key) {
  bool marked = false;
  {
    std::lock_guard lk(registry_mu_);
    for (auto& slot : slots_) {
      if (slot->owner == thread_key) {
        slot->acquire();
        slot->reclaimable = true;
        slot->release();
        marked = true;
        break;
      }
    }
  }
  // Retirement happens only inside a drain sweep; wake the draining
  // thread so a churn-heavy but otherwise idle server sheds the ~55KB
  // promptly instead of waiting out the quiet sweep. (A server nobody
  // collects retires on the next flush/take, like batch draining.)
  if (marked) wake();
}

void TraceServer::publish(const Span& span) {
  ProducerSlot& slot = local_slot();
  // Admission: one relaxed-ordered pointer load when no sampler is
  // attached — the rate-1.0 configuration must stay within noise of the
  // unsampled publish path (bench_abl_sampling pins this).
  const Sampler* sampler = sampler_ptr_.load(std::memory_order_acquire);
  if (sampler != nullptr && !sampler->admit(span)) {
    slot.acquire();
    ++slot.sampled_dropped;
    slot.release();
    return;
  }
  bool sealed = false;
  slot.acquire();
  if (sampler != nullptr) ++slot.sampled_kept;
  if (span.dropped_annotations != 0) slot.dropped += span.dropped_annotations;
  slot.active.push_back(span);
  if (slot.active.size() >= kBatchCapacity) {
    slot.sealed.push_back(std::move(slot.active));  // leaves `active` empty
    slot.active.reserve(kBatchCapacity);
    sealed = true;
  }
  slot.release();
  if (sealed) wake();
}

void TraceServer::publish_batch(SpanBatch&& batch) {
  if (batch.empty()) return;
  ProducerSlot& slot = local_slot();
  // Admission and the annotation-drop sum run before the spinlock: a
  // drain contending for the slot waits on a few handle moves, never on
  // a pass over the batch. remove_if asks the sampler once per span.
  const Sampler* sampler = sampler_ptr_.load(std::memory_order_acquire);
  std::size_t rejected = 0;
  if (sampler != nullptr) {
    const auto kept_end = std::remove_if(batch.begin(), batch.end(),
                                         [sampler](const Span& s) { return !sampler->admit(s); });
    rejected = static_cast<std::size_t>(batch.end() - kept_end);
    batch.erase(kept_end, batch.end());
  }
  std::uint64_t dropped = 0;
  for (const Span& span : batch) dropped += span.dropped_annotations;
  const bool sealed = !batch.empty();
  slot.acquire();
  if (sampler != nullptr) {
    slot.sampled_kept += batch.size();
    slot.sampled_dropped += rejected;
  }
  slot.dropped += dropped;
  if (sealed) {
    // Spans this thread published before the batch must drain before it.
    if (!slot.active.empty()) {
      slot.sealed.push_back(std::move(slot.active));
      slot.active.reserve(kBatchCapacity);
    }
    slot.sealed.push_back(std::move(batch));
  }
  slot.release();
  if (sealed) wake();
}

void TraceServer::drain(bool steal_active) {
  // One drain pass at a time: batches must never sit in a concurrent
  // pass's staging while another pass reports the slots empty.
  std::lock_guard drain_lk(drain_mu_);
  // Drain-latency self-metric: one steady_clock pair per pass (hundreds
  // of spans), and only when bound — unbound costs a relaxed load.
  struct DrainTimer {
    metrics::Histogram* hist;
    std::chrono::steady_clock::time_point t0;
    explicit DrainTimer(metrics::Histogram* h)
        : hist(h),
          t0(h ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{}) {}
    ~DrainTimer() {
      if (hist == nullptr) return;
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      hist->observe(static_cast<std::uint64_t>(ns));
    }
  } drain_timer(drain_hist_.load(std::memory_order_acquire));
  SpanBatches& taken = staging_;
  std::uint64_t dropped = 0;
  std::uint64_t s_kept = 0;
  std::uint64_t s_dropped = 0;
  {
    std::lock_guard lk(registry_mu_);
    for (std::size_t i = 0; i < slots_.size();) {
      ProducerSlot& slot = *slots_[i];
      slot.acquire();
      // A reclaimable slot gets a final sweep — sealed AND partial
      // batches — then retires, so an exiting thread's spans are taken
      // exactly once and never stranded in a parked slot.
      const bool retire = slot.reclaimable;
      for (auto& batch : slot.sealed) taken.push_back(std::move(batch));
      slot.sealed.clear();
      if ((steal_active || retire) && !slot.active.empty()) {
        taken.push_back(std::move(slot.active));
        // A retiring slot is never published into again: no new block.
        if (!retire) slot.active.reserve(kBatchCapacity);
      }
      dropped += slot.dropped;
      slot.dropped = 0;
      s_kept += slot.sampled_kept;
      slot.sampled_kept = 0;
      s_dropped += slot.sampled_dropped;
      slot.sampled_dropped = 0;
      slot.release();
      if (!retire) {
        ++i;
        continue;
      }
      // Unlink (order is irrelevant; swap-remove), scrub ownership, and
      // park for the next producer thread — or free, once the parking lot
      // is full. Safe outside the spinlock: the slot is unreachable the
      // moment it leaves the registry (its owner thread is exiting and its
      // caches were invalidated before the reclaim mark was set).
      std::unique_ptr<ProducerSlot> retired = std::move(slots_[i]);
      slots_[i] = std::move(slots_.back());
      slots_.pop_back();
      retired->owner = 0;
      retired->reclaimable = false;
      ++retired_slots_;
      if (free_slots_.size() < kSlotFreelistCapacity) free_slots_.push_back(std::move(retired));
    }
  }
  // Sampler accounting is lifetime-monotonic (like drained_spans_) and
  // atomic, so it lands before the early-out below: a drain pass that
  // found nothing but sampled-out spans still records them.
  if (s_kept != 0) sampled_kept_.fetch_add(s_kept, std::memory_order_relaxed);
  if (s_dropped != 0) sampled_dropped_.fetch_add(s_dropped, std::memory_order_relaxed);
  if (taken.empty() && dropped == 0) return;
  if (!taken.empty()) {
    std::size_t drained = 0;
    for (const auto& batch : taken) drained += batch.size();
    drained_spans_.fetch_add(drained, std::memory_order_relaxed);
  }
  // Streaming hooks run after the slot spinlocks are released (publishers
  // are not blocked). When the consumer took the batches they are dropped
  // (their blocks go back to the batch pool) and never touch the held
  // trace — the bounded-memory path for unbounded traces.
  if (!taken.empty() && deliver(taken)) {
    {
      std::lock_guard lk(trace_mu_);
      dropped_total_ += dropped;
    }
    taken.clear();
    return;
  }
  // Aggregation is batch-handle moves only; spans themselves stay put.
  std::lock_guard lk(trace_mu_);
  for (auto& batch : taken) trace_.push_back(std::move(batch));
  taken.clear();
  dropped_total_ += dropped;
}

bool TraceServer::deliver(SpanBatches& batches) {
  bool consumed = false;
  // add_drain_subscriber keeps the one consumer at the back, so plain
  // attach-order iteration already delivers observers first.
  for (const auto& sub : subscribers_) {
    if (sub->detached.load(std::memory_order_relaxed)) continue;
    try {
      sub->fn(batches);
      if (sub->handoff == DrainHandoff::kConsume) consumed = true;
    } catch (...) {
      // A throwing subscriber is detached — only it. If the consumer
      // threw, its spans fall through to in-server accumulation:
      // re-delivering the still-staged batches next pass would duplicate
      // them, and an exception escaping the collector thread would
      // terminate the process.
      sub->detached.store(true, std::memory_order_relaxed);
    }
  }
  return consumed;
}

SubscriberId TraceServer::add_drain_subscriber(DrainSubscriber subscriber,
                                               DrainHandoff handoff) {
  if (!subscriber) throw std::logic_error("TraceServer: null drain subscriber");
  // Synchronize with an in-flight drain: the new subscriber sees every
  // batch drained after this call, none before it.
  std::lock_guard lk(drain_mu_);
  std::erase_if(subscribers_,
                [](const auto& sub) { return sub->detached.load(std::memory_order_relaxed); });
  const bool has_consumer =
      !subscribers_.empty() && subscribers_.back()->handoff == DrainHandoff::kConsume;
  if (handoff == DrainHandoff::kConsume && has_consumer) {
    // Two consumers would each believe they own the span stream (the
    // first one's batches are dropped under the second one's feet).
    throw std::logic_error(
        "TraceServer: a kConsume drain subscriber is already attached "
        "(at most one consumer; use kObserve for additional taps)");
  }
  auto entry = std::make_unique<Subscriber>();
  entry->id = next_subscriber_id_++;
  entry->fn = std::move(subscriber);
  entry->handoff = handoff;
  const SubscriberId id = entry->id;
  // Keep the consumer (if any) at the back: delivery is a plain forward
  // walk, and observers must see a batch before its buffers are declared
  // consumable.
  subscribers_.insert(has_consumer ? subscribers_.end() - 1 : subscribers_.end(),
                      std::move(entry));
  return id;
}

void TraceServer::remove_drain_subscriber(SubscriberId id) {
  // Synchronize with an in-flight drain: after this returns, no drain pass
  // will call the removed subscriber (safe to destroy the exporter).
  std::lock_guard lk(drain_mu_);
  std::erase_if(subscribers_, [id](const auto& sub) {
    return sub->id == id || sub->detached.load(std::memory_order_relaxed);
  });
}

std::size_t TraceServer::drain_subscriber_count() {
  std::lock_guard lk(drain_mu_);
  return static_cast<std::size_t>(std::count_if(
      subscribers_.begin(), subscribers_.end(),
      [](const auto& sub) { return !sub->detached.load(std::memory_order_relaxed); }));
}

std::size_t TraceServer::live_slot_count() {
  std::lock_guard lk(registry_mu_);
  return slots_.size();
}

std::uint64_t TraceServer::retired_slot_count() {
  std::lock_guard lk(registry_mu_);
  return retired_slots_;
}

std::size_t TraceServer::pooled_slot_count() {
  std::lock_guard lk(registry_mu_);
  return free_slots_.size();
}

TraceMeta TraceServer::meta() {
  flush();
  return drained_meta();
}

TraceMeta TraceServer::drained_meta() {
  TraceMeta meta;
  for (const MetaRow& row : kMetaRows) meta.*row.member = row.read(*this);
  const auto& table = common::StringTable::global();
  meta.interned_strings = table.size();
  meta.interned_bytes = table.approx_bytes();
  meta.strtab_budget_bytes = table.budget_bytes();
  meta.rejected_interns = table.rejected_interns();
  return meta;
}

void TraceServer::bind_metrics(metrics::Registry& registry, const metrics::Labels& labels) {
  std::lock_guard lk(metrics_mu_);
  metrics_cbs_.clear();
  const auto cb = [&](std::string_view name, std::string_view help, metrics::Kind kind,
                      metrics::Sample sample) {
    metrics_cbs_.push_back(registry.callback(name, help, kind, labels, std::move(sample)));
  };
  cb("xsp_trace_batch_pool_bytes", "Bytes parked in the process-wide span-batch pool",
     metrics::Kind::kGauge, [] { return static_cast<double>(batch_pool_bytes()); });
  // Counters the server already maintains: sampled without flushing, so
  // they advance at drain cadence and the publish path pays nothing.
  cb("xsp_trace_drained_spans_total",
     "Spans drained out of producer slots (admitted spans, at drain cadence)",
     metrics::Kind::kCounter,
     [this] { return static_cast<double>(drained_spans_.load(std::memory_order_relaxed)); });
  for (const MetaRow& row : kMetaRows) {
    const MetaField& field =
        *std::find_if(std::begin(kMetaFields), std::end(kMetaFields),
                      [&row](const MetaField& f) { return f.member == row.member; });
    std::string name = std::string("xsp_trace_") + field.key;
    if (field.kind == metrics::Kind::kCounter) name += "_total";
    cb(name, field.help, field.kind,
       [this, read = row.read] { return static_cast<double>(read(*this)); });
  }
  // The one new measurement: drain-pass wall time (see drain()).
  drain_hist_refs_.push_back(registry.histogram("xsp_trace_drain_duration_ns",
                                                "Wall time of one drain pass in nanoseconds",
                                                metrics::latency_buckets_ns(), labels));
  drain_hist_.store(drain_hist_refs_.back().get(), std::memory_order_release);
}

void TraceServer::collect(Clock::time_point deadline) {
  const auto woken_by = [this] { return pending_wakes_.load(std::memory_order_acquire) > 0; };
  std::unique_lock lk(wake_mu_);
  const auto quiet_end = last_pass_ + std::chrono::milliseconds(50);
  const auto until = std::min(deadline, quiet_end);
  // A deadline already past is a poll: no sleep, so no futex call.
  const bool woken =
      until <= Clock::now() ? woken_by() : wake_cv_.wait_until(lk, until, woken_by);
  const auto now = Clock::now();
  // A quiet period (no wake for 50 ms) also sweeps the partial batches, so
  // a live producer's trickle is delivered within it instead of waiting
  // for 256 spans or a flush().
  const bool quiet = !woken && now >= quiet_end;
  if (!woken && !quiet) return;
  pending_wakes_.store(0, std::memory_order_release);
  last_pass_ = now;
  lk.unlock();
  drain(/*steal_active=*/quiet);
}

void TraceServer::flush() {
  // The caller drains directly instead of waiting for the collecting
  // thread: this bounds flush latency, and a kSync server may have none.
  drain(/*steal_active=*/true);
}

std::size_t TraceServer::span_count() {
  flush();
  std::lock_guard lk(trace_mu_);
  std::size_t held = 0;
  for (const auto& batch : trace_) held += batch.size();
  return held;
}

std::uint64_t TraceServer::dropped_annotation_count() {
  flush();
  std::lock_guard lk(trace_mu_);
  return dropped_total_;
}

void TraceServer::set_sampler(std::shared_ptr<const Sampler> sampler) {
  std::lock_guard lk(sampler_mu_);
  const Sampler* raw = sampler.get();
  // Re-installing the current policy (a session re-applying unchanged
  // options every run) must not grow the retention list.
  if (raw == sampler_ptr_.load(std::memory_order_relaxed)) return;
  // Retain every policy ever installed: a publisher that loaded the old
  // raw pointer just before this store must still be able to finish its
  // admit() call. Policies are small and set_sampler is a configuration
  // action, so the retention list stays tiny.
  if (sampler != nullptr) sampler_refs_.push_back(std::move(sampler));
  sampler_ptr_.store(raw, std::memory_order_release);
}

SpanBatches TraceServer::take_batches() {
  flush();
  // Batch-handle moves only; the held list keeps its capacity, so the
  // returned list is the one allocation of a steady-state take.
  std::lock_guard lk(trace_mu_);
  dropped_total_ = 0;
  SpanBatches taken(std::make_move_iterator(trace_.begin()),
                    std::make_move_iterator(trace_.end()));
  trace_.clear();
  return taken;
}

std::vector<Span> TraceServer::take_trace() { return flatten_batches(take_batches()); }

}  // namespace xsp::trace
