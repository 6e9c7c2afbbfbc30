// Producer-slot lifecycle: thread-exit reclamation for long-lived servers.
//
// These pin the contracts of the reclamation protocol (see src/trace/
// README.md "Producer-slot lifecycle"):
//   * an exited producer thread's slot is retired by the next drain pass,
//     after a final sweep — every published span survives, exactly once;
//   * slot count on a long-lived server is O(live threads + freelist
//     cap), never O(threads ever) — the thread-churn stress;
//   * retired slots are parked and reused, so steady-state churn is
//     allocation-free on the server side once the freelists warm;
//   * the lifetime edges are safe in both orders: server destroyed before
//     thread exit (weak uid-keyed hook), publish from a TLS destructor
//     after the exit hook ran (slot resurrection), main-thread TLS vs
//     static destruction, and a new server reusing a dead server's
//     address must never inherit its cached slot pointer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "test_alloc_count.hpp"
#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {
namespace {

Span make_span(SpanId id, TimePoint t = 0) {
  Span s;
  s.id = id;
  s.begin = t;
  s.end = t + 1;
  return s;
}

template <typename Server>
void publish_n(Server& server, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    server.publish(make_span(server.next_span_id(), static_cast<TimePoint>(i)));
  }
}

TEST(SlotReclamation, ExitedThreadsSlotIsRetiredAndSpansSurvive) {
  TraceServer server(PublishMode::kSync);
  std::thread producer([&server] { publish_n(server, TraceServer::kBatchCapacity + 17); });
  producer.join();
  // The exit hook has marked the slot; nothing is retired until a drain
  // pass sweeps it (kSync: the flush inside take_trace()).
  EXPECT_EQ(server.live_slot_count(), 1u);
  EXPECT_EQ(server.retired_slot_count(), 0u);
  EXPECT_EQ(server.take_trace().size(), TraceServer::kBatchCapacity + 17);
  EXPECT_EQ(server.live_slot_count(), 0u);
  EXPECT_EQ(server.retired_slot_count(), 1u);
  EXPECT_EQ(server.pooled_slot_count(), 1u);
}

TEST(SlotReclamation, RetiredSlotsAreReusedBeforeGrowingTheRegistry) {
  TraceServer server(PublishMode::kSync);
  for (int round = 0; round < 32; ++round) {
    std::thread producer([&server] { publish_n(server, 8); });
    producer.join();
    EXPECT_EQ(server.take_trace().size(), 8u);
  }
  // 32 churned threads, but the registry never outgrew the churn and the
  // parking lot holds at most one slot from this sequential pattern.
  EXPECT_EQ(server.live_slot_count(), 0u);
  EXPECT_EQ(server.retired_slot_count(), 32u);
  EXPECT_EQ(server.pooled_slot_count(), 1u);
  EXPECT_LE(server.approx_slot_bytes(),
            std::uint64_t{2} * TraceServer::kBatchCapacity * sizeof(Span) + 4096);
}

TEST(SlotReclamation, ThreadTouchingManyServersIsReclaimedOnAll) {
  // More servers than the per-thread cache holds (64): the second pass
  // re-looks-up after eviction, and the deduplicated touched-uid list
  // must still reclaim the one slot on every server at exit.
  constexpr std::size_t kServers = 80;
  std::vector<std::unique_ptr<TraceServer>> servers;
  servers.reserve(kServers);
  for (std::size_t i = 0; i < kServers; ++i) {
    servers.push_back(std::make_unique<TraceServer>(PublishMode::kSync));
  }
  std::thread producer([&servers] {
    for (int pass = 0; pass < 2; ++pass) {
      for (auto& server : servers) publish_n(*server, 1);
    }
  });
  producer.join();
  for (auto& server : servers) {
    EXPECT_EQ(server->take_trace().size(), 2u);
    EXPECT_EQ(server->live_slot_count(), 0u);
    EXPECT_EQ(server->retired_slot_count(), 1u);
  }
}

// --- thread-churn stress ---------------------------------------------------

/// Drive `total_threads` short-lived producer threads (waves of `kWave`)
/// against `server`, each publishing `spans_per_thread`. Returns the
/// maximum live-slot count observed right after a wave joined. Calls
/// `flush_fn` every `kFlushEveryWaves` waves — with flushes that far
/// apart, live slots are HARD-bounded by kWave * kFlushEveryWaves even
/// if no collector ever runs in between (slots only register between
/// drains), so the peak assertion cannot flake on scheduling.
template <typename Server, typename FlushFn>
std::size_t churn(Server& server, std::size_t total_threads, std::size_t spans_per_thread,
                  FlushFn&& flush_fn) {
  constexpr std::size_t kWave = 16;
  constexpr std::size_t kFlushEveryWaves = 8;
  std::size_t peak_live = 0;
  std::size_t launched = 0;
  std::size_t wave_index = 0;
  while (launched < total_threads) {
    const std::size_t n = std::min(kWave, total_threads - launched);
    std::vector<std::thread> wave;
    wave.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      wave.emplace_back([&server, spans_per_thread] { publish_n(server, spans_per_thread); });
    }
    for (auto& t : wave) t.join();
    launched += n;
    peak_live = std::max(peak_live, server.live_slot_count());
    if (++wave_index % kFlushEveryWaves == 0) flush_fn();
  }
  flush_fn();
  return peak_live;
}

TEST(SlotChurnStress, TenThousandThreadsSingleServerAsyncConsume) {
  constexpr std::size_t kThreads = 10000;
  constexpr std::size_t kSpansPerThread = 40;
  TraceServer server(PublishMode::kAsync);
  // The long-lived-service shape: a kConsume subscriber keeps the server
  // empty forever while counting every span exactly once.
  std::atomic<std::uint64_t> consumed{0};
  server.add_drain_subscriber(
      [&consumed](const SpanBatches& batches) {
        std::uint64_t n = 0;
        for (const auto& batch : batches) n += batch.size();
        consumed.fetch_add(n, std::memory_order_relaxed);
      },
      DrainHandoff::kConsume);

  const std::size_t peak = churn(server, kThreads, kSpansPerThread, [&server] { server.flush(); });

  // Zero span loss, exactly once: a lost batch makes the count short, a
  // double delivery makes it long.
  EXPECT_EQ(consumed.load(), kThreads * kSpansPerThread);
  // Bounded slots: O(live threads + flush period), never O(total churn).
  EXPECT_LE(peak, 16u * 8u);
  EXPECT_EQ(server.live_slot_count(), 0u);
  EXPECT_EQ(server.retired_slot_count(), kThreads);
  EXPECT_LE(server.pooled_slot_count(), TraceServer::kSlotFreelistCapacity);
}

TEST(SlotChurnStress, SyncServerRetiresOnFlushAndLosesNothing) {
  constexpr std::size_t kThreads = 2500;
  constexpr std::size_t kSpansPerThread = 24;

  TraceServer single(PublishMode::kSync);
  std::uint64_t taken_single = 0;
  const std::size_t peak_single =
      churn(single, kThreads, kSpansPerThread, [&single, &taken_single] {
        for (const auto& batch : single.take_batches()) taken_single += batch.size();
      });
  EXPECT_EQ(taken_single, kThreads * kSpansPerThread);
  EXPECT_LE(peak_single, 16u * 8u);
  EXPECT_EQ(single.live_slot_count(), 0u);
  EXPECT_EQ(single.retired_slot_count(), kThreads);
}

TEST(SlotChurnStress, SteadyStateChurnIsAllocationFreeOnTheServerSide) {
  // Once the slot freelist and the batch pool warm, a churn round — spawn
  // a producer thread, publish a full batch, exit, drain, take, drop —
  // recirculates parked slots and pooled batch blocks: the only
  // allocations left are the constant per-thread ones (std::thread state,
  // the TLS record's two vectors) and take_batches()' outer handle vector,
  // so per-round allocation counts must stop changing. kSync keeps the
  // rounds single-threaded-deterministic.
  TraceServer server(PublishMode::kSync);
  const auto round = [&server] {
    std::thread producer([&server] { publish_n(server, TraceServer::kBatchCapacity); });
    producer.join();
    SpanBatches taken = server.take_batches();
    std::size_t total = 0;
    for (const auto& batch : taken) total += batch.size();
    return total;
  };
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(round(), TraceServer::kBatchCapacity);  // warm-up
  }
  const std::uint64_t before_a = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  const std::size_t got_a = round();
  const std::uint64_t during_a = g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before_a;
  const std::uint64_t before_b = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  const std::size_t got_b = round();
  const std::uint64_t during_b = g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before_b;
  EXPECT_EQ(got_a, TraceServer::kBatchCapacity);
  EXPECT_EQ(got_b, TraceServer::kBatchCapacity);
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  // Sanitizer runtimes allocate on their own schedule; the functional
  // recirculation checks above still ran.
  (void)during_a;
  (void)during_b;
#else
  EXPECT_EQ(during_a, during_b)
      << "per-round allocations grew: parked slots or pooled batches not reused";
  // The remaining per-round allocations are the per-thread constants —
  // nothing proportional to spans, batches, or accumulated churn.
  EXPECT_LE(during_b, 8u);
#endif
  EXPECT_EQ(server.retired_slot_count(), 10u);
  EXPECT_EQ(server.live_slot_count(), 0u);
}

// --- lifetime edges --------------------------------------------------------

TEST(SlotLifecycle, ServerDestroyedWhileProducerThreadsStillAlive) {
  // The exit hook must be weak: these threads outlive the server, and
  // their hooks run against a uid that is no longer registered.
  auto server = std::make_unique<TraceServer>(PublishMode::kAsync);
  constexpr int kProducers = 4;
  std::atomic<int> published{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      publish_n(*server, 100);
      published.fetch_add(1, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
    });
  }
  while (published.load(std::memory_order_acquire) < kProducers) std::this_thread::yield();
  EXPECT_EQ(server->take_trace().size(), 400u);
  server.reset();
  release.store(true, std::memory_order_release);
  for (auto& t : producers) t.join();  // hooks fire after the server died
  SUCCEED();
}

namespace late_publish {

/// A TLS object whose destructor publishes. Constructed BEFORE the
/// thread's first publish, so TLS destruction (reverse order) runs it
/// AFTER the reclamation hook — the publish-after-exit-hook edge: the
/// marked slot must be resurrected (or a fresh one registered if the
/// drain already retired it), never published into a parked slot.
struct LatePublisher {
  TraceServer* server = nullptr;
  ~LatePublisher() {
    if (server == nullptr) return;
    Span s;
    s.id = server->next_span_id();
    s.begin = 7;
    s.end = 8;
    server->publish(std::move(s));
  }
};
thread_local LatePublisher tls_late_publisher;

}  // namespace late_publish

TEST(SlotLifecycle, PublishFromTlsDestructorAfterExitHookIsNotLost) {
  TraceServer server(PublishMode::kAsync);
  for (int round = 0; round < 16; ++round) {
    std::thread t([&server] {
      late_publish::tls_late_publisher.server = &server;  // constructed first
      publish_n(server, 3);
    });
    t.join();
  }
  // Every round: 3 regular spans + 1 from the late TLS destructor. Which
  // path the late publish took (resurrection vs fresh registration after
  // a racing retirement) depends on collector timing; both must count.
  EXPECT_EQ(server.take_trace().size(), 16u * 4u);
  // Slots from resurrected/late registrations have no future exit hook
  // and legitimately live until the server dies — but never more than
  // one per churned thread.
  EXPECT_LE(server.live_slot_count(), 16u);
}

TEST(SlotLifecycle, DeadServersSlotIsNotInheritedAcrossServerAddressReuse) {
  // Regression for TLS-cache aliasing: destroy a server this thread has
  // a cached slot for, then allocate a new one — the allocator readily
  // hands back the same block, so the (address, uid) cache key collides
  // on the address and only the process-unique uid keeps the dead
  // server's slot pointer from being inherited. Inheriting it is a
  // heap-use-after-free under ASan and span loss in a plain build.
  const void* first_addr = nullptr;
  bool address_reused = false;
  for (int i = 0; i < 64; ++i) {
    auto server = std::make_unique<TraceServer>(PublishMode::kSync);
    if (first_addr == nullptr) {
      first_addr = server.get();
    } else {
      address_reused = address_reused || server.get() == first_addr;
    }
    publish_n(*server, 2);
    EXPECT_EQ(server->take_trace().size(), 2u);
    EXPECT_EQ(server->live_slot_count(), 1u);  // a fresh slot, every time
  }
  // Same-size alloc/free cycles usually reuse the block, which is what
  // makes the cache key collide on the address — but no standard obliges
  // the allocator to (and ASan deliberately quarantines freed blocks,
  // which is exactly how it would catch a true inheritance as
  // use-after-free). When no reuse happened the aliasing scenario was
  // simply not exercised: the in-loop assertions above still guard the
  // accounting, so report a skip rather than an environment failure.
  if (!address_reused) {
    GTEST_SKIP() << "allocator never reused the first server's block; "
                    "TLS-cache aliasing not exercised in this environment";
  }
}

/// Static-destruction-order smoke for the main thread: this server dies
/// during static destruction, the main thread's TLS exit hook runs during
/// process exit, and the runtime picks the order. Both orders must be
/// clean — hook first marks a live server's slot (retired or freed with
/// the server), server first unregisters its uid (the hook then finds
/// nothing). A crash here fails the whole test binary, which is the
/// assertion.
TraceServer& static_server() {
  static TraceServer server(PublishMode::kAsync);
  return server;
}

TEST(SlotLifecycle, MainThreadStaticDestructionOrderSmoke) {
  // The server outlives the test: a repeated run finds the spans an
  // earlier iteration published still held.
  const std::size_t before = static_server().span_count();
  publish_n(static_server(), 3);
  EXPECT_EQ(static_server().span_count(), before + 3);
  EXPECT_EQ(static_server().live_slot_count(), 1u);
}

}  // namespace
}  // namespace xsp::trace
