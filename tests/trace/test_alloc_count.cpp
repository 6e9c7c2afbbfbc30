// Replacement global allocation functions that count every operator new
// (behaviour is otherwise unchanged; new[]/delete[] funnel through these
// two by default). Linked into each test binary that asserts allocation
// bounds through test_alloc_count.hpp: trace, sim and cupti.
#include <atomic>
#include <cstdlib>
#include <new>

#include "test_alloc_count.hpp"

// GCC pairs the malloc-backed replacement operator new below with the
// inlined operator delete and misreports a mismatch; both halves are ours
// and consistently use malloc/free.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

std::atomic<std::uint64_t> g_xsp_test_alloc_count{0};
std::atomic<std::size_t> g_xsp_test_alloc_watch_size{0};
std::atomic<std::uint64_t> g_xsp_test_alloc_watch_count{0};

void* operator new(std::size_t size) {
  g_xsp_test_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == g_xsp_test_alloc_watch_size.load(std::memory_order_relaxed)) {
    g_xsp_test_alloc_watch_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
