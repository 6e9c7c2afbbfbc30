// The process-wide batch-block pool behind BatchAllocator<Span> (span.hpp).
#include <memory>
#include <mutex>
#include <vector>

#include "xsp/trace/span.hpp"

// Under ASan a parked block is poisoned whole, so a stale read through a
// dead batch (a span pointer kept past its timeline) is a use-after-free.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace xsp::trace {
namespace {

/// Parked blocks are held by pointer outside the blocks: LeakSanitizer
/// skips pointers in poisoned memory, so an intrusive list would leak.
struct BatchPool {
  std::mutex mu;
  std::vector<void*> parked;  // guarded by mu
};

/// Leaked on purpose: a batch that dies during static destruction (or in a
/// late TLS destructor) still finds the pool.
BatchPool& pool() {
  static BatchPool* leaked = new BatchPool;
  return *leaked;
}

}  // namespace

Span* BatchAllocator<Span>::allocate(std::size_t n) {
  if (n == kBatchCapacity) {
    BatchPool& p = pool();
    std::lock_guard lk(p.mu);
    if (!p.parked.empty()) {
      void* block = p.parked.back();
      p.parked.pop_back();
      ASAN_UNPOISON_MEMORY_REGION(block, kBatchBytes);
      return static_cast<Span*>(block);
    }
  }
  return std::allocator<Span>{}.allocate(n);
}

void BatchAllocator<Span>::deallocate(Span* block, std::size_t n) noexcept {
  if (n != kBatchCapacity) return std::allocator<Span>{}.deallocate(block, n);
  BatchPool& p = pool();
  std::lock_guard lk(p.mu);
  p.parked.push_back(block);
  ASAN_POISON_MEMORY_REGION(block, kBatchBytes);
}

std::uint64_t batch_pool_bytes() noexcept {
  BatchPool& p = pool();
  std::lock_guard lk(p.mu);
  return std::uint64_t{p.parked.size()} * kBatchBytes;
}

}  // namespace xsp::trace
