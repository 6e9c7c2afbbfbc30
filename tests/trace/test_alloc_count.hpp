// Shared allocation counter. The global operator new/delete replacements
// live in test_alloc_count.cpp, linked once into each binary that uses
// this header; any test there can read the counter to assert allocation
// behaviour — e.g. that streaming-export memory is independent of span
// count, or that a kernel launch allocates nothing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

extern std::atomic<std::uint64_t> g_xsp_test_alloc_count;
// Allocations of exactly g_xsp_test_alloc_watch_size bytes are also counted
// apart (0 watches nothing): how a test tells one kind of storage, such as
// span-batch blocks, from the small handle vectors around it.
extern std::atomic<std::size_t> g_xsp_test_alloc_watch_size;
extern std::atomic<std::uint64_t> g_xsp_test_alloc_watch_count;
