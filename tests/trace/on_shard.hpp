// Drive a chosen shard of a multi-shard TraceServer from a test. A
// thread's publishes always go to its own shard (shard_for_current_thread),
// so the only way onto shard i is a thread routed there: start fresh
// threads until one is, and run the body on it. The thread exits right
// after, so its slot is retired by the next drain pass of that shard.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>

#include "xsp/trace/trace_server.hpp"

namespace xsp::trace {

template <typename Fn>
void on_shard(TraceServer& server, std::size_t shard, Fn&& fn) {
  ASSERT_LT(shard, server.shard_count());
  for (int attempt = 0; attempt < 1000; ++attempt) {
    bool ran = false;
    std::thread worker([&] {
      if (server.shard_for_current_thread() != shard) return;
      fn();
      ran = true;
    });
    worker.join();
    if (ran) return;
  }
  FAIL() << "no thread was routed to shard " << shard;
}

}  // namespace xsp::trace
