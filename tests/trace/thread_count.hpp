// Threads of the calling process, as Linux lists them in /proc/self/task:
// how tests check that a component starts (or starts no) thread.
#pragma once

#include <cstddef>
#include <filesystem>

namespace xsp::test {

inline std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

}  // namespace xsp::test
