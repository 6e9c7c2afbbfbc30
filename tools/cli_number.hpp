// Strict command-line numbers, shared by the tools: the whole value must
// parse as a T (std::from_chars: no leading '+' or whitespace, no trailing
// bytes) and lie in [min, max], so a typo or an out-of-range value is an
// error instead of a silent zero, a wrapped narrowing or a clamped limit.
#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace xsp::tools {

template <typename T>
std::optional<T> parse_number(std::string_view v, T min, T max = std::numeric_limits<T>::max()) {
  T out{};
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || ptr != v.data() + v.size() || !(out >= min && out <= max)) {
    return std::nullopt;
  }
  return out;
}

}  // namespace xsp::tools
