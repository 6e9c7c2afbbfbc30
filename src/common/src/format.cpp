#include "xsp/common/format.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace xsp {

std::string fmt_fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string fmt_bytes_mb(double bytes, int digits) { return fmt_fixed(bytes / 1e6, digits); }

std::string fmt_bytes_gb(double bytes, int digits) { return fmt_fixed(bytes / 1e9, digits); }

std::string fmt_count(std::int64_t v) {
  const bool neg = v < 0;
  std::uint64_t mag = neg ? static_cast<std::uint64_t>(-(v + 1)) + 1 : static_cast<std::uint64_t>(v);
  std::string digits = std::to_string(mag);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int since_sep = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (since_sep == 3) {
      out.push_back(',');
      since_sep = 0;
    }
    out.push_back(*it);
    ++since_sep;
  }
  if (neg) out.push_back('-');
  return {out.rbegin(), out.rend()};
}

std::string fmt_percent(double fraction, int digits) {
  return fmt_fixed(fraction * 100.0, digits) + "%";
}

std::string_view format_dims(DimsText& buf, std::initializer_list<std::int64_t> dims, char open,
                             std::string_view sep, char close) {
  char* p = buf.data();
  *p++ = open;
  for (const std::int64_t* d = dims.begin(); d != dims.end(); ++d) {
    if (d != dims.begin()) p = std::copy(sep.begin(), sep.end(), p);
    p = std::to_chars(p, buf.data() + buf.size(), *d).ptr;
  }
  *p++ = close;
  return {buf.data(), static_cast<std::size_t>(p - buf.data())};
}

}  // namespace xsp
