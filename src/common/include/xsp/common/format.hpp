// Small formatting helpers shared by reports and benches.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace xsp {

/// Format a double with `digits` decimal places ("12.34").
std::string fmt_fixed(double v, int digits = 2);

/// Format a byte count with a binary-ish human unit as the paper's tables do
/// (MB with 1e6 divisor, GB with 1e9).
std::string fmt_bytes_mb(double bytes, int digits = 2);
std::string fmt_bytes_gb(double bytes, int digits = 2);

/// Format a count with thousands separators ("1,563,300").
std::string fmt_count(std::int64_t v);

/// Percent with a trailing % sign.
std::string fmt_percent(double fraction, int digits = 2);

/// Room for format_dims of at most four values: "<n, c, h, w>" needs <= 88.
using DimsText = std::array<char, 96>;

/// Formats `dims` as open + values joined by `sep` + close, e.g. "[x,y,z]"
/// or "<n, c, h, w>", with std::to_chars into `buf`: no string temporary.
std::string_view format_dims(DimsText& buf, std::initializer_list<std::int64_t> dims, char open,
                             std::string_view sep, char close);

}  // namespace xsp
