// Raw wire-stream builders for crafting producer streams byte by byte —
// the hostile-input corpus of the wire suite and the collector suite's
// crafted producers. Header-only; shared by tests/trace and tests/net.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "xsp/trace/wire.hpp"

namespace xsp::trace::wiretest {

template <typename T>
void put_pod(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

inline wire::Header valid_header() {
  wire::Header h{};
  std::memcpy(h.magic, wire::kMagic, sizeof h.magic);
  h.version = wire::kVersion;
  h.endianness = wire::kEndianMark;
  h.span_size = static_cast<std::uint32_t>(sizeof(Span));
  h.header_size = static_cast<std::uint32_t>(sizeof(wire::Header));
  return h;
}

inline std::string header_bytes(const wire::Header& h = valid_header()) {
  std::string out;
  put_pod(out, h);
  return out;
}

/// One frame; `lie_about_size` >= 0 replaces the true payload length in
/// the frame header.
inline std::string frame(wire::FrameType type, std::string_view payload,
                         std::int64_t lie_about_size = -1) {
  std::string out;
  wire::FrameHeader fh{};
  fh.type = static_cast<std::uint8_t>(type);
  fh.payload_size = lie_about_size >= 0 ? static_cast<std::uint32_t>(lie_about_size)
                                        : static_cast<std::uint32_t>(payload.size());
  put_pod(out, fh);
  out.append(payload);
  return out;
}

inline std::string delta_entry(std::uint32_t id, std::string_view s) {
  std::string out;
  put_pod(out, id);
  put_pod(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
  return out;
}

inline std::string span_batch_payload(const std::vector<Span>& spans) {
  std::string out;
  put_pod(out, static_cast<std::uint32_t>(spans.size()));
  out.append(reinterpret_cast<const char*>(spans.data()), spans.size() * sizeof(Span));
  return out;
}

inline std::string footer_frame(const wire::Footer& f = {}) {
  std::string payload;
  put_pod(payload, f);
  return frame(wire::FrameType::kFooter, payload);
}

inline std::string heartbeat_frame(const wire::Heartbeat& hb) {
  std::string payload;
  put_pod(payload, hb);
  return frame(wire::FrameType::kHeartbeat, payload);
}

}  // namespace xsp::trace::wiretest
