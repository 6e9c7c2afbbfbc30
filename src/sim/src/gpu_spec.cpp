#include "xsp/sim/gpu_spec.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

namespace xsp::sim {

const char* arch_name(GpuArch a) {
  switch (a) {
    case GpuArch::kMaxwell: return "Maxwell";
    case GpuArch::kPascal: return "Pascal";
    case GpuArch::kVolta: return "Volta";
    case GpuArch::kTuring: return "Turing";
  }
  return "?";
}

const char* arch_kernel_prefix(GpuArch a) {
  switch (a) {
    case GpuArch::kMaxwell:
    case GpuArch::kPascal:
      return "maxwell";
    case GpuArch::kVolta:
    case GpuArch::kTuring:
      return "volta";
  }
  return "?";
}

common::StrId ArchKernelName::operator[](GpuArch a) {
  std::array<char, 128> buf;
  return ids_.get(static_cast<std::size_t>(a), [&] {
    const std::string_view prefix = arch_kernel_prefix(a);
    if (prefix.size() + suffix_.size() > buf.size()) {
      throw std::length_error("ArchKernelName: kernel name too long");
    }
    std::memcpy(buf.data(), prefix.data(), prefix.size());
    std::memcpy(buf.data() + prefix.size(), suffix_.data(), suffix_.size());
    return std::string_view(buf.data(), prefix.size() + suffix_.size());
  });
}

namespace {

GpuSpec make_quadro_rtx() {
  GpuSpec s;
  s.name = "Quadro_RTX";
  s.cpu = "Intel Xeon E5-2630 v4 @ 2.20GHz";
  s.gpu = "Quadro RTX 6000";
  s.arch = GpuArch::kTuring;
  s.peak_tflops = 16.3;
  s.mem_bw_gbps = 624;
  s.sm_count = 72;
  s.l2_cache_bytes = 6.0 * 1024 * 1024;
  return s;
}

GpuSpec make_tesla_v100() {
  GpuSpec s;
  s.name = "Tesla_V100";
  s.cpu = "Intel Xeon E5-2686 v4 @ 2.30GHz";
  s.gpu = "Tesla V100-SXM2-16GB";
  s.arch = GpuArch::kVolta;
  s.peak_tflops = 15.7;
  s.mem_bw_gbps = 900;
  s.sm_count = 80;
  s.l2_cache_bytes = 6.0 * 1024 * 1024;
  s.pcie_bw_gbps = 40.0;  // NVLink-attached SXM2 board on the AWS P3
  return s;
}

GpuSpec make_tesla_p100() {
  GpuSpec s;
  s.name = "Tesla_P100";
  s.cpu = "Intel Xeon E5-2682 v4 @ 2.50GHz";
  s.gpu = "Tesla P100-PCIE-16GB";
  s.arch = GpuArch::kPascal;
  s.peak_tflops = 9.3;
  s.mem_bw_gbps = 732;
  s.sm_count = 56;
  s.l2_cache_bytes = 4.0 * 1024 * 1024;
  return s;
}

GpuSpec make_tesla_p4() {
  GpuSpec s;
  s.name = "Tesla_P4";
  s.cpu = "Intel Xeon E5-2682 v4 @ 2.50GHz";
  s.gpu = "Tesla P4";
  s.arch = GpuArch::kPascal;
  s.peak_tflops = 5.5;
  s.mem_bw_gbps = 192;
  s.sm_count = 20;
  s.l2_cache_bytes = 2.0 * 1024 * 1024;
  return s;
}

GpuSpec make_tesla_m60() {
  GpuSpec s;
  s.name = "Tesla_M60";
  s.cpu = "Intel Xeon E5-2686 v4 @ 2.30GHz";
  s.gpu = "Tesla M60";
  s.arch = GpuArch::kMaxwell;
  s.peak_tflops = 4.8;
  s.mem_bw_gbps = 160;
  s.sm_count = 16;
  s.l2_cache_bytes = 2.0 * 1024 * 1024;
  return s;
}

const std::array<GpuSpec, 5>& systems() {
  static const std::array<GpuSpec, 5> all = {make_quadro_rtx(), make_tesla_v100(),
                                             make_tesla_p100(), make_tesla_p4(),
                                             make_tesla_m60()};
  return all;
}

}  // namespace

const GpuSpec& quadro_rtx() { return systems()[0]; }
const GpuSpec& tesla_v100() { return systems()[1]; }
const GpuSpec& tesla_p100() { return systems()[2]; }
const GpuSpec& tesla_p4() { return systems()[3]; }
const GpuSpec& tesla_m60() { return systems()[4]; }

std::span<const GpuSpec> all_systems() { return systems(); }

const GpuSpec& system_by_name(const std::string& name) {
  for (const auto& s : systems()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown GPU system: " + name);
}

}  // namespace xsp::sim
