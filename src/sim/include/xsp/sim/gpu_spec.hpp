// GPU system descriptions — the five systems of the paper's Table VII.
//
// "Five systems with Turing, Volta, Pascal, and Maxwell GPUs are selected
//  for evaluation. We calculate the ideal arithmetic intensity of each
//  system using the theoretic FLOPS and memory bandwidth reported by
//  NVIDIA."                                              — paper, Table VII
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "xsp/common/string_table.hpp"
#include "xsp/common/time.hpp"

namespace xsp::sim {

/// GPU micro-architecture generation. Drives which kernel family the DNN
/// library dispatches to (volta_* vs maxwell_* — paper, Section IV-C).
enum class GpuArch : std::uint8_t { kMaxwell, kPascal, kVolta, kTuring };

inline constexpr std::size_t kGpuArchCount = static_cast<std::size_t>(GpuArch::kTuring) + 1;

const char* arch_name(GpuArch a);

/// Kernel-name prefix cuDNN-style libraries use for an architecture.
/// "cuDNN uses optimized kernels for GPU generations after Volta"; older
/// generations fall back to the maxwell_* family (Section IV-C).
const char* arch_kernel_prefix(GpuArch a);

/// One kernel's interned name `<arch_kernel_prefix(a)><suffix>` per
/// architecture, e.g. "volta_sgemm_128x64_tn". Kernel builders hold one as
/// a function-local static: each architecture's name is composed and
/// interned on its first use, after which a descriptor picks it by index.
/// `suffix` must outlive it (a string literal). Throws std::length_error
/// when a composed name exceeds 128 bytes.
class ArchKernelName {
 public:
  explicit constexpr ArchKernelName(std::string_view suffix) : suffix_(suffix) {}

  [[nodiscard]] common::StrId operator[](GpuArch a);

 private:
  std::string_view suffix_;
  common::LazyStrIds<kGpuArchCount> ids_;
};

/// Static description of one GPU system (Table VII row).
struct GpuSpec {
  std::string name;  ///< system name as used in the paper, e.g. "Tesla_V100"
  std::string cpu;   ///< host CPU model
  std::string gpu;   ///< GPU board model
  GpuArch arch = GpuArch::kVolta;
  double peak_tflops = 0;   ///< theoretical single-precision TFLOPS
  double mem_bw_gbps = 0;   ///< global memory bandwidth, GB/s
  int sm_count = 0;         ///< number of streaming multiprocessors
  int max_warps_per_sm = 64;
  double l2_cache_bytes = 0;
  /// CPU-side cost of one kernel-launch runtime API call.
  Ns launch_api_ns = 3'500;
  /// Device-side latency between launch and kernel start when idle.
  Ns launch_latency_ns = 1'800;
  /// Host<->device copy bandwidth (PCIe / NVLink), GB/s.
  double pcie_bw_gbps = 11.0;

  /// peak FLOPS / memory bandwidth, in flops/byte. A kernel below this is
  /// memory-bound, above it compute-bound (roofline knee).
  [[nodiscard]] double ideal_arithmetic_intensity() const {
    return peak_tflops * 1e12 / (mem_bw_gbps * 1e9);
  }
};

/// The five Table VII systems.
const GpuSpec& quadro_rtx();
const GpuSpec& tesla_v100();
const GpuSpec& tesla_p100();
const GpuSpec& tesla_p4();
const GpuSpec& tesla_m60();

/// All five, in the paper's order.
std::span<const GpuSpec> all_systems();

/// Look up a system by its paper name ("Tesla_V100"); throws
/// std::invalid_argument if unknown.
const GpuSpec& system_by_name(const std::string& name);

}  // namespace xsp::sim
