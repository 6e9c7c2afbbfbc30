// Kernel descriptors consumed by the simulated GPU device.
#pragma once

#include <cstdint>

#include "xsp/common/string_table.hpp"

namespace xsp::sim {

/// CUDA-style 3-component launch dimensions.
struct Dim3 {
  int x = 1;
  int y = 1;
  int z = 1;

  [[nodiscard]] std::int64_t total() const noexcept {
    return static_cast<std::int64_t>(x) * y * z;
  }
};

/// Broad kernel classes with distinct efficiency characteristics. The cost
/// model maps each class to attainable fractions of peak FLOPS / bandwidth.
enum class KernelClass : std::uint8_t {
  kConvImplicitGemm,         ///< cudnn::detail::implicit_convolve_sgemm
  kConvImplicitPrecompGemm,  ///< *_scudnn_128x*_relu_interior_nn_v1
  kConvFft,                  ///< *_cgemm_* (FFT-based convolution)
  kConvWinograd,             ///< *_winograd_* tiles
  kGemm,                     ///< *_sgemm_* dense matrix multiply
  kElementwise,              ///< Eigen/MShadow pointwise kernels
  kReduction,                ///< softmax/pooling style reductions
  kDataMovement,             ///< transpose/shuffle/concat/where
};

const char* kernel_class_name(KernelClass c);

/// Everything the device needs to execute (simulate) one kernel: identity,
/// geometry, and analytic work/traffic counts. The counts play the role of
/// the hardware performance counters CUPTI reads on real silicon. The name
/// is interned when the descriptor is built, so the descriptor is trivially
/// copyable and a launch carries the name as a 4-byte id.
struct KernelDesc {
  common::StrId name;
  KernelClass klass = KernelClass::kElementwise;
  Dim3 grid;
  Dim3 block;
  double flops = 0;             ///< single-precision flop count (flop_count_sp)
  double dram_read_bytes = 0;   ///< DRAM -> L2 traffic (dram_read_bytes)
  double dram_write_bytes = 0;  ///< L2 -> DRAM traffic (dram_write_bytes)
  int registers_per_thread = 64;
  int shared_mem_per_block_bytes = 0;
  /// Upper bound on achieved occupancy from effects the resource model
  /// does not capture (memory-stall limited issue, tail quantization).
  double occupancy_cap = 1.0;
  /// When positive, overrides the kernel class's attainable fraction of
  /// peak DRAM bandwidth (library-specific memory-subsystem efficiency,
  /// e.g. Eigen's strided access vs MXNet's packed kernels).
  double memory_efficiency_override = 0;

  [[nodiscard]] double total_dram_bytes() const noexcept {
    return dram_read_bytes + dram_write_bytes;
  }
};

/// A host<->device memory copy request.
struct MemcpyDesc {
  enum class Direction : std::uint8_t { kHostToDevice, kDeviceToHost, kDeviceToDevice };
  Direction direction = Direction::kHostToDevice;
  double bytes = 0;
};

const char* memcpy_direction_name(MemcpyDesc::Direction d);

}  // namespace xsp::sim
