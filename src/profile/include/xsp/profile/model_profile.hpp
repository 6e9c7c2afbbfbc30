// ModelProfile: the merged, accurate, analysis-facing view of one model
// evaluation, assembled from the leveled-experimentation runs.
//
// Leveled experimentation (paper Section III-C): profilers at level n are
// accurate when profilers up to exactly level n are enabled. XSP therefore
// merges:
//   * the model latency from the M-only run,
//   * the per-layer records from the M/L run,
//   * the per-kernel records (and their layer correlation) from the
//     M/L/G run,
// and quantifies each level's profiling overhead by subtraction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xsp/common/string_table.hpp"
#include "xsp/common/time.hpp"
#include "xsp/profile/session.hpp"

namespace xsp::profile {

/// One GPU kernel (or memcpy) invocation, correlated to its layer. Names
/// are interned StrIds so analyses aggregate by 32-bit id comparison; use
/// .str()/.view() at presentation boundaries.
struct KernelView {
  common::StrId name;
  int layer_index = -1;  ///< -1 when no layer profile was available
  Ns latency = 0;
  double flops = 0;
  double dram_read_bytes = 0;
  double dram_write_bytes = 0;
  double achieved_occupancy = 0;
  bool is_memcpy = false;

  [[nodiscard]] double dram_bytes() const noexcept { return dram_read_bytes + dram_write_bytes; }
};

/// One executed layer with its (accurate) latency, memory allocation, and
/// aggregated GPU-kernel statistics. Its kernels are the KernelViews whose
/// layer_index equals its (non-negative) index.
struct LayerView {
  int index = 0;
  common::StrId name;
  common::StrId type;   ///< "Conv2D", "Mul", ...
  common::StrId shape;  ///< output shape, "<256, 512, 7, 7>"
  Ns latency = 0;     ///< from the M/L run (accurate at layer level)
  double alloc_bytes = 0;

  // Aggregates over the layer's kernels, from the M/L/G run.
  Ns kernel_latency = 0;
  double flops = 0;
  double dram_read_bytes = 0;
  double dram_write_bytes = 0;
  /// Weighted (by kernel latency) achieved occupancy, as the paper's A11.
  double achieved_occupancy = 0;

  [[nodiscard]] Ns non_gpu_latency() const noexcept {
    const Ns d = latency - kernel_latency;
    return d > 0 ? d : 0;
  }
  [[nodiscard]] double dram_bytes() const noexcept { return dram_read_bytes + dram_write_bytes; }
};

struct ModelProfile {
  std::string model_name;
  std::string system_name;
  std::string framework_name;
  std::int64_t batch = 1;

  Ns model_latency = 0;     ///< accurate (M-only run)
  Ns pipeline_latency = 0;  ///< pre + predict + post (M-only run)
  std::vector<LayerView> layers;
  std::vector<KernelView> kernels;

  /// Overheads quantified by leveled experimentation.
  Ns layer_profiling_overhead = 0;  ///< (M/L latency) - (M latency)
  Ns gpu_profiling_overhead = 0;    ///< (M/L/G latency) - (M/L latency)

  /// Total latency of all GPU *kernel* calls (memcpys excluded), i.e. the
  /// "GPU latency" of the paper's Table IX.
  [[nodiscard]] Ns total_kernel_latency() const noexcept;
  [[nodiscard]] double total_flops() const noexcept;
  [[nodiscard]] double total_dram_reads() const noexcept;
  [[nodiscard]] double total_dram_writes() const noexcept;
  /// Latency-weighted achieved occupancy across all kernels.
  [[nodiscard]] double weighted_occupancy() const noexcept;
};

/// Merge the three leveled runs into the accurate profile. `ml` and `mlg`
/// may be default-constructed (empty timelines) when those levels were not
/// profiled; the merged profile then simply lacks layers/kernels.
ModelProfile merge_runs(const RunTrace& m, const RunTrace& ml, const RunTrace& mlg,
                        std::string model_name, std::string system_name,
                        std::string framework_name, std::int64_t batch);

}  // namespace xsp::profile
