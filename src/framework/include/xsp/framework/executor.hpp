// Graph executor with two framework personalities.
//
// The paper's framework comparison (Section IV-B) attributes the measured
// TensorFlow/MXNet differences to two mechanisms, both modelled here:
//   * element-wise kernel provider: TF dispatches to Eigen kernels with
//     excess DRAM traffic; MXNet's kernels are leaner ("MXNet MobileNets
//     has fewer memory accesses and therefore a higher achieved GPU
//     occupancy"),
//   * per-inference engine overhead: "MXNet incurs a fixed overhead for
//     model execution which is more pronounced for small batch sizes"
//     (MXNet ResNet_v1_50 shows 4.44 ms non-GPU latency at batch 1 vs
//     2.18 ms for TensorFlow).
//
// The executor also hosts the framework profiler (the paper's layer-level
// profiling source): when enabled via RunOptions — the analogue of
// TensorFlow's RunOptions.TraceLevel / MXNet's MXSetProfilerState — it
// emits one LayerRecord per executed layer and charges the documented
// per-layer profiling overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xsp/common/string_table.hpp"
#include "xsp/common/time.hpp"
#include "xsp/dnn/ops.hpp"
#include "xsp/framework/layer.hpp"
#include "xsp/sim/device.hpp"

namespace xsp::framework {

enum class FrameworkKind : std::uint8_t {
  kTFlow,   ///< TensorFlow personality
  kMXLite,  ///< MXNet personality
};

const char* framework_name(FrameworkKind k);

/// Tunable per-framework behaviour. Defaults are calibrated against the
/// paper's Section IV-B observations.
struct FrameworkTraits {
  dnn::EwBackend ew_backend = dnn::EwBackend::kEigen;
  /// True lowers BatchNorm into Mul + Add runtime layers (TensorFlow).
  bool decompose_batchnorm = true;
  /// CPU cost of dispatching one layer (op lookup, tensor bookkeeping).
  Ns per_layer_dispatch_ns = us(12);
  /// Fixed per-inference engine cost (session setup, executor warmdown).
  Ns fixed_run_overhead_ns = us(200);
  /// Extra CPU cost per layer when the framework profiler is on — this is
  /// the overhead leveled experimentation subtracts out (Figure 2 shows
  /// 157 ms across ResNet50's 234 layers, ~0.67 ms per layer).
  Ns profiler_per_layer_ns = us(660);
};

FrameworkTraits traits_for(FrameworkKind kind);

/// One record emitted by the framework profiler — the layer-level data XSP
/// converts into spans (index, name, type, shape, latency, memory). Name,
/// type and shape tag are ids interned when the graph was built, so
/// record emission interns nothing.
struct LayerRecord {
  int index = 0;
  common::StrId name;
  common::StrId type;
  common::StrId shape;  ///< the layer's shape tag, "<n, c, h, w>"
  TimePoint begin = 0;
  TimePoint end = 0;
  double alloc_bytes = 0;

  [[nodiscard]] Ns latency() const noexcept { return end - begin; }
};

struct RunOptions {
  /// Enable the framework profiler (layer-level records + its overhead).
  bool enable_layer_profiling = false;
  /// Record the ML-library calls (cuDNN/cuBLAS/backend launches) each layer
  /// makes — the optional profiling level the paper's Section III-E places
  /// between the layer and GPU-kernel levels.
  bool enable_library_profiling = false;
};

/// One ML-library API call (cudnnConvolutionForward, cublasSgemm, ...)
/// with its CPU-side window.
struct LibraryCallRecord {
  common::StrId name;
  int layer_index = 0;
  TimePoint begin = 0;
  TimePoint end = 0;
};

struct RunResult {
  TimePoint begin = 0;  ///< model prediction start (TF_SessionRun entry)
  TimePoint end = 0;    ///< model prediction end
  std::vector<LayerRecord> layer_records;  ///< empty unless profiling was on
  std::vector<LibraryCallRecord> library_records;  ///< ditto (library level)

  [[nodiscard]] Ns latency() const noexcept { return end - begin; }
};

/// Executes Graphs on a simulated GPU with a framework personality.
class Executor {
 public:
  Executor(FrameworkKind kind, sim::GpuDevice& device);
  Executor(FrameworkTraits traits, std::string name, sim::GpuDevice& device);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const FrameworkTraits& traits() const noexcept { return traits_; }

  /// Run one inference (the model-prediction step only; input pre- and
  /// output post-processing live in the profiling harness above).
  RunResult run(const Graph& graph, const RunOptions& options = {});

 private:
  /// Launch the kernels of one layer; returns the number launched.
  int execute_layer(const Layer& layer);

  /// The library entry point a layer's device work goes through, interned
  /// once per process.
  static common::StrId library_call_name(const Layer& layer, dnn::EwBackend backend);

  FrameworkTraits traits_;
  std::string name_;
  sim::GpuDevice* device_;
};

}  // namespace xsp::framework
