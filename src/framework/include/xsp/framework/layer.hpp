// Layer and Graph: the framework-level representation of a model.
//
// A Graph is the *runtime* layer sequence the framework executes — which,
// as the paper stresses, can differ from the statically defined model
// graph ("a framework may perform model optimization at runtime",
// Section III-D2). For instance the TensorFlow personality lowers
// Conv -> BN -> Relu blocks into the Conv2D -> Mul -> Add -> Relu layer
// sequence observed in the paper's Figure 4.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "xsp/common/string_table.hpp"
#include "xsp/dnn/tensor.hpp"

namespace xsp::framework {

/// Runtime layer operator types (TensorFlow naming where applicable).
enum class LayerType : std::uint8_t {
  kData,           ///< input placeholder + host->device transfer
  kConv2D,
  kDepthwiseConv2D,
  kFusedBatchNorm,  ///< fused inference BN (MXNet keeps BN fused)
  kMul,             ///< BN scale, TF decomposition
  kAdd,             ///< BN shift / residual add
  kAddN,
  kRelu,
  kSigmoid,
  kTanh,
  kMatMul,
  kBiasAdd,
  kSoftmax,
  kMaxPool,
  kAvgPool,
  kPad,
  kConcat,
  kTranspose,
  kWhere,
  kResize,
  kReduce,
  kReshape,  ///< metadata-only
};

inline constexpr std::size_t kLayerTypeCount = static_cast<std::size_t>(LayerType::kReshape) + 1;

/// TensorFlow-style operator name ("Conv2D", "DepthwiseConv2dNative", ...).
const char* layer_type_name(LayerType t);
/// layer_type_name(t), interned once per process.
common::StrId layer_type_id(LayerType t);

/// The interned shape tag of a layer, "<n, c, h, w>".
common::StrId shape_tag_id(const dnn::Shape4& shape);

/// One runtime layer. Shape and parameter fields carry exactly what the
/// kernel builders need; unused fields stay at their defaults.
struct Layer {
  LayerType type = LayerType::kReshape;
  common::StrId name;
  /// shape_tag_id(output), set when models::GraphBuilder builds the graph,
  /// so profiling runs attach it to layer spans without formatting. The
  /// builder keeps a per-thread cache by Shape4 value, so each distinct
  /// shape is formatted and interned once, not once per layer.
  common::StrId shape_tag;
  dnn::Shape4 input;
  dnn::Shape4 output;
  /// Convolution / pooling geometry. `kernel_w2`/`pad_w2` of -1 mean a
  /// square kernel / symmetric padding; factorized 1x7/7x1 convolutions
  /// set them explicitly.
  std::int64_t kernel_hw = 1;
  std::int64_t kernel_w2 = -1;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t pad_w2 = -1;
  /// Contraction depth for MatMul (output.c = N dimension, matmul_k = K).
  std::int64_t matmul_k = 0;
  /// Dense inputs for AddN / Concat.
  int n_inputs = 1;
  /// Parameter (weight) bytes owned by this layer.
  double param_bytes = 0;

  /// Memory the framework allocates to execute this layer (the output
  /// tensor; frameworks do not run element-wise ops in place, which is why
  /// Relu shows up prominently in the paper's Figure 4c).
  [[nodiscard]] double alloc_bytes() const noexcept { return output.bytes(); }
};

/// The runtime layer sequence of one model at one batch size.
struct Graph {
  std::string model_name;
  std::vector<Layer> layers;  ///< execution order

  /// Sum of parameter bytes — the "frozen graph size" of Table VIII.
  [[nodiscard]] double graph_size_bytes() const noexcept {
    double total = 0;
    for (const auto& l : layers) total += l.param_bytes;
    return total;
  }

  [[nodiscard]] std::int64_t batch() const noexcept {
    return layers.empty() ? 0 : layers.front().input.n;
  }
};

}  // namespace xsp::framework
