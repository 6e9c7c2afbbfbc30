// GraphBuilder: composes runtime layer sequences with shape tracking.
//
// Builders emit the *runtime* graph a framework executes. The
// `decompose_batchnorm` switch reproduces the framework-specific lowering
// the paper observes: TensorFlow runs Conv2D -> Mul -> Add -> Relu
// sequences for ResNet's Conv -> BN -> Relu modules (Section III-D2),
// while MXNet keeps a fused BatchNorm layer.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "xsp/framework/layer.hpp"

namespace xsp::models {

using dnn::Shape4;
using framework::Graph;
using framework::Layer;
using framework::LayerType;

class GraphBuilder {
 public:
  GraphBuilder(std::string model_name, std::int64_t batch, bool decompose_batchnorm);

  /// The Data layer: placeholder + host->device input transfer.
  GraphBuilder& input(std::int64_t channels, std::int64_t h, std::int64_t w);

  /// Conv2D with square kernels; pad defaults to SAME-style (k/2).
  GraphBuilder& conv(std::int64_t out_channels, std::int64_t kernel, std::int64_t stride = 1,
                     std::int64_t pad = -1);

  /// Rectangular Conv2D (factorized 1x7/7x1 convolutions of the Inception
  /// family). SAME-style padding per dimension.
  GraphBuilder& conv_rect(std::int64_t out_channels, std::int64_t kernel_h,
                          std::int64_t kernel_w, std::int64_t stride = 1);

  /// DepthwiseConv2dNative (channel multiplier 1).
  GraphBuilder& depthwise(std::int64_t kernel, std::int64_t stride = 1, std::int64_t pad = -1);

  /// BatchNorm: Mul + Add layers (TF) or one FusedBatchNorm (MXNet).
  GraphBuilder& batch_norm();

  GraphBuilder& relu();
  GraphBuilder& sigmoid();
  GraphBuilder& tanh();

  /// Standalone BiasAdd over the current activation (bias-based models
  /// like VGG/AlexNet that carry no batch norm).
  GraphBuilder& bias();

  /// Residual element-wise add with another branch of the current shape.
  GraphBuilder& add();

  /// N-ary accumulation (DenseNet-style feature aggregation).
  GraphBuilder& add_n(int n_inputs);

  GraphBuilder& max_pool(std::int64_t window, std::int64_t stride);
  GraphBuilder& avg_pool(std::int64_t window, std::int64_t stride);
  /// Global average pooling to 1x1.
  GraphBuilder& global_avg_pool();

  /// Fully connected: MatMul (+BiasAdd). Flattens the current shape.
  GraphBuilder& fc(std::int64_t units, bool bias = true);

  GraphBuilder& softmax();

  /// Explicit padding layer growing H/W by `pad` on each side.
  GraphBuilder& pad_layer(std::int64_t pad);

  /// Channel concat: current shape's channels grow to `total_channels`.
  GraphBuilder& concat(std::int64_t total_channels, int n_inputs);

  GraphBuilder& transpose();

  /// Where-style reshuffle over the current tensor (detection pipelines).
  GraphBuilder& where();

  /// Bilinear resize to h x w.
  GraphBuilder& resize(std::int64_t h, std::int64_t w);

  GraphBuilder& reduce();
  GraphBuilder& reshape(const Shape4& new_shape);

  /// Current activation shape (for saving/restoring around branches).
  [[nodiscard]] const Shape4& shape() const noexcept { return cur_; }
  GraphBuilder& set_shape(const Shape4& s) {
    cur_ = s;
    return *this;
  }

  /// Number of layers emitted so far.
  [[nodiscard]] std::size_t layer_count() const noexcept { return graph_.layers.size(); }

  /// The finished graph, with each layer's shape tag interned: every
  /// Graph that is executed comes out of here.
  [[nodiscard]] Graph build() &&;
  /// The graph so far; shape tags are not set until build().
  [[nodiscard]] const Graph& peek() const noexcept { return graph_; }

 private:
  Layer& append(LayerType type, const Shape4& output);
  common::StrId next_name(LayerType type);

  Graph graph_;
  Shape4 cur_;
  bool decompose_batchnorm_;
  std::array<int, framework::kLayerTypeCount> type_counts_{};
};

}  // namespace xsp::models
