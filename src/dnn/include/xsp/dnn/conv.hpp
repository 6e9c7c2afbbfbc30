// Convolution algorithms and the cuDNN-style selection heuristic.
//
// The paper repeatedly leans on cuDNN's behaviour:
//  * "For batch sizes less than 16, the cuDNN convolution API uses the
//     IMPLICIT_GEMM algorithm and invokes the GPU kernel
//     cudnn::detail::implicit_convolve_sgemm. ... For batch sizes greater
//     than 16, the cuDNN convolution API chooses ... IMPLICIT_PRECOMP_GEMM
//     ... which invokes volta_scudnn_128x64_relu_interior_nn_v1."
//                                                        — Section III-D3
//  * volta_cgemm_32x32_tn (FFT-style) serves the deep 7x7x512 layers of
//     ResNet50 at batch 256 (Table III, layers 208/221).
//  * Kernel families are architecture-prefixed (volta_* vs maxwell_*), and
//     the 128x64 vs 128x128 tile split differs between V100 and Quadro RTX
//     (Section IV-C).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "xsp/dnn/tensor.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/sim/kernel.hpp"

namespace xsp::dnn {

/// cuDNN-style convolution algorithm identifiers.
enum class ConvAlgo : std::uint8_t {
  kImplicitGemm,         ///< CUDNN_CONVOLUTION_FWD_ALGO_IMPLICIT_GEMM
  kImplicitPrecompGemm,  ///< CUDNN_CONVOLUTION_FWD_ALGO_IMPLICIT_PRECOMP_GEMM
  kFft,                  ///< CUDNN_CONVOLUTION_FWD_ALGO_FFT (cgemm kernels)
  kWinograd,             ///< CUDNN_CONVOLUTION_FWD_ALGO_WINOGRAD
};

const char* conv_algo_name(ConvAlgo a);

/// Forward-convolution problem description.
struct ConvParams {
  std::int64_t batch = 1;
  std::int64_t in_channels = 1;
  std::int64_t in_h = 1;
  std::int64_t in_w = 1;
  std::int64_t out_channels = 1;
  std::int64_t kernel_h = 1;
  std::int64_t kernel_w = 1;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  /// Per-dimension padding for rectangular kernels (1x7/7x1 factorized
  /// convolutions); -1 falls back to `pad`.
  std::int64_t pad_h = -1;
  std::int64_t pad_w = -1;
  /// groups == in_channels models DepthwiseConv2dNative.
  std::int64_t groups = 1;

  [[nodiscard]] std::int64_t effective_pad_h() const noexcept { return pad_h < 0 ? pad : pad_h; }
  [[nodiscard]] std::int64_t effective_pad_w() const noexcept { return pad_w < 0 ? pad : pad_w; }
  [[nodiscard]] std::int64_t out_h() const noexcept {
    return (in_h + 2 * effective_pad_h() - kernel_h) / stride + 1;
  }
  [[nodiscard]] std::int64_t out_w() const noexcept {
    return (in_w + 2 * effective_pad_w() - kernel_w) / stride + 1;
  }
  [[nodiscard]] Shape4 input_shape() const noexcept { return {batch, in_channels, in_h, in_w}; }
  [[nodiscard]] Shape4 output_shape() const noexcept {
    return {batch, out_channels, out_h(), out_w()};
  }
  [[nodiscard]] double weight_bytes() const noexcept {
    return static_cast<double>(out_channels * (in_channels / groups) * kernel_h * kernel_w) *
           kElementBytes;
  }
  /// Multiply-accumulate counted as 2 flops.
  [[nodiscard]] double flops() const noexcept {
    return 2.0 * static_cast<double>(batch) * static_cast<double>(out_channels) *
           static_cast<double>(out_h()) * static_cast<double>(out_w()) *
           static_cast<double>(in_channels / groups) * static_cast<double>(kernel_h) *
           static_cast<double>(kernel_w);
  }
};

/// The batch- and shape-driven selection heuristic described above.
ConvAlgo choose_conv_algo(const ConvParams& p, sim::GpuArch arch);

/// Tile variant of the IMPLICIT_PRECOMP_GEMM kernel. Volta favours the
/// 128x64 tile on problems where Turing's heuristics pick 128x128
/// (Section IV-C: V100 calls 128x64 34 times where Quadro RTX calls it 18
/// times, dispatching the rest to 128x128).
enum class ScudnnTile : std::uint8_t { k128x64, k128x128 };
ScudnnTile choose_scudnn_tile(const ConvParams& p, sim::GpuArch arch);

/// The kernels one convolution launches, in launch order: at most three.
/// Fixed capacity, so building a layer's launch sequence allocates nothing.
class ConvKernels {
 public:
  static constexpr std::size_t kCapacity = 3;

  /// Throws std::length_error past kCapacity.
  void push_back(const sim::KernelDesc& k) {
    if (size_ == kCapacity) throw std::length_error("ConvKernels: more than 3 kernels");
    kernels_[size_++] = k;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] const sim::KernelDesc& operator[](std::size_t i) const { return kernels_[i]; }
  [[nodiscard]] const sim::KernelDesc& back() const { return kernels_[size_ - 1]; }
  [[nodiscard]] const sim::KernelDesc* begin() const noexcept { return kernels_.data(); }
  [[nodiscard]] const sim::KernelDesc* end() const noexcept { return kernels_.data() + size_; }

 private:
  std::array<sim::KernelDesc, kCapacity> kernels_{};
  std::size_t size_ = 0;
};

/// The kernel sequence a convolution algorithm launches. The main kernel is
/// last; preceding kernels are the small setup launches (Figure 1 of the
/// paper shows ShuffleTensor and OffsetComp ahead of the scudnn kernel).
ConvKernels conv_kernels(const ConvParams& p, ConvAlgo algo, const sim::GpuSpec& gpu);

/// Convenience: kernels for the heuristically selected algorithm.
ConvKernels conv_kernels_auto(const ConvParams& p, const sim::GpuSpec& gpu);

}  // namespace xsp::dnn
