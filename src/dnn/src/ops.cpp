#include "xsp/dnn/ops.hpp"

#include <algorithm>

namespace xsp::dnn {

namespace {

std::int64_t cdiv(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

int grid_for(std::int64_t work_items, std::int64_t per_block) {
  return static_cast<int>(std::max<std::int64_t>(1, cdiv(work_items, per_block)));
}

/// Eigen kernels move more DRAM traffic than the math strictly requires
/// (broadcast materialization, index tensors); MXNet's mshadow kernels are
/// close to the compulsory traffic.
struct BackendTraits {
  double read_factor;
  double write_factor;
  double occupancy_cap;
  double memory_efficiency;  ///< attainable fraction of peak DRAM bandwidth
};

BackendTraits backend_traits(EwBackend b) {
  switch (b) {
    case EwBackend::kEigen: return {1.08, 1.18, 0.50, 0.62};
    case EwBackend::kMxMath: return {1.00, 1.00, 0.64, 0.76};
  }
  return {1.0, 1.0, 1.0, 0.7};
}

const char* ew_kernel_text(EwOp op, EwBackend b) {
  if (b == EwBackend::kEigen) {
    switch (op) {
      case EwOp::kMul: return "Eigen::TensorCwiseBinaryOp<scalar_product_op>";
      case EwOp::kAdd: return "Eigen::TensorCwiseBinaryOp<scalar_sum_op>";
      case EwOp::kMax: return "Eigen::TensorCwiseBinaryOp<scalar_max_op>";
      case EwOp::kRelu: return "Eigen::TensorCwiseUnaryOp<scalar_relu_op>";
      case EwOp::kAddN: return "Eigen::TensorCwiseNaryOp<scalar_sum_op>";
      case EwOp::kSigmoid: return "Eigen::TensorCwiseUnaryOp<scalar_logistic_op>";
      case EwOp::kTanh: return "Eigen::TensorCwiseUnaryOp<scalar_tanh_op>";
    }
  }
  switch (op) {
    case EwOp::kMul: return "mxnet::op::mxnet_generic_kernel<mshadow_op::mul>";
    case EwOp::kAdd: return "mxnet::op::mxnet_generic_kernel<mshadow_op::plus>";
    case EwOp::kMax: return "mxnet::op::mxnet_generic_kernel<mshadow_op::maximum>";
    case EwOp::kRelu: return "mxnet::op::mxnet_generic_kernel<mshadow_op::relu>";
    case EwOp::kAddN: return "mxnet::op::ElementWiseSumKernel";
    case EwOp::kSigmoid: return "mxnet::op::mxnet_generic_kernel<mshadow_op::sigmoid>";
    case EwOp::kTanh: return "mxnet::op::mxnet_generic_kernel<mshadow_op::tanh>";
  }
  return "?";
}

constexpr std::size_t kEwOpCount = static_cast<std::size_t>(EwOp::kTanh) + 1;

/// ew_kernel_text(op, b), interned once per process.
common::StrId ew_kernel_name(EwOp op, EwBackend b) {
  static common::LazyStrIds<2 * kEwOpCount> ids;
  return ids.get(2 * static_cast<std::size_t>(op) + (b == EwBackend::kEigen ? 0 : 1),
                 [=] { return ew_kernel_text(op, b); });
}

/// Flops per output element. Comparisons are not floating-point operations,
/// so max/relu count zero — exactly what Table IV shows for scalar_max_op.
double ew_flops_per_element(EwOp op, int n_inputs) {
  switch (op) {
    case EwOp::kMul:
    case EwOp::kAdd:
      return 1.0;
    case EwOp::kMax:
    case EwOp::kRelu:
      return 0.0;
    case EwOp::kAddN:
      return std::max(1, n_inputs - 1);
    case EwOp::kSigmoid:
    case EwOp::kTanh:
      return 8.0;  // exp/division expansion
  }
  return 0.0;
}

}  // namespace

const char* ew_op_name(EwOp op) {
  switch (op) {
    case EwOp::kMul: return "Mul";
    case EwOp::kAdd: return "Add";
    case EwOp::kMax: return "Max";
    case EwOp::kRelu: return "Relu";
    case EwOp::kAddN: return "AddN";
    case EwOp::kSigmoid: return "Sigmoid";
    case EwOp::kTanh: return "Tanh";
  }
  return "?";
}

sim::KernelDesc elementwise_kernel(EwOp op, const Shape4& out, int n_inputs, EwBackend backend) {
  const BackendTraits t = backend_traits(backend);
  sim::KernelDesc k;
  k.name = ew_kernel_name(op, backend);
  k.klass = sim::KernelClass::kElementwise;
  k.grid = {grid_for(out.elements(), 1024), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 28;
  k.occupancy_cap = (op == EwOp::kMax || op == EwOp::kRelu) && backend == EwBackend::kEigen
                        ? 0.985  // Table IV: scalar_max_op achieves 98.4%
                        : t.occupancy_cap;
  k.memory_efficiency_override = t.memory_efficiency;
  k.flops = static_cast<double>(out.elements()) * ew_flops_per_element(op, n_inputs);
  k.dram_read_bytes = out.bytes() * std::max(1, n_inputs) * t.read_factor;
  k.dram_write_bytes = out.bytes() * t.write_factor;
  return k;
}

sim::KernelDesc gemm_kernel(std::int64_t m, std::int64_t n, std::int64_t k_dim,
                            const sim::GpuSpec& gpu) {
  sim::KernelDesc k;
  static sim::ArchKernelName kName("_sgemm_128x64_tn");
  k.name = kName[gpu.arch];
  k.klass = sim::KernelClass::kGemm;
  k.grid = {static_cast<int>(cdiv(m, 128) * cdiv(n, 64)), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 122;
  k.occupancy_cap = 0.24;
  k.flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k_dim);
  const double a_bytes = static_cast<double>(m) * static_cast<double>(k_dim) * kElementBytes;
  const double b_bytes = static_cast<double>(k_dim) * static_cast<double>(n) * kElementBytes;
  const double c_bytes = static_cast<double>(m) * static_cast<double>(n) * kElementBytes;
  const double passes = std::clamp(static_cast<double>(cdiv(n, 64)) * 0.25, 1.0, 1.5);
  k.dram_read_bytes = a_bytes * passes + b_bytes;
  k.dram_write_bytes = c_bytes;
  return k;
}

sim::KernelDesc bias_add_kernel(const Shape4& out, EwBackend backend) {
  sim::KernelDesc k = elementwise_kernel(EwOp::kAdd, out, 1, backend);
  static const common::StrId kEigenName("tensorflow::BiasNCHWKernel");
  static const common::StrId kMxName("mxnet::op::bias_kernel");
  k.name = backend == EwBackend::kEigen ? kEigenName : kMxName;
  return k;
}

sim::KernelDesc pooling_kernel(const Shape4& in, std::int64_t window, std::int64_t stride,
                               bool average, const sim::GpuSpec& gpu) {
  const std::int64_t out_h = std::max<std::int64_t>(1, (in.h - window) / std::max<std::int64_t>(1, stride) + 1);
  const std::int64_t out_w = std::max<std::int64_t>(1, (in.w - window) / std::max<std::int64_t>(1, stride) + 1);
  const Shape4 out{in.n, in.c, out_h, out_w};
  sim::KernelDesc k;
  static const common::StrId kAvgName("cudnn::pooling_fw_4d_kernel<AVG>");
  static const common::StrId kMaxName("cudnn::pooling_fw_4d_kernel<MAX>");
  k.name = average ? kAvgName : kMaxName;
  k.klass = sim::KernelClass::kReduction;
  k.grid = {grid_for(out.elements(), 256), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 32;
  k.occupancy_cap = 0.62;
  k.flops = average ? static_cast<double>(out.elements()) * static_cast<double>(window * window)
                    : 0.0;
  k.dram_read_bytes = in.bytes();
  k.dram_write_bytes = out.bytes();
  (void)gpu;
  return k;
}

sim::KernelDesc softmax_kernel(const Shape4& in, const sim::GpuSpec& gpu) {
  sim::KernelDesc k;
  static const common::StrId kName("cudnn::softmax_fw_kernel");
  k.name = kName;
  k.klass = sim::KernelClass::kReduction;
  k.grid = {grid_for(in.n, 4), 1, 1};
  k.block = {128, 1, 1};
  k.registers_per_thread = 30;
  k.occupancy_cap = 0.5;
  k.flops = static_cast<double>(in.elements()) * 10.0;  // exp + normalize
  k.dram_read_bytes = in.bytes() * 2;                   // max pass + exp pass
  k.dram_write_bytes = in.bytes();
  (void)gpu;
  return k;
}

sim::KernelDesc batchnorm_inference_kernel(const Shape4& in, const sim::GpuSpec& gpu) {
  sim::KernelDesc k;
  static const common::StrId kName("cudnn::bn_fw_inf_1C11_kernel_NCHW");
  k.name = kName;
  k.klass = sim::KernelClass::kElementwise;
  k.grid = {grid_for(in.elements(), 1024), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 32;
  k.occupancy_cap = 0.64;
  k.flops = static_cast<double>(in.elements()) * 2.0;  // scale + shift fused
  k.dram_read_bytes = in.bytes();
  k.dram_write_bytes = in.bytes();
  (void)gpu;
  return k;
}

sim::KernelDesc depthwise_conv_kernel(const Shape4& in, const Shape4& out, std::int64_t kernel_hw,
                                      const sim::GpuSpec& gpu) {
  sim::KernelDesc k;
  static const common::StrId kName("tensorflow::DepthwiseConv2dGPUKernelNCHW");
  k.name = kName;
  k.klass = sim::KernelClass::kConvImplicitGemm;
  k.grid = {grid_for(out.elements(), 512), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 48;
  k.occupancy_cap = 0.44;
  k.flops = 2.0 * static_cast<double>(out.elements()) * static_cast<double>(kernel_hw * kernel_hw);
  k.dram_read_bytes = in.bytes() * 1.3 +
                      static_cast<double>(out.c * kernel_hw * kernel_hw) * kElementBytes;
  k.dram_write_bytes = out.bytes();
  (void)gpu;
  return k;
}

sim::KernelDesc transpose_kernel(const Shape4& in, const sim::GpuSpec& gpu) {
  sim::KernelDesc k;
  static const common::StrId kName("tensorflow::SwapDimension1And2InTensor3");
  k.name = kName;
  k.klass = sim::KernelClass::kDataMovement;
  k.grid = {grid_for(in.elements(), 512), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 24;
  k.occupancy_cap = 0.72;
  k.dram_read_bytes = in.bytes() * 1.15;  // partially uncoalesced
  k.dram_write_bytes = in.bytes() * 1.15;
  (void)gpu;
  return k;
}

sim::KernelDesc where_kernel(std::int64_t elements, const sim::GpuSpec& gpu) {
  sim::KernelDesc k;
  static const common::StrId kName("tensorflow::WhereCudaKernel");
  k.name = kName;
  k.klass = sim::KernelClass::kDataMovement;
  k.grid = {grid_for(elements, 256), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 32;
  k.occupancy_cap = 0.38;
  const double bytes = static_cast<double>(elements) * kElementBytes;
  k.dram_read_bytes = bytes * 2.6;  // predicate + gather with poor locality
  k.dram_write_bytes = bytes * 1.4;
  (void)gpu;
  return k;
}

sim::KernelDesc concat_kernel(const Shape4& out, const sim::GpuSpec& gpu) {
  sim::KernelDesc k;
  static const common::StrId kName("tensorflow::concat_variable_kernel");
  k.name = kName;
  k.klass = sim::KernelClass::kDataMovement;
  k.grid = {grid_for(out.elements(), 1024), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 24;
  k.occupancy_cap = 0.70;
  k.dram_read_bytes = out.bytes();
  k.dram_write_bytes = out.bytes();
  (void)gpu;
  return k;
}

sim::KernelDesc reduce_kernel(const Shape4& in, const sim::GpuSpec& gpu) {
  sim::KernelDesc k;
  static const common::StrId kName("cub::DeviceReduceKernel");
  k.name = kName;
  k.klass = sim::KernelClass::kReduction;
  k.grid = {grid_for(in.elements(), 2048), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 40;
  k.occupancy_cap = 0.55;
  k.flops = static_cast<double>(in.elements());
  k.dram_read_bytes = in.bytes();
  k.dram_write_bytes = in.bytes() / 64.0;
  (void)gpu;
  return k;
}

sim::KernelDesc resize_kernel(const Shape4& out, const sim::GpuSpec& gpu) {
  sim::KernelDesc k;
  static const common::StrId kName("tensorflow::ResizeBilinearKernel");
  k.name = kName;
  k.klass = sim::KernelClass::kElementwise;
  k.grid = {grid_for(out.elements(), 512), 1, 1};
  k.block = {256, 1, 1};
  k.registers_per_thread = 36;
  k.occupancy_cap = 0.6;
  k.flops = static_cast<double>(out.elements()) * 8.0;  // 4-tap lerp
  k.dram_read_bytes = out.bytes() * 1.5;
  k.dram_write_bytes = out.bytes();
  (void)gpu;
  return k;
}

}  // namespace xsp::dnn
