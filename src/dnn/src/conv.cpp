#include "xsp/dnn/conv.hpp"

#include <algorithm>
#include <cmath>

namespace xsp::dnn {

namespace {

/// Ceiling division for positive integers.
std::int64_t cdiv(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// How many times the input is streamed from DRAM: output-channel tile
/// passes that miss in L2 re-read the input, but inter-tile reuse through
/// L2 keeps the effective amplification small on real kernels.
double input_read_amplification(const ConvParams& p, const sim::GpuSpec& gpu,
                                std::int64_t tile_n) {
  const double input_bytes = p.input_shape().bytes();
  if (input_bytes <= gpu.l2_cache_bytes) return 1.0;
  const auto passes = static_cast<double>(cdiv(p.out_channels, tile_n));
  return std::clamp(1.0 + 0.15 * (passes - 1.0), 1.0, 1.6);
}

}  // namespace

const char* conv_algo_name(ConvAlgo a) {
  switch (a) {
    case ConvAlgo::kImplicitGemm: return "IMPLICIT_GEMM";
    case ConvAlgo::kImplicitPrecompGemm: return "IMPLICIT_PRECOMP_GEMM";
    case ConvAlgo::kFft: return "FFT";
    case ConvAlgo::kWinograd: return "WINOGRAD";
  }
  return "?";
}

ConvAlgo choose_conv_algo(const ConvParams& p, sim::GpuArch arch) {
  // 1x1 convolutions are plain GEMMs; the precomputed-offset variant wins
  // at every batch size.
  if (p.kernel_h == 1 && p.kernel_w == 1) return ConvAlgo::kImplicitPrecompGemm;

  // Deep, spatially tiny layers with large batch: FFT-based cgemm
  // (Table III shows volta_cgemm_32x32_tn on the 512-channel 7x7 layers of
  // ResNet50 at batch 256).
  if (p.batch >= 128 && p.in_channels >= 512 && p.in_h <= 8 && p.in_w <= 8 &&
      p.kernel_h >= 3 && p.stride == 1) {
    return ConvAlgo::kFft;
  }

  // The paper's batch-size split (Section III-D3). Pre-Volta parts lack the
  // fast precomputed path for the smallest batches too, but cuDNN's
  // heuristic keys primarily on the GEMM M-dimension = N*OH*OW.
  (void)arch;
  if (p.batch < 16) return ConvAlgo::kImplicitGemm;
  return ConvAlgo::kImplicitPrecompGemm;
}

ScudnnTile choose_scudnn_tile(const ConvParams& p, sim::GpuArch arch) {
  const std::int64_t gemm_m = p.batch * p.out_h() * p.out_w();
  if (arch == sim::GpuArch::kTuring) {
    // Turing's heuristic promotes mid-size channel counts to the wider
    // tile, which is why Quadro RTX dispatches fewer 128x64 calls than
    // V100 on the same model (Section IV-C).
    return (p.out_channels >= 256 && gemm_m >= 4096) ? ScudnnTile::k128x128
                                                     : ScudnnTile::k128x64;
  }
  return (p.out_channels >= 512 && gemm_m >= 8192) ? ScudnnTile::k128x128 : ScudnnTile::k128x64;
}

ConvKernels conv_kernels(const ConvParams& p, ConvAlgo algo, const sim::GpuSpec& gpu) {
  using sim::KernelClass;
  using sim::KernelDesc;

  const double in_bytes = p.input_shape().bytes();
  const double out_bytes = p.output_shape().bytes();
  const double w_bytes = p.weight_bytes();
  const double flops = p.flops();

  ConvKernels kernels;

  switch (algo) {
    case ConvAlgo::kImplicitGemm: {
      KernelDesc k;
      static const common::StrId kImplicitGemmName("cudnn::detail::implicit_convolve_sgemm");
      k.name = kImplicitGemmName;
      k.klass = KernelClass::kConvImplicitGemm;
      const std::int64_t gemm_m = p.batch * p.out_h() * p.out_w();
      k.grid = {static_cast<int>(cdiv(gemm_m, 64) * cdiv(p.out_channels, 64)), 1, 1};
      k.block = {128, 1, 1};
      k.registers_per_thread = 110;
      k.occupancy_cap = 0.36;
      k.flops = flops;
      // Without precomputed offsets the kernel re-reads input rows per
      // filter tap neighbourhood: high arithmetic intensity but extra
      // input traffic relative to the precomp variant.
      k.dram_read_bytes = in_bytes * std::min(6.0, input_read_amplification(p, gpu, 64) * 1.5) +
                          w_bytes;
      k.dram_write_bytes = out_bytes;
      kernels.push_back(k);
      break;
    }

    case ConvAlgo::kImplicitPrecompGemm: {
      const ScudnnTile tile = choose_scudnn_tile(p, gpu.arch);
      const std::int64_t tile_n = tile == ScudnnTile::k128x64 ? 64 : 128;

      // Setup launch 1: input layout shuffle (Figure 1's "ShuffleTensor").
      KernelDesc shuffle;
      static const common::StrId kShuffleName("ShuffleInTensor3Simple");
      shuffle.name = kShuffleName;
      shuffle.klass = KernelClass::kDataMovement;
      shuffle.grid = {static_cast<int>(cdiv(p.input_shape().elements(), 1024)), 1, 1};
      shuffle.block = {256, 1, 1};
      shuffle.registers_per_thread = 24;
      const double shuffle_bytes = std::min(in_bytes, 64e6) * 0.25;
      shuffle.dram_read_bytes = shuffle_bytes;
      shuffle.dram_write_bytes = shuffle_bytes;
      kernels.push_back(shuffle);

      // Setup launch 2: offset precomputation (Figure 1's "OffsetComp").
      KernelDesc offsets;
      static const common::StrId kOffsetsName("computeOffsetsKernel");
      offsets.name = kOffsetsName;
      offsets.klass = KernelClass::kDataMovement;
      offsets.grid = {static_cast<int>(cdiv(p.kernel_h * p.kernel_w * p.in_channels, 256)), 1, 1};
      offsets.block = {256, 1, 1};
      offsets.registers_per_thread = 16;
      offsets.dram_write_bytes =
          static_cast<double>(p.kernel_h * p.kernel_w * p.in_channels) * 4.0;
      kernels.push_back(offsets);

      KernelDesc main;
      static sim::ArchKernelName k128x64("_scudnn_128x64_relu_interior_nn_v1");
      static sim::ArchKernelName k128x128("_scudnn_128x128_relu_interior_nn_v1");
      main.name = (tile == ScudnnTile::k128x64 ? k128x64 : k128x128)[gpu.arch];
      main.klass = KernelClass::kConvImplicitPrecompGemm;
      const std::int64_t gemm_m = p.batch * p.out_h() * p.out_w();
      main.grid = {static_cast<int>(cdiv(gemm_m, 128) * cdiv(p.out_channels, tile_n)), 1, 1};
      main.block = {256, 1, 1};
      main.registers_per_thread = 128;
      main.occupancy_cap = tile == ScudnnTile::k128x64 ? 0.23 : 0.155;
      main.flops = flops;
      main.dram_read_bytes = in_bytes * input_read_amplification(p, gpu, tile_n) + w_bytes;
      main.dram_write_bytes = out_bytes;
      kernels.push_back(main);
      break;
    }

    case ConvAlgo::kFft: {
      // Transform, complex GEMM, inverse transform.
      KernelDesc fwd;
      static const common::StrId kFwdName("fft2d_r2c_16x16");
      fwd.name = kFwdName;
      fwd.klass = KernelClass::kDataMovement;
      fwd.grid = {static_cast<int>(cdiv(p.input_shape().elements(), 512)), 1, 1};
      fwd.block = {256, 1, 1};
      fwd.registers_per_thread = 40;
      fwd.flops = static_cast<double>(p.input_shape().elements()) * 10.0;
      fwd.dram_read_bytes = in_bytes + w_bytes;
      fwd.dram_write_bytes = (in_bytes + w_bytes) * 1.25;  // complex halves padded
      kernels.push_back(fwd);

      KernelDesc cgemm;
      static sim::ArchKernelName kCgemmName("_cgemm_32x32_tn");
      cgemm.name = kCgemmName[gpu.arch];
      cgemm.klass = KernelClass::kConvFft;
      const std::int64_t gemm_m = p.batch * p.out_h() * p.out_w();
      cgemm.grid = {static_cast<int>(cdiv(gemm_m, 32) * cdiv(p.out_channels, 32)), 1, 1};
      cgemm.block = {256, 1, 1};
      cgemm.registers_per_thread = 255;
      cgemm.occupancy_cap = 0.122;
      // Complex multiply-add costs ~4x the real flops per point but the
      // transform removes the filter-tap factor; net ~1.3x the direct count
      // on these shapes (Table III: 77.4 vs 59.2 Gflops).
      cgemm.flops = flops * 1.31;
      cgemm.dram_read_bytes = (in_bytes + w_bytes) * 0.6;
      cgemm.dram_write_bytes = out_bytes * 0.35;
      kernels.push_back(cgemm);

      KernelDesc inv;
      static const common::StrId kInvName("fft2d_c2r_16x16");
      inv.name = kInvName;
      inv.klass = KernelClass::kDataMovement;
      inv.grid = {static_cast<int>(cdiv(p.output_shape().elements(), 512)), 1, 1};
      inv.block = {256, 1, 1};
      inv.registers_per_thread = 40;
      inv.flops = static_cast<double>(p.output_shape().elements()) * 10.0;
      inv.dram_read_bytes = out_bytes * 1.25;
      inv.dram_write_bytes = out_bytes;
      kernels.push_back(inv);
      break;
    }

    case ConvAlgo::kWinograd: {
      KernelDesc k;
      static sim::ArchKernelName kWinogradName(
          "_scudnn_winograd_128x128_ldg1_ldg4_relu_tile148t_nt_v1");
      k.name = kWinogradName[gpu.arch];
      k.klass = KernelClass::kConvWinograd;
      const std::int64_t tiles = cdiv(p.out_h(), 4) * cdiv(p.out_w(), 4) * p.batch;
      k.grid = {static_cast<int>(cdiv(tiles, 32) * cdiv(p.out_channels, 128)), 1, 1};
      k.block = {256, 1, 1};
      k.registers_per_thread = 168;
      k.occupancy_cap = 0.19;
      k.flops = flops * 0.58;  // Winograd F(4x4,3x3) multiply reduction
      k.dram_read_bytes = in_bytes * 1.6 + w_bytes * 2.0;
      k.dram_write_bytes = out_bytes * 1.15;
      kernels.push_back(k);
      break;
    }
  }
  return kernels;
}

ConvKernels conv_kernels_auto(const ConvParams& p, const sim::GpuSpec& gpu) {
  return conv_kernels(p, choose_conv_algo(p, gpu.arch), gpu);
}

}  // namespace xsp::dnn
