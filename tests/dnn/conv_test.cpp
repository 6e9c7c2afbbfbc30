#include "xsp/dnn/conv.hpp"

#include <gtest/gtest.h>

namespace xsp::dnn {
namespace {

ConvParams resnet_first_conv(std::int64_t batch) {
  ConvParams p;
  p.batch = batch;
  p.in_channels = 3;
  p.in_h = 224;
  p.in_w = 224;
  p.out_channels = 64;
  p.kernel_h = 7;
  p.kernel_w = 7;
  p.stride = 2;
  p.pad = 3;
  return p;
}

ConvParams deep_7x7_conv(std::int64_t batch) {
  // ResNet50's conv2d_48 shape family: 512 channels at 7x7 spatial.
  ConvParams p;
  p.batch = batch;
  p.in_channels = 512;
  p.in_h = 7;
  p.in_w = 7;
  p.out_channels = 512;
  p.kernel_h = 3;
  p.kernel_w = 3;
  p.stride = 1;
  p.pad = 1;
  return p;
}

TEST(ConvParams, OutputGeometry) {
  const auto p = resnet_first_conv(1);
  EXPECT_EQ(p.out_h(), 112);
  EXPECT_EQ(p.out_w(), 112);
  EXPECT_EQ(p.output_shape(), (Shape4{1, 64, 112, 112}));
}

TEST(ConvParams, FlopCount) {
  // 2 * N * K * C * R * S * OH * OW.
  ConvParams p;
  p.batch = 2;
  p.in_channels = 16;
  p.in_h = 8;
  p.in_w = 8;
  p.out_channels = 32;
  p.kernel_h = 3;
  p.kernel_w = 3;
  p.pad = 1;
  EXPECT_DOUBLE_EQ(p.flops(), 2.0 * 2 * 32 * 8 * 8 * 16 * 3 * 3);
}

TEST(ConvParams, DepthwiseGroupsReduceFlops) {
  ConvParams dense;
  dense.batch = 1;
  dense.in_channels = 32;
  dense.in_h = 16;
  dense.in_w = 16;
  dense.out_channels = 32;
  dense.kernel_h = 3;
  dense.kernel_w = 3;
  dense.pad = 1;
  ConvParams depthwise = dense;
  depthwise.groups = 32;
  EXPECT_DOUBLE_EQ(depthwise.flops() * 32, dense.flops());
}

TEST(ConvAlgo, SmallBatchUsesImplicitGemm) {
  // Section III-D3: "For batch sizes less than 16, the cuDNN convolution
  // API uses the IMPLICIT_GEMM algorithm".
  for (std::int64_t b : {1, 2, 4, 8}) {
    EXPECT_EQ(choose_conv_algo(deep_7x7_conv(b), sim::GpuArch::kVolta),
              ConvAlgo::kImplicitGemm)
        << "batch " << b;
  }
}

TEST(ConvAlgo, LargeBatchUsesPrecompGemm) {
  ConvParams p = deep_7x7_conv(64);
  p.in_channels = 256;  // below the FFT trigger
  for (std::int64_t b : {16, 32, 64}) {
    p.batch = b;
    EXPECT_EQ(choose_conv_algo(p, sim::GpuArch::kVolta), ConvAlgo::kImplicitPrecompGemm)
        << "batch " << b;
  }
}

TEST(ConvAlgo, DeepTinySpatialLargeBatchUsesFft) {
  // Table III: volta_cgemm_32x32_tn serves the 512-channel 7x7 layers of
  // ResNet50 at batch 256.
  EXPECT_EQ(choose_conv_algo(deep_7x7_conv(256), sim::GpuArch::kVolta), ConvAlgo::kFft);
}

TEST(ConvAlgo, OneByOneConvAlwaysPrecomp) {
  ConvParams p = deep_7x7_conv(1);
  p.kernel_h = p.kernel_w = 1;
  p.pad = 0;
  EXPECT_EQ(choose_conv_algo(p, sim::GpuArch::kVolta), ConvAlgo::kImplicitPrecompGemm);
}

TEST(ConvKernels, PrecompGemmLaunchesSetupKernels) {
  // Figure 1: the first Conv layer launches ShuffleTensor, OffsetComp, and
  // the main scudnn kernel.
  const auto kernels =
      conv_kernels(resnet_first_conv(256), ConvAlgo::kImplicitPrecompGemm, sim::tesla_v100());
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_NE(kernels[0].name.view().find("Shuffle"), std::string_view::npos);
  EXPECT_NE(kernels[1].name.view().find("Offsets"), std::string_view::npos);
  EXPECT_NE(kernels[2].name.view().find("volta_scudnn_128x"), std::string_view::npos);
  // The main kernel carries all the flops.
  EXPECT_DOUBLE_EQ(kernels[2].flops, resnet_first_conv(256).flops());
}

TEST(ConvKernels, FftLaunchesTransformsAroundCgemm) {
  const auto kernels = conv_kernels(deep_7x7_conv(256), ConvAlgo::kFft, sim::tesla_v100());
  ASSERT_EQ(kernels.size(), 3u);
  EXPECT_NE(kernels[0].name.view().find("fft2d_r2c"), std::string_view::npos);
  EXPECT_NE(kernels[1].name.view().find("cgemm_32x32_tn"), std::string_view::npos);
  EXPECT_NE(kernels[2].name.view().find("fft2d_c2r"), std::string_view::npos);
}

TEST(ConvKernels, ArchitecturePrefixesKernelNames) {
  // Section IV-C: volta_* on Volta/Turing, maxwell_* on Pascal/Maxwell.
  const auto p = deep_7x7_conv(64);
  const auto volta = conv_kernels(p, ConvAlgo::kImplicitPrecompGemm, sim::tesla_v100());
  const auto pascal = conv_kernels(p, ConvAlgo::kImplicitPrecompGemm, sim::tesla_p100());
  const auto maxwell = conv_kernels(p, ConvAlgo::kImplicitPrecompGemm, sim::tesla_m60());
  EXPECT_EQ(volta.back().name.view().rfind("volta_", 0), 0u);
  EXPECT_EQ(pascal.back().name.view().rfind("maxwell_", 0), 0u);
  EXPECT_EQ(maxwell.back().name.view().rfind("maxwell_", 0), 0u);
}

TEST(ConvKernels, TuringPromotesMoreLayersTo128x128) {
  // Section IV-C: on the same model, V100 dispatches 34 calls to 128x64
  // where Quadro RTX dispatches 18, sending the rest to 128x128. The tile
  // heuristic must therefore promote mid-size problems on Turing only.
  ConvParams p;
  p.batch = 256;
  p.in_channels = 256;
  p.in_h = 14;
  p.in_w = 14;
  p.out_channels = 256;
  p.kernel_h = 3;
  p.kernel_w = 3;
  p.pad = 1;
  EXPECT_EQ(choose_scudnn_tile(p, sim::GpuArch::kVolta), ScudnnTile::k128x64);
  EXPECT_EQ(choose_scudnn_tile(p, sim::GpuArch::kTuring), ScudnnTile::k128x128);
}

TEST(ConvKernels, ImplicitGemmIsSingleKernel) {
  const auto kernels = conv_kernels(deep_7x7_conv(1), ConvAlgo::kImplicitGemm, sim::tesla_v100());
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].name, "cudnn::detail::implicit_convolve_sgemm");
}

TEST(ConvKernels, WinogradReducesMultiplies) {
  const auto p = deep_7x7_conv(32);
  const auto wino = conv_kernels(p, ConvAlgo::kWinograd, sim::tesla_v100());
  ASSERT_EQ(wino.size(), 1u);
  EXPECT_LT(wino[0].flops, p.flops());
}

TEST(ConvKernels, TrafficIsPositiveAndBounded) {
  for (auto algo : {ConvAlgo::kImplicitGemm, ConvAlgo::kImplicitPrecompGemm, ConvAlgo::kFft,
                    ConvAlgo::kWinograd}) {
    const auto kernels = conv_kernels(resnet_first_conv(32), algo, sim::tesla_v100());
    double reads = 0;
    double writes = 0;
    for (const auto& k : kernels) {
      reads += k.dram_read_bytes;
      writes += k.dram_write_bytes;
    }
    EXPECT_GT(reads, 0) << conv_algo_name(algo);
    EXPECT_GT(writes, 0) << conv_algo_name(algo);
    // Sanity: no algorithm moves more than ~8x the tensor volumes.
    const auto p = resnet_first_conv(32);
    const double tensors = p.input_shape().bytes() + p.output_shape().bytes() + p.weight_bytes();
    EXPECT_LT(reads + writes, tensors * 8) << conv_algo_name(algo);
  }
}

TEST(ConvKernels, AutoMatchesHeuristic) {
  const auto p = deep_7x7_conv(256);
  const auto kernels = conv_kernels_auto(p, sim::tesla_v100());
  EXPECT_EQ(kernels.size(),
            conv_kernels(p, choose_conv_algo(p, sim::GpuArch::kVolta), sim::tesla_v100()).size());
}

TEST(ConvAlgo, NamesAreStable) {
  EXPECT_STREQ(conv_algo_name(ConvAlgo::kImplicitGemm), "IMPLICIT_GEMM");
  EXPECT_STREQ(conv_algo_name(ConvAlgo::kImplicitPrecompGemm), "IMPLICIT_PRECOMP_GEMM");
  EXPECT_STREQ(conv_algo_name(ConvAlgo::kFft), "FFT");
  EXPECT_STREQ(conv_algo_name(ConvAlgo::kWinograd), "WINOGRAD");
}

}  // namespace
}  // namespace xsp::dnn
