// Figure 1: the model-, layer-, and GPU-kernel-level profile of
// MLPerf_ResNet50_v1.5 at batch 256 — the hierarchical view the paper
// opens with, including the three kernels of the first Conv layer and the
// GPU metrics of the main convolution kernel.
#include "common.hpp"

int main() {
  using namespace xsp;
  bench::header(
      "Figure 1 — the across-stack hierarchical view",
      "paper Fig. 1: first Conv layer launches ShuffleTensor, OffsetComp and the "
      "volta scudnn kernel; metrics shown for kernel 3 (62 Gflops, 12.1 MB reads, "
      "296 MB writes, 13.2% occupancy)");

  const auto result = bench::resnet50_leveled(/*gpu_metrics=*/true);
  // Hierarchy and timings from the activity-level run; counter values from
  // the merged profile (leveled experimentation keeps both accurate).
  const auto& tl = result.mlg.timeline;

  // Model level: the three pipeline steps.
  std::printf("model level:\n");
  for (const auto root : tl.roots()) {
    const auto& span = tl.node(root).span;
    std::printf("  %-20s %10.2f ms\n", span.name.c_str(), to_ms(span.duration()));
  }

  // Layer level: the first few layers under Model Prediction.
  const auto predict = tl.find_by_name("Model Prediction");
  std::printf("\nlayer level (first 6 of %zu):\n", tl.at_level(trace::kLayerLevel).size());
  const auto& layers = tl.children(*predict);
  for (std::size_t i = 0; i < layers.size() && i < 6; ++i) {
    const auto& span = tl.node(layers[i]).span;
    std::printf("  [%zu] %-24s %-10s %8.2f ms\n", i, span.name.c_str(),
                span.tags.count("layer_type") ? span.tags.at("layer_type").c_str() : "?",
                to_ms(span.duration()));
  }

  // Kernel level: the first Conv layer's three kernels, metrics on the main
  // one — exactly the figure's callout.
  const auto conv = tl.find_by_name("conv2d/Conv2D");
  std::printf("\nGPU kernel level — kernels of conv2d/Conv2D:\n");
  const auto& kernels = tl.children(*conv);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const auto& node = tl.node(kernels[i]);
    std::printf("  Kernel%zu  %-45s grid=%s block=%s  %0.3f ms\n", i + 1,
                node.span.name.c_str(),
                node.span.tags.count("grid") ? node.span.tags.at("grid").c_str() : "?",
                node.span.tags.count("block") ? node.span.tags.at("block").c_str() : "?",
                to_ms(node.span.duration()));
  }
  // Counter values for the main kernel, from the merged accurate profile.
  for (const auto& l : result.profile.layers) {
    if (l.name != "conv2d/Conv2D") continue;
    // The layer's kernels carry its index; the last one is the main kernel.
    std::size_t count = 0;
    const profile::KernelView* main_kernel = nullptr;
    for (const auto& k : result.profile.kernels) {
      if (k.layer_index != l.index) continue;
      ++count;
      main_kernel = &k;
    }
    if (main_kernel == nullptr) break;
    std::printf("\nGPU metrics of Kernel%zu (%s):\n", count, main_kernel->name.c_str());
    std::printf("  SP Flop Count        = %.1f Gflop  (paper: 62 Gflop)\n",
                main_kernel->flops / 1e9);
    std::printf("  DRAM Read Bytes      = %.1f MB    (paper: 12.1 MB)\n",
                main_kernel->dram_read_bytes / 1e6);
    std::printf("  DRAM Write Bytes     = %.1f MB    (paper: 296 MB)\n",
                main_kernel->dram_write_bytes / 1e6);
    std::printf("  Achieved Occupancy   = %.1f%%       (paper: 13.2%%)\n",
                main_kernel->achieved_occupancy * 100.0);
    break;
  }
  bench::footnote_shape();
  return 0;
}
