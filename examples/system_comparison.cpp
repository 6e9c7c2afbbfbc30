// System comparison (paper Section IV-C): evaluate MLPerf_ResNet50_v1.5 on
// all five Table VII systems with a fixed software stack and inspect how
// the GPU kernel sets differ per system — including the volta_* vs
// maxwell_* split and the 128x64 vs 128x128 tile dispatch difference
// between V100 and Quadro RTX.
#include <cstdio>
#include <map>

#include "xsp/analysis/analyses.hpp"
#include "xsp/analysis/batch_sweep.hpp"
#include "xsp/common/format.hpp"
#include "xsp/models/registry.hpp"
#include "xsp/profile/leveled.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/report/table.hpp"
#include "xsp/sim/gpu_spec.hpp"

int main() {
  using namespace xsp;
  const auto* model = models::find_tensorflow_model("MLPerf_ResNet50_v1.5");

  report::TextTable summary({"System", "Arch", "Online (ms)", "Opt Batch", "Max Tput (in/s)",
                             "Ideal AI"});
  for (const auto& system : sim::all_systems()) {
    profile::LeveledRunner runner(system, framework::FrameworkKind::kTFlow);
    const auto info = analysis::model_information(runner, *model, 256);
    summary.add_row({system.name, sim::arch_name(system.arch),
                     fmt_fixed(info.online_latency_ms, 2), std::to_string(info.optimal_batch),
                     fmt_fixed(info.max_throughput, 1),
                     fmt_fixed(system.ideal_arithmetic_intensity(), 2)});
  }
  std::printf("MLPerf_ResNet50_v1.5 across systems (paper Section IV-C)\n\n%s\n",
              summary.str().c_str());

  // Kernel dispatch differences at batch 256 (paper: V100 calls 128x64
  // 34x where Quadro RTX calls it 18x; pre-Volta parts call maxwell_*).
  std::printf("convolution kernel dispatch at batch 256:\n");
  for (const auto& system : sim::all_systems()) {
    profile::LeveledRunner runner(system, framework::FrameworkKind::kTFlow);
    const auto result = runner.run_model(*model, 256, /*gpu_metrics=*/false);
    std::map<std::string, int> counts;
    for (const auto& k : result.profile.kernels) {
      if (k.name.view().find("scudnn") != std::string_view::npos ||
          k.name.view().find("convolve") != std::string_view::npos) {
        counts[k.name.str()] += 1;
      }
    }
    std::printf("  %-11s:", system.name.c_str());
    for (const auto& [name, count] : counts) std::printf(" %s x%d", name.c_str(), count);
    std::printf("\n");
  }
  std::printf("\nexpected shape: Tesla_V100 fastest overall; Quadro_RTX close on compute but "
              "behind on memory-bound layers (624 vs 900 GB/s); Pascal/Maxwell parts dispatch "
              "maxwell_* kernels; Turing shifts part of the 128x64 calls to 128x128.\n");

  return 0;
}
