// Ablation: Timeline::assemble end to end, on both shapes of layer level.
//
// BM_TimelineAssemble times Timeline::assemble — correlation, ordering and
// parent search — over the publication batches of an M/L/G run, in real
// host time. Its layers are disjoint (a laminar level);
// BM_TimelineAssembleOverlapping runs layers from two executor threads
// that partially overlap. Assembly resolves both by the same Fenwick
// sweep (src/trace/README.md, "Assembly").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "xsp/common/rng.hpp"
#include "xsp/trace/timeline.hpp"

namespace {

/// Publication batches of `runs` back-to-back M/L/G predictions shaped
/// like ResNet-50 at batch 64: three model-level spans (pre-process,
/// predict, post-process), 230 layer spans with the predict span as
/// explicit parent, and 336 launch/execution pairs (335 kernels, one
/// input memcpy) whose parents come from interval search. Layers, launches
/// and executions are published by separate tracers, in 256-span batches,
/// as a profiling session hands them to assembly. With `overlapping`, odd
/// layers run on a second executor thread: each begins halfway through the
/// layer before it, after that layer's launches, and ends after it.
xsp::trace::SpanBatches resnet50_mlg_batches(int runs, bool overlapping = false) {
  using namespace xsp::trace;
  constexpr int kLayers = 230;
  constexpr int kKernels = 336;
  const StrId kernel_key("kernel");
  const StrId kind_key("kind");
  const StrId grid_key("grid");
  const StrId block_key("block");
  const StrId layer_type_key("layer_type");
  const StrId kind_kernel("kernel");
  const StrId kind_memcpy("memcpy");
  std::vector<StrId> kernel_names;
  for (int k = 0; k < 24; ++k) kernel_names.emplace_back("volta_kernel_" + std::to_string(k));

  xsp::SplitMix64 rng(64);
  std::vector<Span> model_spans, layer_spans, launch_spans, exec_spans;
  SpanId next_id = 1;
  std::uint64_t next_corr = 1;
  xsp::TimePoint t = 0;
  for (int run = 0; run < runs; ++run) {
    Span pre, predict, post;
    pre.id = next_id++;
    pre.name = "Input Pre-Process";
    pre.begin = t;
    pre.end = t += 7'000'000;
    predict.id = next_id++;
    predict.name = "Predict";
    predict.begin = t;
    xsp::TimePoint gpu = t;  // the device runs one kernel at a time
    int kernels_left = kKernels;
    for (int l = 0; l < kLayers; ++l) {
      // Where the previous layer's last launch ends.
      const xsp::TimePoint launched = launch_spans.empty() ? 0 : launch_spans.back().end;
      Span layer;
      layer.id = next_id++;
      layer.parent = predict.id;
      layer.level = kLayerLevel;
      layer.name = "layer_" + std::to_string(l);
      layer.tags.set(layer_type_key, StrId("Conv2D"));
      layer.begin = t += 2'000;
      // 336 kernels over 230 layers: one or two per layer, the rest last.
      const int kernels = l + 1 == kLayers ? kernels_left : std::min(kernels_left, 1 + (l % 3 == 0));
      for (int k = 0; k < kernels; ++k, --kernels_left) {
        const bool memcpy = run == 0 && l == 0 && k == 0;
        Span launch;
        launch.id = next_id++;
        launch.level = kKernelLevel;
        launch.kind = SpanKind::kLaunch;
        launch.name = memcpy ? "cudaMemcpy" : "cudaLaunchKernel";
        launch.correlation_id = next_corr++;
        launch.tags.set(kernel_key, kernel_names[rng.below(kernel_names.size())]);
        launch.begin = t += 1'000;
        launch.end = t += 4'000 + static_cast<xsp::TimePoint>(rng.below(2'000));
        Span exec;
        exec.id = next_id++;
        exec.level = kKernelLevel;
        exec.kind = SpanKind::kExecution;
        exec.name = launch.tags.at(kernel_key);
        exec.correlation_id = launch.correlation_id;
        exec.begin = gpu = std::max(gpu, launch.end + 3'000);
        exec.end = gpu += 20'000 + static_cast<xsp::TimePoint>(rng.below(400'000));
        if (memcpy) {
          exec.tags.set(kind_key, kind_memcpy);
        } else {
          exec.inline_tags.set(grid_key, "[9408,1,1]");
          exec.inline_tags.set(block_key, "[256,1,1]");
          exec.tags.set(kind_key, kind_kernel);
        }
        launch_spans.push_back(launch);
        exec_spans.push_back(exec);
      }
      layer.end = t = std::max(t + 1'000, gpu);  // the layer waits on its kernels
      if (overlapping && l % 2 == 1) {
        const Span& before = layer_spans.back();
        layer.begin = std::max(before.begin + (before.end - before.begin) / 2, launched + 1);
      }
      layer_spans.push_back(layer);
    }
    predict.end = t += 1'000;
    post.id = next_id++;
    post.name = "Output Post-Process";
    post.begin = t;
    post.end = t += 1'000'000;
    model_spans.insert(model_spans.end(), {pre, predict, post});
  }

  SpanBatches batches;
  for (const auto* spans : {&model_spans, &layer_spans, &launch_spans, &exec_spans}) {
    for (std::size_t at = 0; at < spans->size(); at += 256) {
      const std::size_t end = std::min(spans->size(), at + 256);
      batches.emplace_back(spans->begin() + static_cast<std::ptrdiff_t>(at),
                           spans->begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return batches;
}

void assemble_timelines(benchmark::State& state, bool overlapping) {
  const auto batches = resnet50_mlg_batches(static_cast<int>(state.range(0)), overlapping);
  std::size_t spans = 0;
  for (const auto& batch : batches) spans += batch.size();
  const auto check = xsp::trace::Timeline::assemble(batches);
  if (check.correlated_async_count() != 336 * static_cast<std::size_t>(state.range(0)) ||
      check.unmatched_async_count() != 0 || check.ambiguous_count() != 0 ||
      check.roots().size() != 3 * static_cast<std::size_t>(state.range(0))) {
    state.SkipWithError("synthetic trace did not assemble into the ResNet-50 shape");
  }
  // assemble() takes its batches over, as Session::profile hands them
  // off; the copy it consumes is made outside the timed region. Each
  // timed iteration assembles one timeline and frees the previous one.
  xsp::trace::SpanBatches input;
  xsp::trace::Timeline timeline;
  for (auto _ : state) {
    state.PauseTiming();
    input = batches;
    state.ResumeTiming();
    timeline = xsp::trace::Timeline::assemble(std::move(input));
    benchmark::DoNotOptimize(timeline.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(spans));
}

void BM_TimelineAssemble(benchmark::State& state) { assemble_timelines(state, false); }

void BM_TimelineAssembleOverlapping(benchmark::State& state) { assemble_timelines(state, true); }

BENCHMARK(BM_TimelineAssemble)->ArgName("runs")->Arg(1)->Arg(16);
BENCHMARK(BM_TimelineAssembleOverlapping)->ArgName("runs")->Arg(1)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
