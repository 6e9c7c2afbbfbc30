#include "xsp/profile/model_profile.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "xsp/profile/span_keys.hpp"

namespace xsp::profile {

Ns ModelProfile::total_kernel_latency() const noexcept {
  Ns total = 0;
  for (const auto& k : kernels) {
    if (!k.is_memcpy) total += k.latency;
  }
  return total;
}

double ModelProfile::total_flops() const noexcept {
  double total = 0;
  for (const auto& k : kernels) total += k.flops;
  return total;
}

double ModelProfile::total_dram_reads() const noexcept {
  double total = 0;
  for (const auto& k : kernels) total += k.dram_read_bytes;
  return total;
}

double ModelProfile::total_dram_writes() const noexcept {
  double total = 0;
  for (const auto& k : kernels) total += k.dram_write_bytes;
  return total;
}

double ModelProfile::weighted_occupancy() const noexcept {
  double weighted = 0;
  Ns total = 0;
  for (const auto& k : kernels) {
    if (k.is_memcpy) continue;
    weighted += k.achieved_occupancy * static_cast<double>(k.latency);
    total += k.latency;
  }
  return total > 0 ? weighted / static_cast<double>(total) : 0;
}

namespace {

const SpanKeys& keys() { return span_keys(); }

}  // namespace

ModelProfile merge_runs(const RunTrace& m, const RunTrace& ml, const RunTrace& mlg,
                        std::string model_name, std::string system_name,
                        std::string framework_name, std::int64_t batch) {
  ModelProfile out;
  out.model_name = std::move(model_name);
  out.system_name = std::move(system_name);
  out.framework_name = std::move(framework_name);
  out.batch = batch;
  out.model_latency = m.model_latency;
  out.pipeline_latency = m.pipeline_latency;
  if (ml.model_latency > 0) out.layer_profiling_overhead = ml.model_latency - m.model_latency;
  if (mlg.model_latency > 0 && ml.model_latency > 0) {
    out.gpu_profiling_overhead = mlg.model_latency - ml.model_latency;
  }

  // --- layers: accurate records from the M/L run --------------------------
  // Indexed by layer index so the M/L/G run's kernels can be attached: the
  // executor numbers layers densely from 0. A negative index, or one no
  // layer span carries, attaches nothing.
  constexpr std::size_t kNoSlot = ~std::size_t{0};
  std::vector<std::size_t> layer_slot;
  for (const auto id : ml.timeline.at_level(trace::kLayerLevel)) {
    const auto& span = ml.timeline.node(id).span;
    LayerView lv;
    lv.index = static_cast<int>(span.metric_or(keys().layer_index, -1));
    lv.name = span.name;
    lv.type = span.tag_or(keys().layer_type);
    lv.shape = span.tag_or(keys().shape);
    lv.latency = span.duration();
    lv.alloc_bytes = span.metric_or(keys().alloc_bytes, 0);
    if (lv.index >= 0) {
      const auto index = static_cast<std::size_t>(lv.index);
      if (index >= layer_slot.size()) layer_slot.resize(index + 1, kNoSlot);
      layer_slot[index] = out.layers.size();
    }
    out.layers.push_back(std::move(lv));
  }

  // --- kernels: accurate records from the M/L/G run -----------------------
  // Kernel nodes hang under that run's layer spans; the layer_index metric
  // of the M/L/G layer span keys them back onto the accurate M/L layers.
  for (const auto id : mlg.timeline.at_level(trace::kKernelLevel)) {
    const auto& node = mlg.timeline.node(id);
    const auto& span = node.span;
    KernelView kv;
    kv.name = span.name;
    kv.latency = span.duration();
    kv.flops = span.metric_or(keys().flop_count_sp, 0);
    kv.dram_read_bytes = span.metric_or(keys().dram_read_bytes, 0);
    kv.dram_write_bytes = span.metric_or(keys().dram_write_bytes, 0);
    kv.achieved_occupancy = span.metric_or(keys().achieved_occupancy, 0);
    kv.is_memcpy = span.tag_or(keys().kind) == keys().kind_memcpy;
    // Walk ancestors until the layer span: with the optional ML-library
    // level enabled, a kernel's immediate parent is the cuDNN/cuBLAS call
    // span and the layer sits one level above it.
    trace::SpanId ancestor = node.parent;
    while (ancestor != trace::kNoSpan && mlg.timeline.contains(ancestor)) {
      const auto& anc = mlg.timeline.node(ancestor).span;
      if (anc.level == trace::kLayerLevel) {
        kv.layer_index = static_cast<int>(anc.metric_or(keys().layer_index, -1));
        break;
      }
      if (anc.level < trace::kLayerLevel) break;
      ancestor = mlg.timeline.node(ancestor).parent;
    }

    const auto index = static_cast<std::size_t>(kv.layer_index);
    if (kv.layer_index >= 0 && index < layer_slot.size() && layer_slot[index] != kNoSlot) {
      LayerView& lv = out.layers[layer_slot[index]];
      if (!kv.is_memcpy) {
        lv.kernel_latency += kv.latency;
        lv.flops += kv.flops;
        lv.dram_read_bytes += kv.dram_read_bytes;
        lv.dram_write_bytes += kv.dram_write_bytes;
        lv.achieved_occupancy += kv.achieved_occupancy * static_cast<double>(kv.latency);
      }
    }
    out.kernels.push_back(std::move(kv));
  }

  // Finalize the latency-weighted layer occupancies.
  for (auto& lv : out.layers) {
    if (lv.kernel_latency > 0) {
      lv.achieved_occupancy /= static_cast<double>(lv.kernel_latency);
    }
  }
  return out;
}

}  // namespace xsp::profile
