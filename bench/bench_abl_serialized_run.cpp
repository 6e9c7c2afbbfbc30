// Ablation: serialized (CUDA_LAUNCH_BLOCKING=1) vs concurrent execution.
//
// Section III-A: when parallel events make a span's parent ambiguous, XSP
// "requires another profiling run where the parallel events are
// serialized". This bench quantifies what that extra run costs and shows
// that serialization resolves the ambiguity on a multi-stream workload.
#include "common.hpp"

namespace {

using namespace xsp;

/// A deliberately ambiguous workload: two overlapping same-level "branch"
/// spans, each launching kernels concurrently on its own stream.
trace::Timeline run_branches(bool serialized, Ns* wall = nullptr) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  dev.set_serialized(serialized);
  trace::TraceServer server(trace::PublishMode::kSync);
  trace::Tracer layers(server, "framework_profiler", trace::kLayerLevel);
  trace::Tracer gpu(server, "cupti", trace::kKernelLevel);

  const auto kernel = [] {
    sim::KernelDesc k;
    k.name = "branch_kernel";
    k.klass = sim::KernelClass::kElementwise;
    k.grid = {4096, 1, 1};
    k.block = {256, 1, 1};
    k.dram_read_bytes = 40e6;
    k.dram_write_bytes = 40e6;
    return k;
  }();

  const sim::StreamId s1 = sim::kDefaultStream;
  const sim::StreamId s2 = dev.create_stream();
  const TimePoint begin = clock.now();

  const auto record = [&](const sim::LaunchResult& r) {
    trace::Span launch;
    launch.kind = trace::SpanKind::kLaunch;
    launch.begin = r.api_begin;
    launch.end = r.api_end;
    launch.correlation_id = r.correlation_id;
    launch.name = "cudaLaunchKernel";
    gpu.publish_completed(std::move(launch));
    trace::Span exec;
    exec.kind = trace::SpanKind::kExecution;
    exec.begin = r.exec_begin;
    exec.end = r.exec_end;
    exec.correlation_id = r.correlation_id;
    exec.name = kernel.name;
    gpu.publish_completed(std::move(exec));
  };

  if (!serialized) {
    // Two parallel branches (two executor threads): both branch spans are
    // open across every launch window, so interval containment cannot tell
    // which branch owns a kernel.
    const auto a = layers.start_span("branch_a", clock.now());
    const auto b = layers.start_span("branch_b", clock.now());
    for (int i = 0; i < 4; ++i) {
      record(dev.launch_kernel(s1, kernel));
      record(dev.launch_kernel(s2, kernel));
    }
    dev.synchronize();
    layers.finish_span(a, clock.now());
    layers.finish_span(b, clock.now());
  } else {
    // CUDA_LAUNCH_BLOCKING=1 re-run: each launch blocks, branches execute
    // back to back, spans stop overlapping.
    for (int branch = 0; branch < 2; ++branch) {
      const auto span = layers.start_span(branch == 0 ? "branch_a" : "branch_b", clock.now());
      for (int i = 0; i < 4; ++i) record(dev.launch_kernel(branch == 0 ? s1 : s2, kernel));
      dev.synchronize();
      layers.finish_span(span, clock.now());
    }
  }
  if (wall != nullptr) *wall = clock.now() - begin;
  // No span here names a parent, so assembly is pure interval
  // reconstruction.
  return trace::Timeline::assemble(server.take_trace());
}

}  // namespace

int main() {
  bench::header("Ablation — serialized re-run for ambiguity resolution",
                "paper Section III-A (CUDA_LAUNCH_BLOCKING=1 disambiguation)");

  Ns concurrent_wall = 0;
  Ns serialized_wall = 0;
  const auto concurrent = run_branches(false, &concurrent_wall);
  const auto serialized = run_branches(true, &serialized_wall);

  report::TextTable t({"Run", "Wall (ms)", "Ambiguous Parents", "Correlated Async"});
  t.add_row({"concurrent", fmt_fixed(to_ms(concurrent_wall), 3),
             std::to_string(concurrent.ambiguous_count()),
             std::to_string(concurrent.correlated_async_count())});
  t.add_row({"serialized", fmt_fixed(to_ms(serialized_wall), 3),
             std::to_string(serialized.ambiguous_count()),
             std::to_string(serialized.correlated_async_count())});
  std::printf("%s\n", t.str().c_str());
  std::printf("serialization cost: %.2fx wall time; ambiguity eliminated: %s\n",
              static_cast<double>(serialized_wall) / static_cast<double>(concurrent_wall),
              serialized.ambiguous_count() == 0 ? "yes" : "no");
  bench::footnote_shape();
  return 0;
}
