// XSP profiling session: one evaluation of one model at one profiling
// level, producing one timeline trace.
//
// The session wires together the three tracers of the paper's GPU design
// (Section III-B):
//   1. model-level — the startSpan/finishSpan tracing API placed around
//      code regions of interest (pre-process, prediction, post-process);
//   2. layer-level — the framework profiler's records converted to spans
//      offline and parented onto the model-prediction span;
//   3. GPU-kernel-level — CUPTI callback records become launch spans and
//      CUPTI activity records become execution spans as CUPTI delivers
//      them, built straight into pooled batch blocks and joined by
//      correlation_id; metric values attach to the execution spans.
//
// No framework modification happens anywhere: the layer tracer consumes
// the profiler's *output records* and the GPU tracer consumes CUPTI
// records, exactly as the paper prescribes.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "xsp/analysis/online.hpp"
#include "xsp/common/clock.hpp"
#include "xsp/cupti/cupti.hpp"
#include "xsp/framework/executor.hpp"
#include "xsp/metrics/registry.hpp"
#include "xsp/sim/device.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/remote_sink.hpp"
#include "xsp/trace/timeline.hpp"
#include "xsp/trace/trace_server.hpp"
#include "xsp/trace/tracer.hpp"

namespace xsp::profile {

/// Which stack levels to profile. The paper's M, M/L and M/L/G runs.
struct ProfileOptions {
  bool model_level = true;
  bool layer_level = false;
  /// ML-library (cuDNN/cuBLAS call) level between layer and kernel —
  /// the paper's Section III-E extension.
  bool library_level = false;
  bool gpu_level = false;
  /// Collect the four GPU metrics of Section III-D3 (requires gpu_level;
  /// expensive: kernels are replayed per counter group).
  bool gpu_metrics = false;
  /// Deterministic timing jitter (fraction; 0 disables) + seed, for
  /// multi-run statistics.
  double timing_jitter = 0;
  std::uint64_t jitter_seed = 0;
  /// When non-empty, the run's spans are additionally streamed to this
  /// file *as they drain* from the trace server (a StreamingExporter
  /// attached as a drain subscriber), in publication form:
  /// raw spans, pre-assembly, launch/execution pairs unmerged. The
  /// in-memory timeline in RunTrace is unaffected. The file is finalized
  /// (footer + metadata) before profile() returns; if the run throws, the
  /// partial file is removed so a failed run never leaves a valid-looking
  /// export behind.
  std::string stream_export_path;
  /// Document shape for stream_export_path (span JSON carries a metadata
  /// footer with the run's dropped-annotation/slot/sampling telemetry).
  /// ExportFormat::kBinary selects the XSP binary wire format (wire.hpp):
  /// a trace::BinaryWriter drain subscriber memcpys sealed batches to the
  /// file instead of formatting JSON — the low-overhead shape for
  /// production streaming; decode with trace::BinaryReader or
  /// `xsp_cli export --decode`.
  trace::ExportFormat stream_export_format = trace::ExportFormat::kChromeTrace;
  /// When non-empty, the run's spans are additionally forwarded to a
  /// collector daemon (xsp_collectd) at this endpoint URI — "unix:/path"
  /// or "tcp://host:port" — through a trace::RemoteSink attached as an
  /// observe-mode drain subscriber: raw publication spans ship over the
  /// binary wire as the server drains, while the in-memory timeline is
  /// unaffected. The sink (and its connection) persists across profile()
  /// calls on one session — one wire stream per session, footer sent when
  /// the session dies or the endpoint changes. Unreachable daemons never
  /// fail the run: delivery is best-effort with bounded buffering, and
  /// losses surface in RunTrace::remote_dropped_spans, not as errors.
  std::string remote_endpoint;
  /// Maintain live online aggregates (analysis::OnlineAnalyzer) from the
  /// run's span stream: an observe-mode drain subscriber feeds
  /// per-layer-type/per-kernel aggregates, latency percentiles and
  /// sliding-window rates — readable at any moment via
  /// Session::live_snapshot(), including mid-run from another thread (the
  /// `xsp_cli top` dashboard). The analyzer persists across
  /// profile() calls on one session, so aggregates accumulate over a
  /// service's lifetime; composes with stream_export_path (both are
  /// observers), and a span-JSON streamed export gains an "online"
  /// metadata footer section with the final aggregates.
  bool live_stats = false;
  /// Sliding window (simulated time) for the live span/s and GPU-busy
  /// stats; 0 keeps the analyzer default.
  Ns live_stats_window = 0;
  /// Head-sampling rate in (0, 1]: the fraction of spans admitted into
  /// the trace server (one trace::Sampler shared with the remote sink and
  /// the live analyzer). The decision is a deterministic hash of the
  /// correlation id, so a kept request keeps *all* of its spans across
  /// tracers; 1.0
  /// (default) disables sampling entirely — the publish path is the
  /// pass-through fast path, within noise of an unsampled build.
  /// Sheds surface in RunTrace::sampled_dropped and, when live_stats is
  /// on, the analyzer rescales its rate/count estimates by the effective
  /// rate (Horvitz-Thompson), so dashboards stay calibrated.
  double sampling_rate = 1.0;
  /// Tail-keep escape hatch: spans at least this long are admitted
  /// regardless of the hash draw (0 disables). Latency outliers survive
  /// aggressive rates; such spans carry effective rate 1.0 so the
  /// rescaled estimates stay unbiased.
  Ns sampling_tail_keep_ns = 0;
  /// Seed for the sampling hash — distinct seeds sample distinct subsets
  /// at the same rate (multi-run variance estimation).
  std::uint64_t sampling_seed = 0;
  /// Bound the live analyzer's per-kernel table to this many rows via
  /// SpaceSaving top-k (0 = exact, unbounded). Applies when the analyzer
  /// is created — the first live_stats run on this session.
  std::size_t top_k_kernels = 0;
  /// Byte budget for the process-global StringTable (0 = unbounded).
  /// Applied at the start of the run via StringTable::set_budget_bytes:
  /// past the budget, intern() stops growing the table and returns the
  /// reserved "<interned-cap>" sentinel id instead, counting the miss in
  /// rejected_interns. The budget is process-global state — the last run
  /// to set a non-zero value wins, and it persists after the run (a
  /// service sets it once). High-cardinality values belong in inline
  /// tags (Tracer::tag_inline), which never touch the table at all.
  std::size_t strtab_budget_bytes = 0;

  [[nodiscard]] std::string level_string() const;  // "M", "M/L", "M/L/G"

  static ProfileOptions model_only() { return {}; }
  static ProfileOptions model_layer() {
    ProfileOptions o;
    o.layer_level = true;
    return o;
  }
  static ProfileOptions full(bool metrics = true) {
    ProfileOptions o;
    o.layer_level = true;
    o.gpu_level = true;
    o.gpu_metrics = metrics;
    return o;
  }
};

/// The result of one profiled evaluation. The TraceMeta base is the run's
/// telemetry (trace::kMetaFields documents each field): the server's
/// totals after the run, except that sampled_kept/sampled_dropped count
/// this run alone and the remote_* fields are the session's RemoteSink
/// totals (0 without one).
struct RunTrace : trace::TraceMeta {
  ProfileOptions options;
  trace::Timeline timeline;
  /// Duration of the model-prediction span *in this run* (includes the
  /// overhead of whatever profilers were enabled below the model level).
  Ns model_latency = 0;
  /// Duration of the whole pipeline (pre-process + predict + post-process).
  Ns pipeline_latency = 0;
  /// Spans written to stream_export_path (0 when streaming was off). This
  /// counts *raw publication* spans, so with GPU tracing it exceeds
  /// timeline.size(): launch/execution pairs stream unmerged and are only
  /// joined at assembly.
  std::uint64_t streamed_spans = 0;
  /// Bytes written to stream_export_path (0 when streaming was off) — the
  /// export-cost figure that makes format overheads comparable: the same
  /// run streamed as span JSON vs binary differs by an order of magnitude
  /// here. Also surfaced in the span-JSON footer as "export_bytes" and in
  /// the binary footer frame.
  std::uint64_t streamed_bytes = 0;
  /// Spans handed to the session's RemoteSink over its lifetime (0 when
  /// no remote sink is attached).
  std::uint64_t remote_spans = 0;

  /// Export metadata for to_span_json(timeline, meta).
  [[nodiscard]] const trace::TraceMeta& trace_meta() const noexcept { return *this; }
};

/// Point-in-time producer-slot health of a session's trace server
/// (Session::slot_telemetry(); the `xsp_cli top` slot-health line).
struct SlotTelemetry {
  std::uint64_t live_slots = 0;
  std::uint64_t retired_slots = 0;
  std::uint64_t pooled_slots = 0;
  std::uint64_t slot_bytes = 0;
};

/// One evaluation environment: a system, a framework, and the tracing
/// plumbing. Sessions are single-threaded and cheap to construct; build a
/// fresh one per run for fully independent virtual timelines.
class Session {
 public:
  Session(const sim::GpuSpec& system, framework::FrameworkKind framework);

  /// The model-level tracing API (paper Section III-B, point 1). Spans
  /// started here are model-level; nesting is by explicit parent.
  trace::SpanId start_span(trace::StrId name, trace::SpanId parent = trace::kNoSpan);
  void finish_span(trace::SpanId id);

  /// Simulated CPU work inside user code (pre/post-processing bodies).
  void cpu_work(Ns duration) { clock_.advance(duration); }

  /// Profile one inference of `graph` end-to-end: input pre-processing,
  /// model prediction, output post-processing, with the levels requested.
  /// Starts no thread: the trace server is kSync, so the run's flush drains
  /// its spans, and feeds the drain subscribers, on the calling thread. A
  /// remote_endpoint adds the RemoteSink's one thread, its sender.
  RunTrace profile(const framework::Graph& graph, const ProfileOptions& options);

  /// Point-in-time copy of the live online aggregates. Thread-safe and
  /// callable *during* a profile() run from another thread — the analyzer
  /// observes batches as each run's flush drains them, so the snapshot
  /// advances once per run. Returns a default (all-zero) snapshot until a
  /// run with ProfileOptions::live_stats has started.
  [[nodiscard]] analysis::OnlineSnapshot live_snapshot() const;

  /// Forget accumulated live aggregates (the analyzer persists across
  /// runs; a service rolling its stats window calls this between epochs).
  void reset_live_stats();

  /// The live analyzer itself — nullptr until the first live_stats run
  /// has started. The surface for the analyzer APIs beyond snapshots:
  /// alert registration (add_alert/poll_alerts) from a serving layer or
  /// dashboard thread.
  [[nodiscard]] std::shared_ptr<analysis::OnlineAnalyzer> live_analyzer() const;

  /// Producer-slot health of the trace server right now. Thread-safe
  /// and callable mid-run from another thread (the `xsp_cli top` dashboard
  /// pairs it with live_snapshot()); all zeros before the first run.
  [[nodiscard]] SlotTelemetry slot_telemetry() const;

  /// Register the session's collection machinery with a self-metrics
  /// registry: the trace server's series (TraceServer::bind_metrics, under
  /// `labels`) and, when remote forwarding is active, the RemoteSink's
  /// health series. profile() rebinds automatically whenever it reconnects
  /// the sink, so the registry tracks the *current* sink across runs. Pass
  /// nullptr to stop binding (existing series unregister when their
  /// components die). The registry must outlive the session or the next
  /// unbind, whichever comes first. Zero publish-hot-path cost — see
  /// TraceServer::bind_metrics.
  void bind_metrics(metrics::Registry* registry, metrics::Labels labels = {});

  [[nodiscard]] sim::GpuDevice& device() noexcept { return device_; }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] framework::Executor& executor() noexcept { return executor_; }

  /// Per-image costs of the (simulated) pre-/post-processing steps.
  static constexpr Ns kPreprocessPerImage = us(120);
  static constexpr Ns kPostprocessPerImage = us(20);

 private:
  SimClock clock_;
  sim::GpuDevice device_;
  framework::Executor executor_;
  /// The session's one trace server, kSync: profile() drains each run on
  /// its own thread. Its calls are thread-safe, so slot_telemetry() reads
  /// it from a dashboard thread without a session-level lock. On the heap,
  /// not inline: std::mutex has a trivial destructor, so ThreadSanitizer
  /// forgets a dead server's mutexes only when their memory is freed, and
  /// servers inside stack-allocated sessions would alias each other's.
  const std::unique_ptr<trace::TraceServer> server_ =
      std::make_unique<trace::TraceServer>(trace::PublishMode::kSync);
  /// Live-stats analyzer (ProfileOptions::live_stats). Created on the
  /// first live run and kept for the session's lifetime (reconfigured in
  /// place on window changes, never silently replaced — lifetime
  /// aggregates survive); shared_ptr behind a mutex so live_snapshot()
  /// from a dashboard thread races safely with that first creation.
  mutable std::mutex online_mu_;
  std::shared_ptr<analysis::OnlineAnalyzer> online_;
  /// Remote forwarding (ProfileOptions::remote_endpoint): one RemoteSink
  /// — one wire stream, one collector connection — for the session's
  /// lifetime. Destroyed (closing the stream: outbox drained, footer
  /// sent) with the session, or replaced when a run names a different
  /// endpoint.
  std::unique_ptr<trace::RemoteSink> remote_;
  std::string remote_uri_;
  /// Admission policy built from ProfileOptions::sampling_* (nullptr when
  /// rate is 1.0 and no tail-keep): shared by the server, the remote sink,
  /// and the live analyzer so one decision governs admission, shedding,
  /// and rescaling. Rebuilt only when the options change.
  std::shared_ptr<const trace::Sampler> sampler_;
  /// Session-lifetime admission totals (the analyzer accumulates across
  /// runs, so it gets these, not per-run deltas).
  std::uint64_t sampled_kept_total_ = 0;
  std::uint64_t sampled_dropped_total_ = 0;
  std::unique_ptr<trace::Tracer> model_tracer_;
  std::unique_ptr<trace::Tracer> layer_tracer_;
  std::unique_ptr<trace::Tracer> library_tracer_;
  std::unique_ptr<trace::Tracer> gpu_tracer_;
  /// Self-metrics binding (bind_metrics): applied to the server and the
  /// sink, and re-applied by profile() when it reconnects the sink.
  metrics::Registry* metrics_registry_ = nullptr;
  metrics::Labels metrics_labels_;
  /// Bounded-interning series (xsp_strtab_*): callback series over the
  /// process-global StringTable, registered once per bind_metrics call —
  /// unlike the sink series they never need rebinding.
  std::vector<metrics::CallbackHandle> strtab_series_;
};

}  // namespace xsp::profile
