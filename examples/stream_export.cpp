// Streaming export: write a trace to disk *while it is being collected*,
// with memory bounded regardless of trace length.
//
// Two shapes:
//   1. Session-level: ProfileOptions::stream_export_path tees every batch
//      to a file as the trace server drains it, alongside the normal in-memory
//      timeline (the "profile a run, keep the artifacts" flow).
//   2. Service-level: a StreamingExporter attached as a kConsume drain
//      subscriber is the trace's only consumer — batches go sink -> server
//      freelist and never accumulate, so a long-running service can export
//      an unbounded span stream through a fixed-size buffer.
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "xsp/models/registry.hpp"
#include "xsp/profile/session.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/trace_server.hpp"

int main() {
  using namespace xsp;

  // --- 1. session run streamed to a Chrome trace file ----------------------
  const auto* model = models::find_tensorflow_model("MLPerf_ResNet50_v1.5");
  profile::Session session(sim::tesla_v100(), framework::FrameworkKind::kTFlow);

  profile::ProfileOptions opts = profile::ProfileOptions::full(/*metrics=*/false);
  opts.stream_export_path = "resnet50_stream.trace.json";
  const auto run = session.profile(model->build(/*batch=*/4, true), opts);

  std::printf("profiled %zu spans; raw publication stream written to %s during the run "
              "(open in chrome://tracing or Perfetto)\n",
              run.timeline.size(), opts.stream_export_path.c_str());

  // --- 2. unbounded span stream through a bounded exporter -----------------
  // A server whose only consumer is the exporter: every drained batch is
  // written and recycled, nothing accumulates server-side.
  trace::TraceServer server(trace::PublishMode::kAsync);
  std::uint64_t bytes = 0;
  trace::StreamingExporter exporter(
      trace::ExportFormat::kSpanJson,
      [&bytes](std::string_view chunk) { bytes += chunk.size(); },  // stand-in for a socket/file
      /*with_metadata=*/true);
  const trace::SubscriberId sub = server.add_drain_subscriber(
      [&exporter](const trace::SpanBatches& batches) { exporter.write_batches(batches); },
      trace::DrainHandoff::kConsume);

  constexpr std::size_t kSpans = 200'000;  // far more than any in-memory trace should hold
  for (std::size_t i = 0; i < kSpans; ++i) {
    trace::Span s;
    s.id = server.next_span_id();
    s.name = "service_op";
    s.tracer = "service";
    s.begin = static_cast<TimePoint>(i * 100);
    s.end = s.begin + 80;
    server.publish(std::move(s));
  }
  server.flush();
  server.remove_drain_subscriber(sub);
  exporter.set_meta(server.meta());
  exporter.finish();

  std::printf("service mode: %llu spans -> %.1f MB of JSON through a %zu KB buffer; "
              "spans left in the server afterwards: %zu\n",
              static_cast<unsigned long long>(exporter.spans_written()), bytes / 1e6,
              trace::StreamingExporter::kFlushThreshold / 1024, server.span_count());
  return 0;
}
