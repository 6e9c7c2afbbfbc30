#include "xsp/profile/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "../trace/json_check.hpp"
#include "../trace/thread_count.hpp"
#include "xsp/models/builder.hpp"
#include "xsp/trace/export.hpp"
#include "xsp/trace/wire.hpp"

namespace xsp::profile {
namespace {

framework::Graph small_graph(std::int64_t batch = 2) {
  models::GraphBuilder b("small", batch, true);
  b.input(3, 64, 64);
  b.conv(16, 3, 1).batch_norm().relu();
  b.conv(32, 3, 2).batch_norm().relu();
  b.global_avg_pool().fc(10).softmax();
  return std::move(b).build();
}

TEST(ProfileOptions, LevelStrings) {
  EXPECT_EQ(ProfileOptions::model_only().level_string(), "M");
  EXPECT_EQ(ProfileOptions::model_layer().level_string(), "M/L");
  EXPECT_EQ(ProfileOptions::full().level_string(), "M/L/G");
}

TEST(Session, ModelOnlyRunHasThreePipelineSpans) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), ProfileOptions::model_only());
  // Pre-process, prediction, post-process — all model-level roots.
  EXPECT_EQ(run.timeline.size(), 3u);
  EXPECT_EQ(run.timeline.roots().size(), 3u);
  EXPECT_TRUE(run.timeline.find_by_name("Model Prediction").has_value());
  EXPECT_TRUE(run.timeline.find_by_name("Input Pre-Process").has_value());
  EXPECT_TRUE(run.timeline.find_by_name("Output Post-Process").has_value());
  EXPECT_GT(run.model_latency, 0);
  EXPECT_GT(run.pipeline_latency, run.model_latency);
}

TEST(Session, MovedRunTraceOutlivesItsSessionAndSource) {
  // The timeline owns the run's batches: a RunTrace moved out of a dead
  // session still resolves and exports every span, byte for byte.
  std::optional<RunTrace> source;
  {
    Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
    source = s.profile(small_graph(), ProfileOptions::full(true));
  }
  const std::string exported = trace::to_span_json(source->timeline);
  std::vector<trace::SpanId> ids;
  source->timeline.walk([&](const trace::TimelineNode& n, int) { ids.push_back(n.span.id); });
  ASSERT_EQ(ids.size(), source->timeline.size());

  RunTrace moved = std::move(*source);
  source.reset();
  EXPECT_EQ(trace::to_span_json(moved.timeline), exported);
  for (const trace::SpanId id : ids) {
    ASSERT_TRUE(moved.timeline.contains(id)) << id;
    EXPECT_EQ(moved.timeline.node(id).span.id, id);
  }
}

TEST(Session, LayerSpansAreChildrenOfPrediction) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), ProfileOptions::model_layer());
  const auto predict = run.timeline.find_by_name("Model Prediction");
  ASSERT_TRUE(predict.has_value());
  const auto& children = run.timeline.children(*predict);
  EXPECT_EQ(children.size(), small_graph().layers.size());
  // Layer spans carry the framework profiler's metadata.
  const auto& first = run.timeline.node(children[0]).span;
  EXPECT_EQ(first.tracer, "framework_profiler");
  EXPECT_EQ(first.level, trace::kLayerLevel);
  EXPECT_EQ(first.tags.at("layer_type"), "Data");
  EXPECT_GE(first.metrics.at("alloc_bytes"), 0.0);
}

TEST(Session, KernelSpansHangUnderLayers) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), ProfileOptions::full(false));
  const auto kernels = run.timeline.at_level(trace::kKernelLevel);
  EXPECT_GT(kernels.size(), 5u);
  // Every kernel's parent must be a layer span (launch-window containment).
  for (const auto id : kernels) {
    const auto& node = run.timeline.node(id);
    ASSERT_NE(node.parent, trace::kNoSpan) << node.span.name;
    EXPECT_EQ(run.timeline.node(node.parent).span.level, trace::kLayerLevel);
    EXPECT_TRUE(node.is_async);
  }
  EXPECT_EQ(run.timeline.ambiguous_count(), 0u);
  EXPECT_EQ(run.timeline.unmatched_async_count(), 0u);
}

TEST(Session, ConvLayerOwnsItsSetupKernels) {
  // Figure 1: the 3 kernels of the first Conv layer (shuffle, offsets,
  // scudnn main) correlate to that layer.
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(64), ProfileOptions::full(false));
  const auto conv = run.timeline.find_by_name("conv2d/Conv2D");
  ASSERT_TRUE(conv.has_value());
  const auto& kids = run.timeline.children(*conv);
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_NE(run.timeline.node(kids[0]).span.name.view().find("Shuffle"), std::string::npos);
  EXPECT_NE(run.timeline.node(kids[2]).span.name.view().find("scudnn"), std::string::npos);
}

TEST(Session, MetricsAttachToKernelSpans) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), ProfileOptions::full(true));
  bool saw_metrics = false;
  for (const auto id : run.timeline.at_level(trace::kKernelLevel)) {
    const auto& span = run.timeline.node(id).span;
    if (span.tags.count("kind") && span.tags.at("kind") == "kernel") {
      EXPECT_EQ(span.metrics.count("flop_count_sp"), 1u) << span.name;
      EXPECT_EQ(span.metrics.count("achieved_occupancy"), 1u) << span.name;
      saw_metrics = true;
    }
  }
  EXPECT_TRUE(saw_metrics);
}

TEST(Session, DisabledLevelsPublishNothing) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), ProfileOptions::model_only());
  EXPECT_TRUE(run.timeline.at_level(trace::kLayerLevel).empty());
  EXPECT_TRUE(run.timeline.at_level(trace::kKernelLevel).empty());
}

TEST(Session, ProfilingLevelsInflateModelLatency) {
  // Figure 2's structure: each added level inflates the model-prediction
  // latency of that run.
  const auto latency_at = [](ProfileOptions opts) {
    Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
    return s.profile(small_graph(), opts).model_latency;
  };
  const Ns m = latency_at(ProfileOptions::model_only());
  const Ns ml = latency_at(ProfileOptions::model_layer());
  const Ns mlg = latency_at(ProfileOptions::full(false));
  const Ns mlgm = latency_at(ProfileOptions::full(true));
  EXPECT_LT(m, ml);
  EXPECT_LT(ml, mlg);
  EXPECT_LT(mlg, mlgm);  // metric replay is the expensive step
}

TEST(Session, ProfileStartsNoThread) {
  // Counted while the session, and so its trace server, is still alive:
  // a collector thread would outlive the run and show here.
  auto streaming = ProfileOptions::full(false);
  streaming.live_stats = true;
  streaming.stream_export_path = ::testing::TempDir() + "xsp_no_thread.json";
  for (const ProfileOptions& opts : {ProfileOptions::full(false), streaming}) {
    Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
    const std::size_t before = test::thread_count();
    const auto run = s.profile(small_graph(), opts);
    EXPECT_EQ(test::thread_count(), before) << "live_stats " << opts.live_stats;
    EXPECT_GT(run.timeline.size(), 10u);
    if (opts.live_stats) {
      // The subscribers were fed by the run's own flush.
      EXPECT_GT(run.streamed_spans, run.timeline.size());
      EXPECT_GT(s.live_snapshot().spans, 0u);
    }
  }
  std::remove(streaming.stream_export_path.c_str());
}

TEST(Session, ManualSpansNestByExplicitParent) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  // start_span is only live during profile(); simulate a user region by
  // checking the API returns kNoSpan before any profiling plumbing exists.
  EXPECT_EQ(s.start_span("before"), trace::kNoSpan);
  const auto run = s.profile(small_graph(), ProfileOptions::model_only());
  EXPECT_EQ(run.timeline.ambiguous_count(), 0u);
}

TEST(Session, DeterministicAcrossIdenticalRuns) {
  const auto run_once = [] {
    Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
    return s.profile(small_graph(), ProfileOptions::full(true));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.model_latency, b.model_latency);
  EXPECT_EQ(a.timeline.size(), b.timeline.size());
}

TEST(Session, JitterMakesRunsDiffer) {
  const auto run_with_seed = [](std::uint64_t seed) {
    Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
    auto opts = ProfileOptions::model_only();
    opts.timing_jitter = 0.05;
    opts.jitter_seed = seed;
    return s.profile(small_graph(), opts).model_latency;
  };
  EXPECT_NE(run_with_seed(1), run_with_seed(2));
  EXPECT_EQ(run_with_seed(3), run_with_seed(3));
}

TEST(Session, ShardCountNeverChangesTheAssembledTimeline) {
  // The trace_shards knob fans collection out across independent servers;
  // the merged, assembled result must be structurally identical.
  const auto shape_of = [](std::size_t shards) {
    Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
    auto opts = ProfileOptions::full(/*metrics=*/false);
    opts.trace_shards = shards;
    const auto run = s.profile(small_graph(), opts);
    std::vector<std::tuple<TimePoint, TimePoint, int, int>> shape;
    run.timeline.walk([&](const trace::TimelineNode& n, int depth) {
      shape.emplace_back(n.span.begin, n.span.end, n.span.level, depth);
    });
    return shape;
  };
  const auto single = shape_of(1);
  EXPECT_FALSE(single.empty());
  EXPECT_EQ(single, shape_of(4));
}

TEST(Session, RunTraceCarriesCollectionTelemetry) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  auto opts = ProfileOptions::model_layer();
  opts.trace_shards = 2;
  const auto run = s.profile(small_graph(), opts);
  EXPECT_EQ(run.shard_count, 2u);
  // The simulated profilers stay within annotation capacity.
  EXPECT_EQ(run.dropped_annotations, 0u);
  const auto meta = run.trace_meta();
  EXPECT_EQ(meta.shard_count, 2u);
  EXPECT_EQ(meta.dropped_annotations, 0u);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Session, StreamExportPathWritesChromeTraceDuringTheRun) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  auto opts = ProfileOptions::model_layer();
  opts.stream_export_path = ::testing::TempDir() + "xsp_stream_chrome.json";
  const auto run = s.profile(small_graph(), opts);

  const std::string streamed = read_file(opts.stream_export_path);
  ASSERT_FALSE(streamed.empty());
  std::string error;
  EXPECT_TRUE(trace::testjson::valid_json(streamed, &error)) << error;
  // M/L has no async pairs, so raw published spans == assembled nodes.
  EXPECT_EQ(trace::testjson::count_occurrences(streamed, "\"ph\":\"X\""), run.timeline.size());
  EXPECT_EQ(run.streamed_spans, run.timeline.size());
  EXPECT_NE(streamed.find("\"name\":\"Model Prediction\""), std::string::npos);
  std::remove(opts.stream_export_path.c_str());
}

TEST(Session, StreamExportSpanJsonCarriesRunTelemetryFooter) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  auto opts = ProfileOptions::model_layer();
  opts.trace_shards = 2;
  opts.stream_export_path = ::testing::TempDir() + "xsp_stream_spans.json";
  opts.stream_export_format = trace::ExportFormat::kSpanJson;
  const auto run = s.profile(small_graph(), opts);

  const std::string streamed = read_file(opts.stream_export_path);
  std::string error;
  EXPECT_TRUE(trace::testjson::valid_json(streamed, &error)) << error;
  EXPECT_EQ(streamed.find("{\"spans\":[{"), 0u);
  EXPECT_NE(streamed.find("\"metadata\":{\"dropped_annotations\":0,\"shard_count\":2,"
                          "\"interned_strings\":"),
            std::string::npos);
  EXPECT_NE(streamed.find("\"span_count\":" + std::to_string(run.timeline.size()) +
                          ",\"export_format\":\"span_json\",\"export_bytes\":"),
            std::string::npos);
  // The run sampled real StringTable growth telemetry into the footer.
  EXPECT_GT(run.interned_strings, 0u);
  EXPECT_GT(run.interned_bytes, run.interned_strings);
  // ... and producer-slot health, next to it: the session's one publisher
  // thread owns the one live slot, and its ~55KB shows up in slot_bytes.
  EXPECT_NE(streamed.find("\"live_slots\":" + std::to_string(run.live_slots)),
            std::string::npos);
  EXPECT_EQ(run.live_slots, 1u);
  EXPECT_GT(run.slot_bytes, 0u);
  // The session still assembled its in-memory timeline (observe mode tees).
  EXPECT_GT(run.timeline.size(), 3u);
  std::remove(opts.stream_export_path.c_str());
}

TEST(Session, StreamExportBinaryRoundTripsThroughBinaryReader) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  auto opts = ProfileOptions::model_layer();
  opts.trace_shards = 2;
  opts.stream_export_path = ::testing::TempDir() + "xsp_stream.xspb";
  opts.stream_export_format = trace::ExportFormat::kBinary;
  const auto run = s.profile(small_graph(), opts);

  const std::string bytes = read_file(opts.stream_export_path);
  ASSERT_FALSE(bytes.empty());
  // streamed_bytes telemetry is the file size; spans match the JSON path.
  EXPECT_EQ(run.streamed_bytes, bytes.size());
  EXPECT_EQ(run.streamed_spans, run.timeline.size());

  std::istringstream in(bytes);
  trace::BinaryReader reader(in);
  const trace::SpanBatches decoded = reader.read_all();
  EXPECT_TRUE(reader.saw_footer());
  EXPECT_EQ(reader.spans_read(), run.streamed_spans);
  // The footer frame carries the same run telemetry the JSON footer does.
  EXPECT_EQ(reader.footer().span_count, run.streamed_spans);
  EXPECT_EQ(reader.footer().meta.shard_count, 2u);
  EXPECT_EQ(reader.footer().meta.live_slots, run.live_slots);
  EXPECT_EQ(reader.footer().meta.interned_strings, run.interned_strings);

  // Decoded spans assemble into the same timeline the live run produced.
  const trace::Timeline replay = trace::Timeline::assemble(trace::flatten_batches(decoded));
  EXPECT_EQ(replay.size(), run.timeline.size());
  EXPECT_EQ(trace::to_span_json(replay), trace::to_span_json(run.timeline));
  std::remove(opts.stream_export_path.c_str());
}

TEST(Session, WorkerThreadSlotsAreReclaimedAcrossRuns) {
  // The long-lived-service shape at the session layer: run N happens on a
  // worker thread that then dies; the reused fleet must shed that
  // thread's slots by the time run N+1 has flushed, so a service driving
  // runs from ever-fresh threads holds O(live threads) slots.
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto opts = ProfileOptions::model_layer();
  std::thread worker([&s, &opts] { (void)s.profile(small_graph(), opts); });
  worker.join();
  // Same options -> the fleet is reused; this run's initial drain retires
  // the dead worker's slot, and its own publishing registers main's.
  const auto run = s.profile(small_graph(), opts);
  EXPECT_EQ(run.live_slots, 1u);
  EXPECT_EQ(run.retired_slots, 1u);
  const SlotTelemetry t = s.slot_telemetry();
  EXPECT_EQ(t.live_slots, 1u);
  EXPECT_EQ(t.retired_slots, 1u);
  // 0 when main's registration drew the parked slot (same shard as the
  // worker), 1 when the two threads hashed to different shards.
  EXPECT_LE(t.pooled_slots, 1u);
  EXPECT_GT(t.slot_bytes, 0u);
}

TEST(Session, LiveStatsSnapshotTracksTheRunAndAccumulatesAcrossRuns) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  // Before any live run: a default snapshot, not a crash.
  EXPECT_EQ(s.live_snapshot().spans, 0u);

  auto opts = ProfileOptions::model_layer();
  opts.live_stats = true;
  const auto run = s.profile(small_graph(), opts);
  const auto snap = s.live_snapshot();
  // M/L publishes no async pairs: observed raw spans == assembled nodes.
  EXPECT_EQ(snap.spans, run.timeline.size());
  EXPECT_EQ(snap.layer_spans, small_graph().layers.size());
  EXPECT_FALSE(snap.layer_types.empty());
  EXPECT_GT(snap.layer_p50, 0);

  // The analyzer is a service-lifetime accumulator: a second run adds on.
  const auto run2 = s.profile(small_graph(), opts);
  EXPECT_EQ(s.live_snapshot().spans, run.timeline.size() + run2.timeline.size());

  // reset_live_stats() starts a fresh epoch.
  s.reset_live_stats();
  EXPECT_EQ(s.live_snapshot().spans, 0u);
}

TEST(Session, LiveStatsSurviveShardAndWindowReconfiguration) {
  // The analyzer is a lifetime accumulator: changing trace_shards or the
  // stats window between runs reconfigures it in place — it must never
  // silently drop accumulated aggregates (reset_live_stats() is the only
  // reset path).
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  auto opts = ProfileOptions::model_layer();
  opts.live_stats = true;
  opts.trace_shards = 1;
  const auto run1 = s.profile(small_graph(), opts);

  opts.trace_shards = 4;
  opts.live_stats_window = 5 * kNsPerMs;
  const auto run2 = s.profile(small_graph(), opts);

  const auto snap = s.live_snapshot();
  EXPECT_EQ(snap.spans, run1.timeline.size() + run2.timeline.size());
  EXPECT_EQ(snap.window, 5 * kNsPerMs);
  EXPECT_EQ(snap.shard_spans.size(), 4u);
  std::uint64_t load_total = 0;
  for (const auto load : snap.shard_spans) load_total += load;
  EXPECT_EQ(load_total, snap.spans);
}

TEST(Session, LiveStatsComposesWithStreamExportAndFootersOnlineAggregates) {
  // The fan-out regression shape: live stats AND streaming export attach
  // to the same drains (two observers) in one run — impossible with the
  // old single-subscriber slot.
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  auto opts = ProfileOptions::model_layer();
  opts.live_stats = true;
  opts.trace_shards = 2;
  opts.stream_export_path = ::testing::TempDir() + "xsp_stream_online.json";
  opts.stream_export_format = trace::ExportFormat::kSpanJson;
  const auto run = s.profile(small_graph(), opts);

  EXPECT_EQ(run.streamed_spans, run.timeline.size());
  EXPECT_EQ(s.live_snapshot().spans, run.timeline.size());

  const std::string streamed = read_file(opts.stream_export_path);
  std::string error;
  EXPECT_TRUE(trace::testjson::valid_json(streamed, &error)) << error;
  // The metadata footer carries the final online aggregates.
  EXPECT_NE(streamed.find("\"online\":{\"spans\":" + std::to_string(run.timeline.size())),
            std::string::npos);
  EXPECT_NE(streamed.find("\"layer_types\":["), std::string::npos);
  std::remove(opts.stream_export_path.c_str());
}

TEST(Session, LiveStatsOffLeavesNoAnalyzerAttached) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), ProfileOptions::model_layer());
  EXPECT_GT(run.timeline.size(), 0u);
  EXPECT_EQ(s.live_snapshot().spans, 0u);
}

TEST(Session, SamplingOffByDefaultLeavesCountersZero) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  const auto run = s.profile(small_graph(), ProfileOptions::model_layer());
  // No sampler is installed at rate 1.0 with no tail-keep: the admission
  // path is the pre-sampling fast path and the accounting stays zero.
  EXPECT_EQ(run.sampled_kept, 0u);
  EXPECT_EQ(run.sampled_dropped, 0u);
  EXPECT_EQ(run.trace_meta().sampled_kept, 0u);
  EXPECT_EQ(run.trace_meta().sampled_dropped, 0u);
}

TEST(Session, SamplingAccountsEveryPublicationAndThinsTheTimeline) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);

  // Run 1: a sampler that admits everything (rate 1.0 + tail-keep forces
  // installation). Its kept count is the run's exact publication volume.
  auto keep_all = ProfileOptions::model_layer();
  keep_all.sampling_tail_keep_ns = 1;  // install a sampler; everything admits
  const auto full = s.profile(small_graph(), keep_all);
  EXPECT_GT(full.sampled_kept, 0u);
  EXPECT_EQ(full.sampled_dropped, 0u);
  EXPECT_GT(full.timeline.size(), 0u);

  // Run 2: same graph and level at rate 0.3 — publication volume is
  // deterministic, so kept + dropped must equal run 1's kept exactly.
  auto sampled = ProfileOptions::model_layer();
  sampled.sampling_rate = 0.3;
  const auto thin = s.profile(small_graph(), sampled);
  EXPECT_EQ(thin.sampled_kept + thin.sampled_dropped, full.sampled_kept);
  EXPECT_GT(thin.sampled_dropped, 0u);
  EXPECT_LT(thin.timeline.size(), full.timeline.size());
  // The per-run accounting flows into the exportable TraceMeta.
  EXPECT_EQ(thin.trace_meta().sampled_kept, thin.sampled_kept);
  EXPECT_EQ(thin.trace_meta().sampled_dropped, thin.sampled_dropped);
}

TEST(Session, SamplingComposesWithLiveStatsAndTopK) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  auto opts = ProfileOptions::full(false);
  opts.live_stats = true;
  opts.sampling_rate = 0.4;
  opts.top_k_kernels = 4;
  const auto run = s.profile(small_graph(), opts);
  EXPECT_GT(run.sampled_dropped, 0u);

  const auto snap = s.live_snapshot();
  // The analyzer only sees admitted spans; the fleet's shed accounting is
  // injected so the snapshot reports the true volumes.
  EXPECT_EQ(snap.sampled_kept, run.sampled_kept);
  EXPECT_EQ(snap.sampled_dropped, run.sampled_dropped);
  EXPECT_DOUBLE_EQ(snap.sampling_rate, 0.4);
  // HT rescaling estimates past the shed: the estimate exceeds what was
  // observed whenever anything was dropped.
  EXPECT_GT(snap.est_spans, static_cast<double>(snap.spans));
  // The bounded kernel table honours its cap.
  EXPECT_LE(snap.kernels.size(), 4u);
  EXPECT_EQ(snap.kernel_row_limit, 4u);
}

TEST(Session, StreamExportToUnwritablePathThrowsAndSessionStaysUsable) {
  Session s(sim::tesla_v100(), framework::FrameworkKind::kTFlow);
  auto opts = ProfileOptions::model_only();
  opts.stream_export_path = "/nonexistent-dir/trace.json";
  EXPECT_THROW(s.profile(small_graph(), opts), std::runtime_error);
  // The failed run must not leave a dangling subscriber on the reused
  // fleet: a follow-up run works and assembles normally.
  const auto run = s.profile(small_graph(), ProfileOptions::model_only());
  EXPECT_EQ(run.timeline.size(), 3u);
}

}  // namespace
}  // namespace xsp::profile
