#include "xsp/cupti/cupti.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "../trace/test_alloc_count.hpp"

namespace xsp::cupti {
namespace {

sim::KernelDesc test_kernel(const std::string& name = "k") {
  sim::KernelDesc k;
  k.name = name;
  k.klass = sim::KernelClass::kElementwise;
  k.grid = {2048, 1, 1};
  k.block = {256, 1, 1};
  k.flops = 1e7;
  k.dram_read_bytes = 50e6;
  k.dram_write_bytes = 50e6;
  return k;
}

/// Keeps every record the profiler delivers, in delivery order. An
/// activity keeps its metric values beside it.
struct CollectingConsumer final : RecordConsumer {
  struct Activity {
    sim::ActivityRecord record;
    MetricValues metrics;
  };
  std::vector<ApiRecord> api;
  std::vector<Activity> activities;

  void on_api(const ApiRecord& record) override { api.push_back(record); }
  void on_activity(const sim::ActivityRecord& record, const MetricValues& metrics) override {
    activities.push_back({record, metrics});
  }
};

TEST(Cupti, KnownMetricsMatchPaperSet) {
  // The four metrics the paper's analyses use (Section III-D3).
  EXPECT_TRUE(is_known_metric("flop_count_sp"));
  EXPECT_TRUE(is_known_metric("dram_read_bytes"));
  EXPECT_TRUE(is_known_metric("dram_write_bytes"));
  EXPECT_TRUE(is_known_metric("achieved_occupancy"));
  EXPECT_FALSE(is_known_metric("warp_execution_efficiency"));
  EXPECT_EQ(known_metrics().size(), 4u);
}

TEST(Cupti, MemoryMetricsAreTheExpensiveOnes) {
  // Section III-C: "GPU memory metrics are especially expensive to profile".
  EXPECT_GT(metric_replay_passes(kDramReadBytes), metric_replay_passes(kFlopCountSp));
  EXPECT_GT(metric_replay_passes(kDramWriteBytes), metric_replay_passes(kAchievedOccupancy));
}

TEST(Cupti, UnknownMetricThrows) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CuptiOptions opts;
  opts.metrics = {"no_such_counter"};
  CollectingConsumer records;
  EXPECT_THROW(CuptiProfiler(dev, opts, records), std::invalid_argument);
}

TEST(Cupti, CapturesApiAndActivityRecords) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CollectingConsumer records;
  CuptiProfiler prof(dev, {}, records);
  prof.start();
  const auto r = dev.launch_kernel(sim::kDefaultStream, test_kernel("conv"));
  prof.stop();

  ASSERT_GE(records.api.size(), 1u);
  EXPECT_EQ(records.api[0].correlation_id, r.correlation_id);
  ASSERT_EQ(records.activities.size(), 1u);
  EXPECT_EQ(records.activities[0].record.name, "conv");
  EXPECT_EQ(records.activities[0].record.correlation_id, r.correlation_id);
}

TEST(Cupti, NoMetricsMeansNoReplay) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CollectingConsumer records;
  CuptiProfiler prof(dev, {}, records);
  EXPECT_EQ(prof.replay_count(), 1);
  prof.start();
  EXPECT_EQ(dev.replay_count(), 1);
  EXPECT_FALSE(dev.serialized());
  prof.stop();
}

TEST(Cupti, MetricsConfigureReplayAndSerialization) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CuptiOptions opts;
  opts.metrics = {kFlopCountSp, kDramReadBytes};
  CollectingConsumer records;
  CuptiProfiler prof(dev, opts, records);
  EXPECT_EQ(prof.replay_count(), 1 + metric_replay_passes(kFlopCountSp) +
                                     metric_replay_passes(kDramReadBytes));
  prof.start();
  EXPECT_EQ(dev.replay_count(), prof.replay_count());
  EXPECT_TRUE(dev.serialized());
  prof.stop();
  EXPECT_EQ(dev.replay_count(), 1);
  EXPECT_FALSE(dev.serialized());
}

TEST(Cupti, MetricValuesComeFromHardwareCounters) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CuptiOptions opts;
  opts.metrics = {kFlopCountSp, kDramReadBytes, kDramWriteBytes, kAchievedOccupancy};
  CollectingConsumer records;
  CuptiProfiler prof(dev, opts, records);
  prof.start();
  const auto r = dev.launch_kernel(sim::kDefaultStream, test_kernel());
  prof.stop();

  // The values travel with their activity record.
  ASSERT_EQ(records.activities.size(), 1u);
  EXPECT_EQ(records.activities[0].record.correlation_id, r.correlation_id);
  const auto& values = records.activities[0].metrics;
  ASSERT_EQ(values.size(), 4u);
  EXPECT_DOUBLE_EQ(values.at(kFlopCountSp), 1e7);
  EXPECT_DOUBLE_EQ(values.at(kDramReadBytes), 50e6);
  EXPECT_DOUBLE_EQ(values.at(kDramWriteBytes), 50e6);
  EXPECT_GT(values.at(kAchievedOccupancy), 0.0);
  EXPECT_LE(values.at(kAchievedOccupancy), 1.0);
  EXPECT_THROW((void)values.at("no_such_counter"), std::out_of_range);
}

TEST(Cupti, MetricValuesAreNameOrderedAndDeduplicated) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CuptiOptions opts;
  opts.metrics = {kFlopCountSp, kAchievedOccupancy, kDramWriteBytes, kFlopCountSp};
  CollectingConsumer records;
  CuptiProfiler prof(dev, opts, records);
  prof.start();
  dev.enqueue_memcpy(sim::kDefaultStream, {sim::MemcpyDesc::Direction::kHostToDevice, 1e6});
  dev.launch_kernel(sim::kDefaultStream, test_kernel());
  prof.stop();

  const auto& activities = records.activities;
  ASSERT_EQ(activities.size(), 2u);
  EXPECT_TRUE(activities[0].metrics.empty()) << "a memcpy has no kernel counters";
  std::vector<std::string> names;
  for (const auto& e : activities[1].metrics) names.push_back(e.name.str());
  EXPECT_EQ(names, (std::vector<std::string>{kAchievedOccupancy, kDramWriteBytes, kFlopCountSp}));
}

TEST(Cupti, MetricCollectionSlowsExecutionDramatically) {
  // Section III-C: memory-metric profiling "can slow down execution by over
  // 100x" on kernel-heavy workloads; verify replay dominates wall time.
  const auto run = [](bool with_metrics) {
    SimClock clock;
    sim::GpuDevice dev(sim::tesla_v100(), clock);
    CuptiOptions opts;
    opts.init_overhead_ns = 0;
    opts.flush_overhead_ns = 0;
    if (with_metrics) {
      opts.metrics = {kFlopCountSp, kDramReadBytes, kDramWriteBytes, kAchievedOccupancy};
    }
    CollectingConsumer records;
    CuptiProfiler prof(dev, opts, records);
    prof.start();
    const TimePoint begin = clock.now();
    for (int i = 0; i < 50; ++i) dev.launch_kernel(sim::kDefaultStream, test_kernel());
    dev.synchronize();
    const TimePoint end = clock.now();
    prof.stop();
    return end - begin;
  };
  const Ns plain = run(false);
  const Ns with_metrics = run(true);
  EXPECT_GT(with_metrics, plain * 10);
}

TEST(Cupti, ReportedKernelDurationUnaffectedByReplay) {
  // CUPTI reports one replay's timing even though the device ran many.
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);

  CollectingConsumer plain_records;
  CuptiProfiler plain(dev, {}, plain_records);
  plain.start();
  dev.launch_kernel(sim::kDefaultStream, test_kernel());
  plain.stop();
  const Ns plain_duration = plain_records.activities.at(0).record.duration();

  dev.reset();
  CuptiOptions opts;
  opts.metrics = {kDramReadBytes};
  CollectingConsumer metric_records;
  CuptiProfiler with_metrics(dev, opts, metric_records);
  with_metrics.start();
  dev.launch_kernel(sim::kDefaultStream, test_kernel());
  with_metrics.stop();
  EXPECT_EQ(metric_records.activities.at(0).record.duration(), plain_duration);
}

TEST(Cupti, CallbacksChargeCpuOverhead) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CuptiOptions opts;
  opts.init_overhead_ns = 0;
  opts.flush_overhead_ns = 0;
  opts.callback_overhead_ns = us(40);
  opts.activity_overhead_ns = us(40);

  const TimePoint t0 = clock.now();
  dev.launch_kernel(sim::kDefaultStream, test_kernel());
  const Ns unprofiled_cpu = clock.now() - t0;

  dev.reset();
  CollectingConsumer records;
  CuptiProfiler prof(dev, opts, records);
  prof.start();
  const TimePoint t1 = clock.now();
  dev.launch_kernel(sim::kDefaultStream, test_kernel());
  const Ns profiled_cpu = clock.now() - t1;
  prof.stop();

  EXPECT_GE(profiled_cpu - unprofiled_cpu, us(80));
}

TEST(Cupti, StopRestoresDeviceState) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  dev.set_serialized(true);
  dev.set_replay_count(2);
  {
    CuptiOptions opts;
    opts.metrics = {kFlopCountSp};
    CollectingConsumer records;
    CuptiProfiler prof(dev, opts, records);
    prof.start();
    prof.stop();
  }
  EXPECT_TRUE(dev.serialized());
  EXPECT_EQ(dev.replay_count(), 2);
}

TEST(Cupti, StopRestoresActivityRecordingState) {
  // A device records activities only while a profiler has turned that on;
  // detaching must hand back whatever the owner had set, both ways.
  for (const bool owner_setting : {false, true}) {
    SimClock clock;
    sim::GpuDevice dev(sim::tesla_v100(), clock);
    dev.set_record_activities(owner_setting);
    {
      CollectingConsumer records;
      CuptiProfiler prof(dev, {}, records);
      prof.start();
      EXPECT_TRUE(dev.record_activities());
      prof.stop();
    }
    EXPECT_EQ(dev.record_activities(), owner_setting);
    dev.launch_kernel(sim::kDefaultStream, test_kernel());
    EXPECT_EQ(dev.activities().size(), owner_setting ? 1u : 0u);
  }
}

TEST(Cupti, LaunchRecordsCarryKernelNameWithoutActivities) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CuptiOptions opts;
  opts.enable_activities = false;
  CollectingConsumer records;
  CuptiProfiler prof(dev, opts, records);
  prof.start();
  dev.launch_kernel(sim::kDefaultStream, test_kernel("conv"));
  prof.stop();
  ASSERT_FALSE(records.api.empty());
  EXPECT_EQ(records.api[0].api, sim::ApiCallbackInfo::Api::kLaunchKernel);
  EXPECT_EQ(records.api[0].name, "conv");
}

TEST(Cupti, MetricCaptureAllocationsGrowLogarithmically) {
  // Capturing four metrics per kernel hands them over in fixed-capacity
  // entries beside their record: 10x the kernels may only add the
  // doublings of the device's activity buffer and of the collecting
  // consumer's vectors, never an allocation per kernel.
  const sim::KernelDesc kernel =
      test_kernel("a_kernel_name_longer_than_any_small_string_buffer");
  const auto allocations = [&kernel](int kernels) {
    SimClock clock;
    sim::GpuDevice dev(sim::tesla_v100(), clock);
    CuptiOptions opts;
    opts.metrics = {kFlopCountSp, kDramReadBytes, kDramWriteBytes, kAchievedOccupancy};
    CollectingConsumer records;
    CuptiProfiler prof(dev, opts, records);
    const std::uint64_t before = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
    prof.start();
    for (int i = 0; i < kernels; ++i) dev.launch_kernel(sim::kDefaultStream, kernel);
    prof.stop();
    const std::uint64_t during = g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(records.activities.size(), static_cast<std::size_t>(kernels));
    return during;
  };
  constexpr int kFew = 100;
  constexpr int kMany = 10 * kFew;
  const std::uint64_t few = allocations(kFew);
  const std::uint64_t many = allocations(kMany);
  EXPECT_LE(many, few + std::bit_width(static_cast<unsigned>(kMany)))
      << few << " allocations for " << kFew << " kernels, " << many << " for " << kMany;
}

TEST(Cupti, DestructorStopsRunningProfiler) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CollectingConsumer records;
  {
    CuptiProfiler prof(dev, {}, records);
    prof.start();
    dev.launch_kernel(sim::kDefaultStream, test_kernel());
  }  // destructor must stop and detach
  dev.launch_kernel(sim::kDefaultStream, test_kernel());
  SUCCEED();
}

TEST(Cupti, ActivitiesCanBeDisabled) {
  SimClock clock;
  sim::GpuDevice dev(sim::tesla_v100(), clock);
  CuptiOptions opts;
  opts.enable_activities = false;
  CollectingConsumer records;
  CuptiProfiler prof(dev, opts, records);
  prof.start();
  dev.launch_kernel(sim::kDefaultStream, test_kernel());
  prof.stop();
  EXPECT_TRUE(records.activities.empty());
  EXPECT_FALSE(records.api.empty());
}

}  // namespace
}  // namespace xsp::cupti
