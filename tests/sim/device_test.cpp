#include "xsp/sim/device.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../trace/test_alloc_count.hpp"

namespace xsp::sim {
namespace {

KernelDesc small_kernel(const std::string& name = "k") {
  KernelDesc k;
  k.name = name;
  k.klass = KernelClass::kElementwise;
  k.grid = {1024, 1, 1};
  k.block = {256, 1, 1};
  k.flops = 1e6;
  k.dram_read_bytes = 10e6;
  k.dram_write_bytes = 10e6;
  return k;
}

TEST(GpuDevice, LaunchIsAsynchronous) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  const auto r = dev.launch_kernel(kDefaultStream, small_kernel());
  // CPU returned after only the API cost; execution is in the future.
  EXPECT_EQ(clock.now(), r.api_end);
  EXPECT_GT(r.exec_end, clock.now());
  EXPECT_GT(r.exec_begin, r.api_begin);
}

TEST(GpuDevice, SynchronizeAdvancesCpuToCompletion) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  const auto r = dev.launch_kernel(kDefaultStream, small_kernel());
  dev.synchronize();
  EXPECT_EQ(clock.now(), r.exec_end);
}

TEST(GpuDevice, StreamIsFifo) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  const auto a = dev.launch_kernel(kDefaultStream, small_kernel("a"));
  const auto b = dev.launch_kernel(kDefaultStream, small_kernel("b"));
  EXPECT_GE(b.exec_begin, a.exec_end);
}

TEST(GpuDevice, IndependentStreamsOverlap) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  const StreamId s2 = dev.create_stream();
  const auto a = dev.launch_kernel(kDefaultStream, small_kernel("a"));
  const auto b = dev.launch_kernel(s2, small_kernel("b"));
  // The second launch did not wait for the first stream's tail.
  EXPECT_LT(b.exec_begin, a.exec_end);
}

TEST(GpuDevice, SerializedModeBlocksUntilExecution) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  dev.set_serialized(true);
  const auto r = dev.launch_kernel(kDefaultStream, small_kernel());
  EXPECT_EQ(clock.now(), r.exec_end);
}

TEST(GpuDevice, CorrelationIdsIncrease) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  const auto a = dev.launch_kernel(kDefaultStream, small_kernel());
  const auto b = dev.launch_kernel(kDefaultStream, small_kernel());
  EXPECT_LT(a.correlation_id, b.correlation_id);
}

TEST(GpuDevice, ActivityRecordsMatchLaunches) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  dev.set_record_activities(true);
  const auto r1 = dev.launch_kernel(kDefaultStream, small_kernel("x"));
  const auto r2 = dev.launch_kernel(kDefaultStream, small_kernel("y"));
  std::vector<ActivityRecord> acts;
  dev.drain_activities(acts);
  ASSERT_EQ(acts.size(), 2u);
  EXPECT_EQ(acts[0].correlation_id, r1.correlation_id);
  EXPECT_EQ(acts[0].name, "x");
  EXPECT_EQ(acts[0].begin, r1.exec_begin);
  EXPECT_EQ(acts[0].end, r1.exec_end);
  EXPECT_EQ(acts[1].correlation_id, r2.correlation_id);
  // Draining clears the buffer.
  dev.drain_activities(acts);
  EXPECT_TRUE(acts.empty());
}

TEST(GpuDevice, ActivityRecordingIsOffUntilEnabled) {
  // Like CUDA without CUPTI: nothing is buffered unless a profiler asked.
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  EXPECT_FALSE(dev.record_activities());
  dev.launch_kernel(kDefaultStream, small_kernel());
  EXPECT_TRUE(dev.activities().empty());
  dev.set_record_activities(true);
  dev.launch_kernel(kDefaultStream, small_kernel());
  EXPECT_EQ(dev.activities().size(), 1u);
  dev.set_record_activities(false);
  dev.launch_kernel(kDefaultStream, small_kernel());
  EXPECT_EQ(dev.activities().size(), 1u);
}

TEST(GpuDevice, UnprofiledLaunchAllocatesNothing) {
  // Names longer than any small-string buffer: a name copied as a string
  // anywhere on the launch path would allocate.
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  const KernelDesc a = small_kernel("volta_scudnn_128x64_relu_interior_nn_v1");
  const KernelDesc b = small_kernel("Eigen::TensorCwiseBinaryOp<scalar_product_op>");
  const MemcpyDesc copy{MemcpyDesc::Direction::kHostToDevice, 1e6};
  dev.enqueue_memcpy(kDefaultStream, copy);  // interns the memcpy names once
  const std::uint64_t before = g_xsp_test_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    dev.launch_kernel(kDefaultStream, i % 2 == 0 ? a : b);
    if (i % 100 == 0) dev.enqueue_memcpy(kDefaultStream, copy);
  }
  dev.synchronize();
  EXPECT_EQ(g_xsp_test_alloc_count.load(std::memory_order_relaxed) - before, 0u);
}

TEST(GpuDevice, ApiCallbacksFireWithCorrelation) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  std::vector<ApiCallbackInfo> seen;
  dev.subscribe([&](const ApiCallbackInfo& info) { seen.push_back(info); });
  const auto r = dev.launch_kernel(kDefaultStream, small_kernel("k"));
  dev.synchronize();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].api, ApiCallbackInfo::Api::kLaunchKernel);
  EXPECT_EQ(seen[0].correlation_id, r.correlation_id);
  EXPECT_EQ(seen[0].name, "k");
  EXPECT_EQ(seen[1].api, ApiCallbackInfo::Api::kDeviceSynchronize);
}

TEST(GpuDevice, CallbackClockAdvanceIsAttributedToApi) {
  // A profiler that burns CPU inside the callback (as CUPTI subscribers do)
  // stretches simulated time; later launches start later.
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  dev.subscribe([&clock](const ApiCallbackInfo& info) {
    if (info.api == ApiCallbackInfo::Api::kLaunchKernel) clock.advance(us(100));
  });
  const TimePoint before = clock.now();
  dev.launch_kernel(kDefaultStream, small_kernel());
  EXPECT_GE(clock.now() - before, us(100));
}

TEST(GpuDevice, ReplayMultipliesStreamOccupancy) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  dev.set_record_activities(true);
  dev.set_replay_count(4);
  const auto r = dev.launch_kernel(kDefaultStream, small_kernel());
  dev.synchronize();
  const Ns one_run = r.exec_end - r.exec_begin;
  // Device busy until 4 replays complete; reported window is one run.
  EXPECT_EQ(clock.now(), r.exec_begin + 4 * one_run);
  std::vector<ActivityRecord> acts;
  dev.drain_activities(acts);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].duration(), one_run);
}

TEST(GpuDevice, MemcpyActivitiesRecorded) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  dev.set_record_activities(true);
  MemcpyDesc copy{MemcpyDesc::Direction::kHostToDevice, 64e6};
  const auto r = dev.enqueue_memcpy(kDefaultStream, copy);
  dev.synchronize_stream(kDefaultStream);
  EXPECT_EQ(clock.now(), r.exec_end);
  std::vector<ActivityRecord> acts;
  dev.drain_activities(acts);
  ASSERT_EQ(acts.size(), 1u);
  EXPECT_EQ(acts[0].type, ActivityRecord::Type::kMemcpy);
  EXPECT_EQ(acts[0].name, "MemcpyHtoD");
}

TEST(GpuDevice, ResetClearsStateButKeepsSubscribers) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  dev.set_record_activities(true);
  int callback_count = 0;
  dev.subscribe([&](const ApiCallbackInfo&) { ++callback_count; });
  dev.launch_kernel(kDefaultStream, small_kernel());
  ASSERT_EQ(dev.activities().size(), 1u);
  dev.reset();
  EXPECT_TRUE(dev.activities().empty());
  EXPECT_EQ(dev.kernels_launched(), 0u);
  dev.launch_kernel(kDefaultStream, small_kernel());
  EXPECT_EQ(callback_count, 2);
}

TEST(GpuDevice, KernelOrderOnStreamPreservedInActivities) {
  SimClock clock;
  GpuDevice dev(tesla_v100(), clock);
  dev.set_record_activities(true);
  for (int i = 0; i < 10; ++i) {
    dev.launch_kernel(kDefaultStream, small_kernel("k" + std::to_string(i)));
  }
  std::vector<ActivityRecord> acts;
  dev.drain_activities(acts);
  ASSERT_EQ(acts.size(), 10u);
  for (std::size_t i = 1; i < acts.size(); ++i) {
    EXPECT_GE(acts[i].begin, acts[i - 1].end) << "stream must serialize kernels";
  }
}

}  // namespace
}  // namespace xsp::sim
