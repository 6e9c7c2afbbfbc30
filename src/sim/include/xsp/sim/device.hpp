// GpuDevice: a deterministic discrete-event simulation of a CUDA GPU.
//
// The device executes kernels and memory copies on per-stream FIFO
// timelines driven by a shared virtual clock. Launches are asynchronous:
// the CPU-side runtime API call returns after `launch_api_ns` of simulated
// CPU time while the device-side execution is scheduled at the stream tail
// — exactly the structure XSP's launch/execution span pairs capture.
//
// Profiling hooks mirror what CUPTI offers on real hardware:
//   * API callbacks   — invoked synchronously around runtime API calls
//                       (CUPTI callback API analogue),
//   * activity records — buffered device-side execution records with
//                       correlation ids (CUPTI activity API analogue),
//                       only while a profiler has turned recording on,
//   * replay           — metric collection re-executes kernels, multiplying
//                       device time (CUPTI metric/event replay analogue).
//
// Names travel as interned StrIds, so with no profiler attached a launch
// allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xsp/common/clock.hpp"
#include "xsp/common/rng.hpp"
#include "xsp/sim/cost_model.hpp"
#include "xsp/sim/gpu_spec.hpp"
#include "xsp/sim/kernel.hpp"

namespace xsp::sim {

using StreamId = int;
constexpr StreamId kDefaultStream = 0;

/// Information passed to runtime-API callback subscribers.
struct ApiCallbackInfo {
  enum class Api : std::uint8_t {
    kLaunchKernel,
    kMemcpy,
    kStreamSynchronize,
    kDeviceSynchronize,
  };
  Api api = Api::kLaunchKernel;
  std::uint64_t correlation_id = 0;  ///< 0 for synchronize calls
  common::StrId name;                ///< kernel name / memcpy direction
  TimePoint begin = 0;               ///< CPU-side API entry
  TimePoint end = 0;                 ///< CPU-side API return
};

const char* api_name(ApiCallbackInfo::Api a);

/// A completed device-side activity (kernel execution or memcpy).
struct ActivityRecord {
  enum class Type : std::uint8_t { kKernel, kMemcpy };
  Type type = Type::kKernel;
  std::uint64_t correlation_id = 0;
  common::StrId name;  ///< kernel name, or "Memcpy<direction>"
  StreamId stream = kDefaultStream;
  TimePoint begin = 0;
  TimePoint end = 0;
  double achieved_occupancy = 0;  ///< kernels only
  KernelDesc kernel;              ///< valid when type == kKernel
  MemcpyDesc copy;                ///< valid when type == kMemcpy

  [[nodiscard]] Ns duration() const noexcept { return end - begin; }
};

/// Result of one asynchronous launch, as seen from the CPU.
struct LaunchResult {
  std::uint64_t correlation_id = 0;
  TimePoint api_begin = 0;
  TimePoint api_end = 0;
  TimePoint exec_begin = 0;
  TimePoint exec_end = 0;
};

class GpuDevice {
 public:
  /// The device shares the CPU's virtual clock: API calls advance it,
  /// synchronization waits on it.
  GpuDevice(GpuSpec spec, SimClock& clock);

  [[nodiscard]] const GpuSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] SimClock& clock() noexcept { return *clock_; }

  /// Create an additional stream; kDefaultStream always exists.
  StreamId create_stream();

  /// Asynchronously launch a kernel. Charges the CPU the runtime-API cost,
  /// schedules execution at the stream tail, fires API callbacks, and
  /// buffers an activity record when recording is on.
  LaunchResult launch_kernel(StreamId stream, const KernelDesc& kernel);

  /// Asynchronously enqueue a host<->device copy.
  LaunchResult enqueue_memcpy(StreamId stream, MemcpyDesc copy);

  /// Block the CPU until all work on `stream` has completed.
  void synchronize_stream(StreamId stream);

  /// Block the CPU until all streams have drained.
  void synchronize();

  /// Serialized-launch mode: every launch blocks until the execution
  /// completes. This is the simulator's CUDA_LAUNCH_BLOCKING=1, used by XSP
  /// to disambiguate parallel events (paper, Section III-A).
  void set_serialized(bool on) noexcept { serialized_ = on; }
  [[nodiscard]] bool serialized() const noexcept { return serialized_; }

  /// Metric-collection replay: each kernel occupies the device `count`
  /// times (the activity record still reports a single execution, as CUPTI
  /// does). count >= 1.
  void set_replay_count(int count) noexcept { replay_count_ = count < 1 ? 1 : count; }
  [[nodiscard]] int replay_count() const noexcept { return replay_count_; }

  /// Subscribe to runtime-API callbacks. Subscribers run synchronously on
  /// the (simulated) CPU; any overhead they add via the clock is naturally
  /// attributed to the API call — as with real CUPTI callbacks. Returns a
  /// token for unsubscribe().
  using ApiCallback = std::function<void(const ApiCallbackInfo&)>;
  int subscribe(ApiCallback cb) {
    const int token = next_subscriber_++;
    callbacks_.emplace_back(token, std::move(cb));
    return token;
  }
  void unsubscribe(int token) {
    std::erase_if(callbacks_, [token](const auto& p) { return p.first == token; });
  }
  void clear_subscribers() { callbacks_.clear(); }

  /// Move all buffered activity records (oldest first) into `into`,
  /// replacing its contents. The two buffers trade places, so a caller
  /// that drains into the same vector every time allocates nothing once
  /// both have grown.
  void drain_activities(std::vector<ActivityRecord>& into);

  /// Buffered activity records without draining.
  [[nodiscard]] const std::vector<ActivityRecord>& activities() const noexcept {
    return activities_;
  }

  /// Enable/disable activity buffering. Off by default, like CUDA without
  /// CUPTI: nothing drains the buffer unless a GPU profiler is attached, so
  /// the profiler turns it on for its session.
  void set_record_activities(bool on) noexcept { record_activities_ = on; }
  [[nodiscard]] bool record_activities() const noexcept { return record_activities_; }

  /// Total kernels launched since construction/reset.
  [[nodiscard]] std::uint64_t kernels_launched() const noexcept { return kernels_launched_; }

  /// Forget all pending state between evaluation runs (streams' tails,
  /// buffered activities, counters). Subscribers are kept.
  void reset();

  /// Deterministic run-to-run timing noise: kernel durations are scaled by
  /// a uniform factor in [1-f, 1+f] drawn from a seeded generator. Off by
  /// default (f = 0); used to exercise the analysis pipeline's multi-run
  /// trimmed-mean summaries.
  void set_timing_jitter(double fraction, std::uint64_t seed) {
    jitter_fraction_ = fraction;
    jitter_rng_ = SplitMix64(seed);
  }

 private:
  void fire_callbacks(const ApiCallbackInfo& info);
  TimePoint stream_tail(StreamId stream) const;
  Ns apply_jitter(Ns duration);

  GpuSpec spec_;
  SimClock* clock_;
  std::unordered_map<StreamId, TimePoint> streams_{{kDefaultStream, 0}};
  StreamId next_stream_ = kDefaultStream + 1;
  std::vector<std::pair<int, ApiCallback>> callbacks_;
  int next_subscriber_ = 1;
  std::vector<ActivityRecord> activities_;
  bool record_activities_ = false;
  bool serialized_ = false;
  int replay_count_ = 1;
  std::uint64_t kernels_launched_ = 0;
  double jitter_fraction_ = 0;
  SplitMix64 jitter_rng_{0};
};

}  // namespace xsp::sim
