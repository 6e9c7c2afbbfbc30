#include "xsp/sim/device.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

namespace xsp::sim {

const char* api_name(ApiCallbackInfo::Api a) {
  switch (a) {
    case ApiCallbackInfo::Api::kLaunchKernel: return "cudaLaunchKernel";
    case ApiCallbackInfo::Api::kMemcpy: return "cudaMemcpyAsync";
    case ApiCallbackInfo::Api::kStreamSynchronize: return "cudaStreamSynchronize";
    case ApiCallbackInfo::Api::kDeviceSynchronize: return "cudaDeviceSynchronize";
  }
  return "?";
}

GpuDevice::GpuDevice(GpuSpec spec, SimClock& clock) : spec_(std::move(spec)), clock_(&clock) {}

StreamId GpuDevice::create_stream() {
  const StreamId id = next_stream_++;
  streams_.emplace(id, clock_->now());
  return id;
}

TimePoint GpuDevice::stream_tail(StreamId stream) const {
  const auto it = streams_.find(stream);
  return it == streams_.end() ? clock_->now() : it->second;
}

void GpuDevice::fire_callbacks(const ApiCallbackInfo& info) {
  for (const auto& [token, cb] : callbacks_) {
    (void)token;
    cb(info);
  }
}

LaunchResult GpuDevice::launch_kernel(StreamId stream, const KernelDesc& kernel) {
  ++kernels_launched_;
  const std::uint64_t corr = kernels_launched_;

  // CPU side: the runtime API call.
  const TimePoint api_begin = clock_->now();
  const TimePoint api_end = clock_->advance(spec_.launch_api_ns);

  // Device side: execute at the stream tail, never before the launch lands.
  const OccupancyInfo occ = occupancy_info(kernel, spec_);
  const Ns duration = apply_jitter(kernel_duration(kernel, spec_, occ));
  const TimePoint ready = std::max(stream_tail(stream), api_end + spec_.launch_latency_ns);
  const TimePoint exec_begin = ready;
  const TimePoint exec_end = exec_begin + duration;
  // Replay for metric collection occupies the stream for the extra runs but
  // the reported execution window stays a single run, mirroring CUPTI.
  const TimePoint tail = exec_begin + duration * replay_count_;
  streams_[stream] = tail;

  if (record_activities_) {
    ActivityRecord rec;
    rec.type = ActivityRecord::Type::kKernel;
    rec.correlation_id = corr;
    rec.name = kernel.name;
    rec.stream = stream;
    rec.begin = exec_begin;
    rec.end = exec_end;
    rec.achieved_occupancy = occ.achieved;
    rec.kernel = kernel;
    activities_.push_back(rec);
  }

  ApiCallbackInfo info;
  info.api = ApiCallbackInfo::Api::kLaunchKernel;
  info.correlation_id = corr;
  info.name = kernel.name;
  info.begin = api_begin;
  info.end = api_end;
  fire_callbacks(info);

  if (serialized_) clock_->advance_to(tail);

  return {corr, api_begin, api_end, exec_begin, exec_end};
}

namespace {

/// A copy's API-callback name ("HtoD") and activity name ("MemcpyHtoD"),
/// interned once per process.
const std::pair<common::StrId, common::StrId>& memcpy_names(MemcpyDesc::Direction d) {
  static const auto names = [] {
    std::array<std::pair<common::StrId, common::StrId>, 3> n;
    for (std::size_t i = 0; i < n.size(); ++i) {
      const std::string dir = memcpy_direction_name(static_cast<MemcpyDesc::Direction>(i));
      n[i] = {dir, "Memcpy" + dir};
    }
    return n;
  }();
  return names[static_cast<std::size_t>(d)];
}

}  // namespace

LaunchResult GpuDevice::enqueue_memcpy(StreamId stream, MemcpyDesc copy) {
  ++kernels_launched_;
  const std::uint64_t corr = kernels_launched_;

  const TimePoint api_begin = clock_->now();
  const TimePoint api_end = clock_->advance(spec_.launch_api_ns / 2);

  const Ns duration = memcpy_duration(copy, spec_);
  const TimePoint ready = std::max(stream_tail(stream), api_end + spec_.launch_latency_ns);
  const TimePoint exec_begin = ready;
  const TimePoint exec_end = exec_begin + duration;
  streams_[stream] = exec_end;

  const auto& [direction_name, activity_name] = memcpy_names(copy.direction);
  if (record_activities_) {
    ActivityRecord rec;
    rec.type = ActivityRecord::Type::kMemcpy;
    rec.correlation_id = corr;
    rec.name = activity_name;
    rec.stream = stream;
    rec.begin = exec_begin;
    rec.end = exec_end;
    rec.copy = copy;
    activities_.push_back(rec);
  }

  ApiCallbackInfo info;
  info.api = ApiCallbackInfo::Api::kMemcpy;
  info.correlation_id = corr;
  info.name = direction_name;
  info.begin = api_begin;
  info.end = api_end;
  fire_callbacks(info);

  if (serialized_) clock_->advance_to(exec_end);

  return {corr, api_begin, api_end, exec_begin, exec_end};
}

Ns GpuDevice::apply_jitter(Ns duration) {
  if (jitter_fraction_ <= 0) return duration;
  const double factor = 1.0 + jitter_fraction_ * (jitter_rng_.next_double() * 2.0 - 1.0);
  return static_cast<Ns>(static_cast<double>(duration) * factor);
}

void GpuDevice::synchronize_stream(StreamId stream) {
  const TimePoint begin = clock_->now();
  clock_->advance_to(stream_tail(stream));

  ApiCallbackInfo info;
  info.api = ApiCallbackInfo::Api::kStreamSynchronize;
  info.begin = begin;
  info.end = clock_->now();
  fire_callbacks(info);
}

void GpuDevice::synchronize() {
  const TimePoint begin = clock_->now();
  TimePoint latest = clock_->now();
  for (const auto& [id, tail] : streams_) {
    (void)id;
    latest = std::max(latest, tail);
  }
  clock_->advance_to(latest);

  ApiCallbackInfo info;
  info.api = ApiCallbackInfo::Api::kDeviceSynchronize;
  info.begin = begin;
  info.end = clock_->now();
  fire_callbacks(info);
}

void GpuDevice::drain_activities(std::vector<ActivityRecord>& into) {
  into.clear();
  into.swap(activities_);
}

void GpuDevice::reset() {
  streams_.clear();
  streams_.emplace(kDefaultStream, clock_->now());
  next_stream_ = kDefaultStream + 1;
  activities_.clear();
  kernels_launched_ = 0;
}

}  // namespace xsp::sim
