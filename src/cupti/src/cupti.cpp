#include "xsp/cupti/cupti.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace xsp::cupti {

namespace {

struct MetricInfo {
  const char* name;
  int replay_passes;
  /// Reads the simulated hardware counter from a kernel's record.
  double (*read)(const sim::ActivityRecord&);
};

// DRAM traffic counters sit behind the fewest shared hardware counter
// registers and need the most replay passes; occupancy is derived from
// cheap SM counters.
constexpr MetricInfo kMetricTable[] = {
    {kFlopCountSp, 4, [](const sim::ActivityRecord& r) { return r.kernel.flops; }},
    {kDramReadBytes, 12, [](const sim::ActivityRecord& r) { return r.kernel.dram_read_bytes; }},
    {kDramWriteBytes, 12, [](const sim::ActivityRecord& r) { return r.kernel.dram_write_bytes; }},
    {kAchievedOccupancy, 2, [](const sim::ActivityRecord& r) { return r.achieved_occupancy; }},
};
static_assert(std::size(kMetricTable) == MetricValues::kCapacity);

/// Activity-buffer flush work performed when the application blocks in a
/// synchronization call (CUPTI drains completed records there).
constexpr Ns kSyncFlushOverheadNs = us(800);

const MetricInfo* find_metric(const std::string& metric) {
  for (const auto& m : kMetricTable) {
    if (metric == m.name) return &m;
  }
  return nullptr;
}

}  // namespace

double MetricValues::at(common::StrId name) const {
  for (const Entry& e : *this) {
    if (e.name == name) return e.value;
  }
  throw std::out_of_range("MetricValues::at: no metric \"" + name.str() + '"');
}

int metric_replay_passes(const std::string& metric) {
  const MetricInfo* m = find_metric(metric);
  return m != nullptr ? m->replay_passes : 0;
}

bool is_known_metric(const std::string& metric) { return metric_replay_passes(metric) > 0; }

const std::vector<std::string>& known_metrics() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& m : kMetricTable) v.emplace_back(m.name);
    return v;
  }();
  return names;
}

CuptiProfiler::CuptiProfiler(sim::GpuDevice& device, CuptiOptions options,
                             RecordConsumer& consumer)
    : device_(&device), options_(std::move(options)), consumer_(&consumer) {
  int passes = 0;
  for (const auto& m : options_.metrics) {
    const MetricInfo* info = find_metric(m);
    if (info == nullptr) throw std::invalid_argument("unknown GPU metric: " + m);
    passes += info->replay_passes;
    const common::StrId name(info->name);
    if (std::none_of(metric_set_.begin(), metric_set_.end(),
                     [name](const MetricSlot& s) { return s.name == name; })) {
      metric_set_.push_back({name, info->read});
    }
  }
  std::sort(metric_set_.begin(), metric_set_.end(), [](const MetricSlot& a, const MetricSlot& b) {
    return a.name.view() < b.name.view();
  });
  replay_count_ = 1 + passes;
}

CuptiProfiler::~CuptiProfiler() {
  if (running_) stop();
}

void CuptiProfiler::start() {
  if (running_) return;
  running_ = true;

  device_->clock().advance(options_.init_overhead_ns);

  saved_serialized_ = device_->serialized();
  saved_replay_ = device_->replay_count();
  saved_record_activities_ = device_->record_activities();
  device_->set_record_activities(options_.enable_activities || !metric_set_.empty());

  if (!metric_set_.empty()) {
    // Metric collection replays each kernel per counter group and
    // serializes launches, exactly the cost structure of nvprof/Nsight.
    device_->set_replay_count(replay_count_);
    device_->set_serialized(true);
  }

  // Runtime API call records come from the callback API.
  subscription_ = device_->subscribe([this](const sim::ApiCallbackInfo& info) {
    // Callback body runs on the simulated CPU: charge its cost.
    device_->clock().advance(options_.callback_overhead_ns);
    consumer_->on_api(
        {info.api, info.correlation_id, info.name, info.begin, device_->clock().now()});
    if (info.api == sim::ApiCallbackInfo::Api::kLaunchKernel ||
        info.api == sim::ApiCallbackInfo::Api::kMemcpy) {
      // Activity-buffer bookkeeping happens on the launch path too.
      if (options_.enable_activities) {
        device_->clock().advance(options_.activity_overhead_ns);
      }
      return;
    }
    // Synchronize entry points drain completed activity buffers.
    flush_activities();
    if (options_.enable_activities) device_->clock().advance(kSyncFlushOverheadNs);
  });
}

void CuptiProfiler::flush_activities() {
  device_->drain_activities(drained_);
  if (!options_.enable_activities && metric_set_.empty()) return;
  for (const sim::ActivityRecord& rec : drained_) {
    MetricValues values;
    if (rec.type == sim::ActivityRecord::Type::kKernel) {
      for (const MetricSlot& slot : metric_set_) {
        values.entries[values.count++] = {slot.name, slot.read(rec)};
      }
    }
    consumer_->on_activity(rec, values);
  }
}

void CuptiProfiler::stop() {
  if (!running_) return;
  running_ = false;

  // Completed work must be drained before detaching.
  device_->synchronize();
  flush_activities();
  device_->clock().advance(options_.flush_overhead_ns);

  device_->unsubscribe(subscription_);
  device_->set_serialized(saved_serialized_);
  device_->set_replay_count(saved_replay_);
  device_->set_record_activities(saved_record_activities_);
}

}  // namespace xsp::cupti
