// A CUPTI-shaped profiling interface over the simulated GPU device.
//
// "The CUPTI library captures the CUDA API calls, GPU activities (GPU tasks
//  such as kernel executions and memory copies), and GPU kernel metrics
//  (low-level hardware counters such as GPU achieved occupancy, flop count,
//  and memory read/write for GPU kernels)."            — paper, Section III-B
//
// Three capture surfaces are provided, mirroring the real library:
//   * callback API  — per runtime-API-call records (cudaLaunchKernel, ...),
//   * activity API  — buffered device-side execution records with
//                     correlation ids,
//   * metric API    — per-kernel counter values; collection requires kernel
//                     replay, which is what makes metric profiling expensive
//                     ("GPU memory metrics ... can slow down execution by
//                     over 100x" — Section III-C).
//
// The profiler keeps no records. It hands each one to a RecordConsumer as
// CUPTI delivers it: an API record from inside its callback, and an
// activity record, with the kernel's metric values, when the activity
// buffer is flushed. Flushes happen at every synchronize callback (where
// CUPTI drains completed buffers and the flush cost is charged) and in
// stop(), so a consumer has seen every record once stop() returns.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "xsp/common/string_table.hpp"
#include "xsp/common/time.hpp"
#include "xsp/sim/device.hpp"

namespace xsp::cupti {

/// Metric names supported by the simulated counters — the four the paper's
/// analyses use (Section III-D3).
inline constexpr const char* kFlopCountSp = "flop_count_sp";
inline constexpr const char* kDramReadBytes = "dram_read_bytes";
inline constexpr const char* kDramWriteBytes = "dram_write_bytes";
inline constexpr const char* kAchievedOccupancy = "achieved_occupancy";

/// Replay passes required to collect one metric. The GPU exposes few
/// hardware counters, so capturing a metric set requires re-running each
/// kernel once per counter group; DRAM traffic counters need the most
/// groups, which is why memory metrics are the expensive ones.
int metric_replay_passes(const std::string& metric);

/// True if `metric` is one of the supported counter names.
bool is_known_metric(const std::string& metric);

/// All supported metric names.
const std::vector<std::string>& known_metrics();

struct CuptiOptions {
  /// Capture device-side activity records (kernels, memcpys).
  bool enable_activities = true;
  /// Metrics to collect per kernel; empty disables metric profiling.
  std::vector<std::string> metrics;
  /// CPU cost charged inside each instrumented API callback.
  Ns callback_overhead_ns = us(40);
  /// CPU cost of handling one activity record (buffer management), charged
  /// on the launch path as the record is committed.
  Ns activity_overhead_ns = us(40);
  /// One-time costs of attaching/flushing the profiler.
  Ns init_overhead_ns = ms(75);
  Ns flush_overhead_ns = ms(75);
};

/// One captured runtime API call. The kernel name is interned: capturing a
/// record in the callback hot path stores a 32-bit id, not a string copy.
struct ApiRecord {
  sim::ApiCallbackInfo::Api api = sim::ApiCallbackInfo::Api::kLaunchKernel;
  std::uint64_t correlation_id = 0;
  common::StrId name;
  TimePoint begin = 0;
  TimePoint end = 0;
};

/// One activity record's metric values, in metric-name order. Fixed
/// capacity (every supported metric at most once), so capturing a kernel's
/// counters allocates nothing.
struct MetricValues {
  struct Entry {
    common::StrId name;
    double value = 0;
  };
  static constexpr std::size_t kCapacity = 4;

  std::array<Entry, kCapacity> entries{};
  std::uint8_t count = 0;

  [[nodiscard]] std::size_t size() const noexcept { return count; }
  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  [[nodiscard]] const Entry* begin() const noexcept { return entries.data(); }
  [[nodiscard]] const Entry* end() const noexcept { return entries.data() + count; }
  /// The value of `name`; throws std::out_of_range when absent.
  [[nodiscard]] double at(common::StrId name) const;
};

/// Receives a profiling session's records as they are delivered, on the
/// thread driving the device. Records are passed by reference and are not
/// kept: a consumer copies what it needs before returning.
class RecordConsumer {
 public:
  virtual ~RecordConsumer() = default;
  /// Every runtime API call (launches, copies, synchronizes), from inside
  /// its callback.
  virtual void on_api(const ApiRecord& record) = 0;
  /// One device activity at a flush, oldest first, with its metric values
  /// (empty for memcpys and when no metrics were requested). Delivered
  /// whenever activities or metrics are enabled: metric values belong to
  /// the record they were read for.
  virtual void on_activity(const sim::ActivityRecord& record, const MetricValues& metrics) = 0;
};

/// RAII profiling session. Construction validates options; start() attaches
/// to the device (and charges the attach cost); stop() detaches and charges
/// the flush cost. Records go to the consumer as they are delivered.
class CuptiProfiler {
 public:
  /// Throws std::invalid_argument on an unknown metric name. `consumer`
  /// must outlive the profiler.
  CuptiProfiler(sim::GpuDevice& device, CuptiOptions options, RecordConsumer& consumer);
  ~CuptiProfiler();

  CuptiProfiler(const CuptiProfiler&) = delete;
  CuptiProfiler& operator=(const CuptiProfiler&) = delete;

  /// Attach: subscribe callbacks, enable activity buffering, and configure
  /// kernel replay + serialized launches when metrics are requested (metric
  /// collection on real hardware serializes and replays kernels).
  void start();

  /// Detach and restore the device's previous replay, serialization and
  /// activity-recording state.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] const CuptiOptions& options() const noexcept { return options_; }

  /// Total replay passes per kernel implied by the requested metric set
  /// (1 when no metrics are collected).
  [[nodiscard]] int replay_count() const noexcept { return replay_count_; }

 private:
  /// Drain the device's buffered activity records to the consumer. The
  /// synchronize callbacks and stop() call it.
  void flush_activities();

  sim::GpuDevice* device_;
  CuptiOptions options_;
  RecordConsumer* consumer_;
  int replay_count_ = 1;
  bool running_ = false;
  int subscription_ = 0;
  bool saved_serialized_ = false;
  int saved_replay_ = 1;
  bool saved_record_activities_ = false;
  /// The requested metrics, deduplicated and name-sorted (the order
  /// MetricValues keeps), each with the counter it reads. Resolved once.
  struct MetricSlot {
    common::StrId name;
    double (*read)(const sim::ActivityRecord&) = nullptr;
  };
  std::vector<MetricSlot> metric_set_;
  /// The device drains into this buffer; it keeps its capacity across
  /// flushes.
  std::vector<sim::ActivityRecord> drained_;
};

}  // namespace xsp::cupti
