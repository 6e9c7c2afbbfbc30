// The annotation-key contract between span producers (Session's offline
// record->span conversions) and consumers (merge_runs). One definition so
// a renamed key is a compile-visible edit on both sides, interned once per
// process.
#pragma once

#include "xsp/cupti/cupti.hpp"
#include "xsp/trace/span.hpp"

namespace xsp::profile {

struct SpanKeys {
  trace::StrId layer_type{"layer_type"};
  trace::StrId shape{"shape"};
  trace::StrId layer_index{"layer_index"};
  trace::StrId alloc_bytes{"alloc_bytes"};
  trace::StrId kernel{"kernel"};
  trace::StrId grid{"grid"};
  trace::StrId block{"block"};
  trace::StrId kind{"kind"};
  trace::StrId kind_kernel{"kernel"};
  trace::StrId kind_memcpy{"memcpy"};
  trace::StrId launch_kernel{sim::api_name(sim::ApiCallbackInfo::Api::kLaunchKernel)};
  trace::StrId memcpy_async{sim::api_name(sim::ApiCallbackInfo::Api::kMemcpy)};
  trace::StrId flop_count_sp{cupti::kFlopCountSp};
  trace::StrId dram_read_bytes{cupti::kDramReadBytes};
  trace::StrId dram_write_bytes{cupti::kDramWriteBytes};
  trace::StrId achieved_occupancy{cupti::kAchievedOccupancy};
};

inline const SpanKeys& span_keys() {
  static const SpanKeys k;
  return k;
}

}  // namespace xsp::profile
