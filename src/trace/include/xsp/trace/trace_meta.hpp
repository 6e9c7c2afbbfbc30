// Run telemetry: the one declaration of every field a trace carries about
// its own collection (drops, slots, sampling, interning).
//
// kMetaFields is the schema. Each surface derives from it instead of
// restating the fields: the binary wire footer embeds TraceMeta whole,
// the span-JSON footer loops over the rows, profile::RunTrace inherits
// TraceMeta, and TraceServer::bind_metrics() names each series the server
// produces xsp_trace_<key> (plus _total for a counter) with the row's help
// text. Adding a field: its member and row here, its row in the trace
// server's own table if the server produces it, and a wire kVersion bump
// (the sizeof(wire::Footer) static_assert forces it).
#pragma once

#include <cstdint>
#include <iterator>
#include <type_traits>

#include "xsp/metrics/registry.hpp"

namespace xsp::trace {

/// Collection-level telemetry embedded alongside the spans: the numbers an
/// operator needs without scanning the trace. The field order is the byte
/// order of the wire footer and the key order of the JSON footer; each
/// field's meaning is its kMetaFields help text.
struct TraceMeta {
  std::uint64_t dropped_annotations = 0;
  std::uint64_t interned_strings = 0;
  std::uint64_t interned_bytes = 0;
  std::uint64_t live_slots = 0;
  std::uint64_t retired_slots = 0;
  std::uint64_t slot_bytes = 0;
  std::uint64_t remote_dropped_spans = 0;
  std::uint64_t remote_reconnects = 0;
  std::uint64_t sampled_kept = 0;
  std::uint64_t sampled_dropped = 0;
  std::uint64_t strtab_budget_bytes = 0;
  std::uint64_t rejected_interns = 0;
};
static_assert(std::is_trivially_copyable_v<TraceMeta>);

/// One TraceMeta field: its JSON key, its help text (also the /metrics
/// HELP line), whether it is a monotonic counter or a gauge, and where it
/// lives in the struct.
struct MetaField {
  const char* key;
  const char* help;
  metrics::Kind kind;
  std::uint64_t TraceMeta::*member;
};

inline constexpr MetaField kMetaFields[] = {
    {"dropped_annotations",
     "Per-span annotation drops (tag/metric capacity overflow) over the collected spans; "
     "0 means lossless",
     metrics::Kind::kCounter, &TraceMeta::dropped_annotations},
    {"interned_strings",
     "Distinct strings in the process-wide StringTable, which never evicts",
     metrics::Kind::kGauge, &TraceMeta::interned_strings},
    {"interned_bytes", "Approximate resident bytes of the process-wide StringTable",
     metrics::Kind::kGauge, &TraceMeta::interned_bytes},
    {"live_slots",
     "Producer slots currently registered; tracks live producer threads, not thread "
     "churn, while reclamation works",
     metrics::Kind::kGauge, &TraceMeta::live_slots},
    {"retired_slots", "Producer slots retired by thread-exit reclamation",
     metrics::Kind::kCounter, &TraceMeta::retired_slots},
    {"slot_bytes", "Approximate bytes resident in producer slots, live and parked",
     metrics::Kind::kGauge, &TraceMeta::slot_bytes},
    {"remote_dropped_spans",
     "Spans a RemoteSink dropped to a full send buffer or a dying connection; non-zero "
     "means the collector's copy of the trace is incomplete",
     metrics::Kind::kCounter, &TraceMeta::remote_dropped_spans},
    {"remote_reconnects", "Reconnects a RemoteSink performed", metrics::Kind::kCounter,
     &TraceMeta::remote_reconnects},
    {"sampled_kept",
     "Spans the admission sampler kept at publish; published == sampled_kept + "
     "sampled_dropped while a sampler is attached, both 0 without one",
     metrics::Kind::kCounter, &TraceMeta::sampled_kept},
    {"sampled_dropped", "Spans the admission sampler shed at publish",
     metrics::Kind::kCounter, &TraceMeta::sampled_dropped},
    {"strtab_budget_bytes", "The StringTable's byte budget (0 = unbounded)",
     metrics::Kind::kGauge, &TraceMeta::strtab_budget_bytes},
    {"rejected_interns",
     "Interns rejected at the StringTable budget or id-space cap; each reads as the "
     "<interned-cap> sentinel",
     metrics::Kind::kCounter, &TraceMeta::rejected_interns},
};
// A member without a row fails here.
static_assert(std::size(kMetaFields) * sizeof(std::uint64_t) == sizeof(TraceMeta));

}  // namespace xsp::trace
