// Sampler: the single span-admission decision point for the publish path.
//
// "Millions of users" means the profiler can never be the bottleneck: under
// always-on collection the publish path must be able to shed load *before*
// spans cost batch slots, wire bytes, and analysis state. The sampler is a
// head-sampling policy evaluated once per span at publication:
//
//  - Deterministic hash admission. The decision hashes the span's
//    correlation id (falling back to the span id when there is none) through
//    a splitmix64 finalizer and compares against a precomputed 64-bit
//    threshold (rate scaled to the hash space). Every span of one request
//    shares a correlation id, so a whole launch/execution pair — and any
//    future request-scoped span group — is kept or shed coherently, and the
//    same stream re-publishes to the same decisions (replay-stable).
//  - One policy for every span. The rate, the tail threshold and the
//    pressure fraction apply alike at every stack level and for every
//    tracer, so a request's one draw holds for its model, layer and kernel
//    spans together.
//  - Tail-keep escape hatch. Spans whose duration meets `tail_keep_ns` are
//    force-admitted regardless of the hash — slow outliers are exactly the
//    spans a profiler exists to catch, so rate control never hides them.
//
// The sampler is immutable after construction and every query is const, so
// publishers on any thread may consult one instance without synchronization.
// Accounting is the caller's job: TraceServer/RemoteSink count kept and
// sampled-out spans so `published == admitted + sampled_dropped` holds
// exactly and analyses can rescale (see analysis::OnlineAnalyzer).
//
// `effective_rate` returns the exact inclusion probability the admission
// decision used for a given span (1.0 for force-admitted tails). It is the
// Horvitz-Thompson weight denominator: an estimator that weights each
// admitted span by 1/effective_rate is unbiased for the unsampled total.
#pragma once

#include <cstdint>

#include "xsp/trace/span.hpp"

namespace xsp::trace {

struct SamplerOptions {
  /// Keep probability in [0, 1]. Values >= 1 keep everything.
  double rate = 1.0;
  /// Force-admit spans with duration >= this many ns; 0 disables. Tail-kept
  /// spans have inclusion probability 1.0 (they bypass the hash entirely).
  Ns tail_keep_ns = 0;
  /// Mixed into the hash so independent fleets decorrelate their keep sets.
  std::uint64_t seed = 0;
};

class Sampler {
 public:
  /// Fraction of the configured rate that survives congestion shedding
  /// (`keep_under_pressure`): under backpressure a span is high-value if it
  /// is a tail outlier or its hash falls inside rate * kShedKeepFraction.
  static constexpr double kShedKeepFraction = 0.125;

  explicit Sampler(SamplerOptions options);

  /// Head-sampling decision for one span. Deterministic: same correlation
  /// id (or span id), same policy, same verdict.
  [[nodiscard]] bool admit(const Span& span) const noexcept;

  /// Exact inclusion probability `admit` used for this span: 1.0 for
  /// force-admitted tails and a keep-all policy, the configured rate
  /// otherwise. Never returns 0 for an admitted span.
  [[nodiscard]] double effective_rate(const Span& span) const noexcept;

  /// Value ordering for congestion shedding: true if the span should
  /// survive backpressure (tail outlier, or hash within
  /// rate * kShedKeepFraction). Independent of `admit` accounting — the
  /// caller decides what shedding means (see RemoteSink).
  [[nodiscard]] bool keep_under_pressure(const Span& span) const noexcept;

  /// In-place congestion shed: removes every span `keep_under_pressure`
  /// rejects, preserving order. Returns the number removed.
  std::size_t shed_low_value(SpanBatch& batch) const;

  /// True when every admission decision is "keep" (rate 1.0): callers may
  /// skip per-span consultation entirely.
  [[nodiscard]] bool pass_through() const noexcept { return threshold_ == kAlways; }

  [[nodiscard]] const SamplerOptions& options() const noexcept { return options_; }

  /// splitmix64 finalizer — the admission hash, exposed so tests can
  /// predict decisions.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

 private:
  /// Sentinel threshold meaning "admit unconditionally" (a plain `hash <
  /// threshold` compare cannot express probability exactly 1).
  static constexpr std::uint64_t kAlways = ~0ull;

  [[nodiscard]] std::uint64_t key_of(const Span& span) const noexcept {
    const std::uint64_t key =
        span.correlation_id != 0 ? span.correlation_id : span.id;
    return mix(key ^ seed_);
  }
  [[nodiscard]] bool tail_kept(const Span& span) const noexcept {
    return tail_keep_ns_ > 0 && span.duration() >= tail_keep_ns_;
  }

  SamplerOptions options_;
  std::uint64_t threshold_ = kAlways;           ///< admission bound
  std::uint64_t pressure_threshold_ = kAlways;  ///< congestion-shed bound
  double rate_ = 1.0;                           ///< inclusion probability
  Ns tail_keep_ns_ = 0;
  std::uint64_t seed_ = 0;
};

}  // namespace xsp::trace
