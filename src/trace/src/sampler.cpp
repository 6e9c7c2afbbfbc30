#include "xsp/trace/sampler.hpp"

#include <algorithm>

namespace xsp::trace {

namespace {

/// Maps a keep probability onto the 64-bit hash space. The product is
/// computed against 2^53 (exact in a double for any rate in [0, 1)) and
/// shifted up, so the conversion never hits the UB of casting an
/// out-of-range double. Rates >= 1 (and NaN, defensively) collapse to the
/// kAlways sentinel via the caller.
std::uint64_t to_threshold(double rate) {
  if (!(rate > 0.0)) return 0;
  return static_cast<std::uint64_t>(rate * 9007199254740992.0) << 11;
}

}  // namespace

Sampler::Sampler(SamplerOptions options)
    : options_(std::move(options)),
      tail_keep_ns_(options_.tail_keep_ns),
      seed_(options_.seed) {
  const auto make_policy = [](double rate) {
    Policy p;
    if (rate < 1.0) {
      p.threshold = to_threshold(rate);
      p.rate = std::max(rate, 0.0);
    }
    // Below 1 for every rate but NaN, which keeps everything here too.
    const double pressure_rate = std::min(rate, 1.0) * kShedKeepFraction;
    p.pressure_threshold = pressure_rate < 1.0 ? to_threshold(pressure_rate) : kAlways;
    return p;
  };

  const Policy base = make_policy(options_.rate);
  for (Policy& level : levels_) level = base;
  for (const auto& [level, rate] : options_.level_rates) {
    const int slot = (level >= 0 && level < kLevelSlots) ? level : kLevelSlots - 1;
    levels_[slot] = make_policy(rate);
  }
  tracers_.reserve(options_.tracer_rates.size());
  for (const auto& [tracer, rate] : options_.tracer_rates)
    tracers_.emplace_back(tracer.raw(), make_policy(rate));

  pass_through_ = base.threshold == kAlways;
  for (const Policy& level : levels_)
    if (level.threshold != kAlways) pass_through_ = false;
  for (const auto& [raw, policy] : tracers_)
    if (policy.threshold != kAlways) pass_through_ = false;
}

const Sampler::Policy& Sampler::policy_for(const Span& span) const noexcept {
  const std::uint32_t tracer_raw = span.tracer.raw();
  for (const auto& [raw, policy] : tracers_)
    if (raw == tracer_raw) return policy;
  const int slot =
      (span.level >= 0 && span.level < kLevelSlots) ? span.level : kLevelSlots - 1;
  return levels_[slot];
}

bool Sampler::admit(const Span& span) const noexcept {
  if (pass_through_) return true;
  const Policy& policy = policy_for(span);
  if (policy.threshold == kAlways) return true;
  if (tail_kept(span)) return true;
  return key_of(span) < policy.threshold;
}

double Sampler::effective_rate(const Span& span) const noexcept {
  if (pass_through_) return 1.0;
  const Policy& policy = policy_for(span);
  if (policy.threshold == kAlways) return 1.0;
  if (tail_kept(span)) return 1.0;
  return policy.rate;
}

bool Sampler::keep_under_pressure(const Span& span) const noexcept {
  if (tail_kept(span)) return true;
  const Policy& policy = policy_for(span);
  if (policy.pressure_threshold == kAlways) return true;
  return key_of(span) < policy.pressure_threshold;
}

std::size_t Sampler::shed_low_value(SpanBatch& batch) const {
  const std::size_t before = batch.size();
  batch.erase(std::remove_if(batch.begin(), batch.end(),
                             [this](const Span& span) {
                               return !keep_under_pressure(span);
                             }),
              batch.end());
  return before - batch.size();
}

}  // namespace xsp::trace
