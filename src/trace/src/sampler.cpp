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
    : options_(options),
      tail_keep_ns_(options_.tail_keep_ns),
      seed_(options_.seed) {
  const double rate = options_.rate;
  if (rate < 1.0) {
    threshold_ = to_threshold(rate);
    rate_ = std::max(rate, 0.0);
  }
  // Below 1 for every rate but NaN, which keeps everything here too.
  const double pressure_rate = std::min(rate, 1.0) * kShedKeepFraction;
  if (pressure_rate < 1.0) pressure_threshold_ = to_threshold(pressure_rate);
}

bool Sampler::admit(const Span& span) const noexcept {
  if (threshold_ == kAlways) return true;
  if (tail_kept(span)) return true;
  return key_of(span) < threshold_;
}

double Sampler::effective_rate(const Span& span) const noexcept {
  if (threshold_ == kAlways) return 1.0;
  if (tail_kept(span)) return 1.0;
  return rate_;
}

bool Sampler::keep_under_pressure(const Span& span) const noexcept {
  if (tail_kept(span)) return true;
  if (pressure_threshold_ == kAlways) return true;
  return key_of(span) < pressure_threshold_;
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
