#include "core/fallback.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace pgasemb::core {

namespace {
/// Query mode: how many of the most recent latencies the p95 covers.
constexpr std::size_t kQueryWindow = 64;
}  // namespace

SloTracker::SloTracker(const FallbackPolicy& policy)
    : policy_(policy), slo_(SimTime::ms(policy.slo_ms)) {
  if (!policy_.enabled()) return;
  PGASEMB_CHECK(policy_.patience >= 1, "fallback patience must be >= 1");
}

bool SloTracker::record(SimTime batch_total) {
  if (!policy_.enabled() || fired_) return false;
  return evaluate(batch_total);
}

bool SloTracker::evaluate(SimTime value) {
  consecutive_over_ = value > slo_ ? consecutive_over_ + 1 : 0;
  fired_ = consecutive_over_ >= policy_.patience;
  return fired_;
}

SimTime SloTracker::windowP95() const {
  if (!window_full_) return SimTime::zero();
  // Nearest-rank p95 over the window (small — 64 entries).
  std::vector<SimTime> sorted = window_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  auto rank = static_cast<std::size_t>(0.95 * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return sorted[rank];
}

bool SloTracker::recordQuery(SimTime latency) {
  if (!policy_.enabled() || fired_) return false;
  if (window_.empty()) {
    window_.assign(kQueryWindow, SimTime::zero());
    window_next_ = 0;
    window_full_ = false;
  }
  window_[window_next_] = latency;
  window_next_ = (window_next_ + 1) % window_.size();
  const bool just_filled = !window_full_ && window_next_ == 0;
  if (just_filled) window_full_ = true;
  if (!window_full_) return false;
  return evaluate(windowP95());
}

}  // namespace pgasemb::core
