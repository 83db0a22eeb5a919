#include "sim/fifo_resource.hpp"

#include <algorithm>

namespace pgasemb::sim {

SimTime FifoResource::nextFreeTime(SimTime at) const {
  return std::max(at, free_at_);
}

SimTime FifoResource::backlog(SimTime at) const {
  if (free_at_ <= at) return SimTime::zero();
  return free_at_ - at;
}

double FifoResource::utilization(SimTime horizon) const {
  if (horizon <= SimTime::zero()) return 0.0;
  return std::min(1.0, busy_ / horizon);
}

void FifoResource::reset() {
  free_at_ = SimTime::zero();
  busy_ = SimTime::zero();
}

}  // namespace pgasemb::sim
