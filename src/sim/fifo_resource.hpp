// A serially-occupied simulated resource (one direction of an NVLink
// link, a DMA engine, a device's SM array at kernel granularity, ...).
//
// Requests are served in submission order; the event loop submits them in
// nondecreasing simulated-time order, so this models a FIFO hardware
// queue.  The resource tracks cumulative busy time for utilization
// reporting (used to reproduce the paper's ncu throughput observation).
#pragma once

#include <algorithm>
#include <string>

#include "util/expect.hpp"
#include "util/time.hpp"

namespace pgasemb::sim {

class FifoResource {
 public:
  explicit FifoResource(std::string name) : name_(std::move(name)) {}

  struct Grant {
    SimTime start;  ///< When service begins (>= arrival).
    SimTime end;    ///< When service completes.
  };

  /// Request the resource for `duration`, arriving at `arrival`:
  /// service starts at max(arrival, previous end). Inline, since every
  /// fabric hop makes one request.
  Grant acquire(SimTime arrival, SimTime duration) {
    PGASEMB_ASSERT(duration >= SimTime::zero(), "negative service duration");
    const SimTime start = std::max(arrival, free_at_);
    free_at_ = start + duration;
    busy_ += duration;
    return Grant{start, free_at_};
  }

  /// Earliest time a request arriving at `at` could begin service.
  SimTime nextFreeTime(SimTime at) const;

  /// Pending committed work beyond `at` (zero when the queue is drained).
  SimTime backlog(SimTime at) const;

  SimTime busyTime() const { return busy_; }
  SimTime freeAt() const { return free_at_; }
  const std::string& name() const { return name_; }

  /// Utilization over [0, horizon].
  double utilization(SimTime horizon) const;

  void reset();

 private:
  // The queue state leads: every fabric hop reads and writes it.
  SimTime free_at_ = SimTime::zero();
  SimTime busy_ = SimTime::zero();
  std::string name_;
};

}  // namespace pgasemb::sim
