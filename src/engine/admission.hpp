// Overload-resilient admission control for the open-loop serving path
// (DESIGN.md §13).
//
// Three independent mechanisms, each absent-neutral when its knob is at
// the default:
//  - bounded admission queue (`queue_limit`): when the backlog is at the
//    bound, the shed policy decides who pays — block (admit anyway,
//    count the over-bound admit), shed-oldest (evict the head of the
//    queue; its deadline is already the most hopeless) or shed-newest
//    (drop the incoming query at the door);
//  - per-query queue-wait deadline (`query_deadline`): a query still
//    waiting when its deadline expires is shed as a deadline miss
//    instead of being served hopelessly late;
//  - sliding-window admission controller (`window`, `slo`): tracks the
//    p95 of the last `window` completed queries and sheds a
//    deterministic (error-diffusion, no RNG) fraction of incoming
//    queries while the window p95 sits above the SLO, backing off
//    additively once it recovers.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/load_generator.hpp"
#include "util/time.hpp"

namespace pgasemb::engine {

struct AdmissionParams {
  std::int64_t queue_limit = 0;  ///< pending queries; 0 = unbounded
  ShedPolicy policy = ShedPolicy::kBlock;
  SimTime query_deadline = SimTime::zero();  ///< 0 = no deadline
  int window = 0;          ///< completed-query p95 window; 0 = off
  SimTime slo = SimTime::zero();  ///< controller target (per-query)

  bool any() const {
    return queue_limit > 0 || query_deadline > SimTime::zero() ||
           (window > 0 && slo > SimTime::zero());
  }
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionParams params);

  /// Gate an arriving query before it enters `pending`. Returns false
  /// when the query is shed at the door (controller shed, or
  /// shed-newest on a full queue); may evict from `pending` instead
  /// (shed-oldest). The caller pushes the query itself on true.
  bool admit(const Query& query, std::deque<Query>& pending);

  /// Shed every pending query whose queue wait exceeded the deadline by
  /// `now` (counted as deadline misses). No-op without a deadline.
  void expire(SimTime now, std::deque<Query>& pending);

  /// Completed-query feedback for the sliding-window controller.
  void onCompletion(SimTime latency);


  std::int64_t shedQueue() const { return shed_queue_; }
  std::int64_t shedOverload() const { return shed_overload_; }
  std::int64_t deadlineMisses() const { return deadline_misses_; }
  std::int64_t blockedArrivals() const { return blocked_; }
  /// Every query shed by any mechanism (never served).
  std::int64_t totalShed() const {
    return shed_queue_ + shed_overload_ + deadline_misses_;
  }

 private:
  AdmissionParams params_;
  /// Ring of the last `window` completed-query latencies.
  std::vector<SimTime> window_;
  std::size_t window_next_ = 0;
  bool window_full_ = false;
  double shed_fraction_ = 0.0;
  double debt_ = 0.0;  ///< error-diffusion accumulator (deterministic)
  std::int64_t shed_queue_ = 0;
  std::int64_t shed_overload_ = 0;
  std::int64_t deadline_misses_ = 0;
  std::int64_t blocked_ = 0;
};

}  // namespace pgasemb::engine
