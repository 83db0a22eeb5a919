// Degradation policy: falling back to a simpler retrieval strategy when
// the active one keeps blowing its latency SLO.
//
// The paper's fused PGAS path wins by hiding communication inside the
// lookup kernel — but a degraded link stretches exactly the part it
// hides, and quiet then stalls the whole kernel.  The collective
// baseline, whose chunked transfers reissue independently, degrades more
// gracefully.  FallbackPolicy + SloTracker give the engine the switch:
// after `patience` consecutive over-SLO batches, the engine swaps the
// active retriever for kFallbackRetriever and records the event in
// ResilienceStats.
#pragma once

#include <vector>

#include "util/time.hpp"

namespace pgasemb::core {

/// Registry name of the strategy a run degrades to: the collective
/// baseline.
inline constexpr const char* kFallbackRetriever = "nccl_collective";

struct FallbackPolicy {
  /// Absolute latency SLO in milliseconds, held against each batch total
  /// (or each sliding-window query p95); 0 disables the policy.
  double slo_ms = 0.0;
  /// Consecutive over-SLO batches (or over-SLO sliding-window p95
  /// evaluations in query mode) tolerated before switching.
  int patience = 3;

  bool enabled() const { return slo_ms > 0.0; }
};

/// Feeds per-batch totals (closed loop) or per-query latencies
/// (serving) against the policy's SLO; fires exactly once (then
/// disarms — one switch per run, no flip-flopping). A tracker is used
/// in one mode per run.
class SloTracker {
 public:
  explicit SloTracker(const FallbackPolicy& policy);

  /// Record one batch. Returns true on the batch that exhausts the
  /// patience budget — the caller should switch retrievers now.
  bool record(SimTime batch_total);

  /// Record one query's end-to-end latency (ServingRunner). Once the
  /// sliding window of the 64 most recent latencies is full, its p95 is
  /// held against the SLO on every query: tail-based, so one slow query
  /// cannot trip the switch — the window's p95 must stay over the SLO
  /// for `patience` consecutive queries. Returns true on the query that
  /// exhausts the patience budget.
  bool recordQuery(SimTime latency);

  /// The current sliding window's p95 (zero until the window fills).
  SimTime windowP95() const;

 private:
  /// Holds one evaluation against the SLO; true when it exhausts the
  /// patience budget.
  bool evaluate(SimTime value);

  FallbackPolicy policy_;
  SimTime slo_;
  int consecutive_over_ = 0;
  bool fired_ = false;
  // Query mode: circular window of the most recent latencies.
  std::vector<SimTime> window_;
  std::size_t window_next_ = 0;
  bool window_full_ = false;
};

}  // namespace pgasemb::core
