// FaultInjector: arms a FaultPlan against an assembled system and drives
// the retransmission machinery that recovers from it.
//
// arm() materializes the plan deterministically — specs without explicit
// windows get one drawn from Rng(plan.seed) — and installs the faults:
// degradation/flap windows on the topology's links, slowdown windows on
// the devices, and a launch-failure hook on the host.  reliablePut() and
// reliableCollective() wrap Fabric::transfer with timeout-driven
// re-injection under capped exponential backoff; because the fabric
// computes deliveries eagerly, a whole retransmit chain resolves
// synchronously at injection time, so PGAS quiet and collective
// completion times simply absorb the recovered delivery.
//
// Everything the injector does is counted in ResilienceStats; a null
// injector (no --faults) leaves every subsystem on its original code
// path, bit-identical to a fault-free build.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "fault/domains.hpp"
#include "fault/plan.hpp"
#include "gpu/system.hpp"
#include "util/rng.hpp"

namespace pgasemb::fault {

class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  /// Materialize the plan's windows (seeded draw for unwindowed specs)
  /// and install them on `fabric`'s links and `system`'s devices + host.
  /// Call once per assembly; the injector keeps references to both.
  void arm(gpu::MultiGpuSystem& system, fabric::Fabric& fabric);

  /// The armed specs with every window resolved (tests compare these to
  /// certify that equal seeds give equal schedules).
  const std::vector<FaultSpec>& materialized() const { return materialized_; }

  struct PutResult {
    SimTime acked;          ///< delivery of the final (successful) attempt
    SimTime first_loss;     ///< loss time of the first dropped attempt
    int attempts = 1;       ///< total injections (1 = clean first try)
    bool retransmitted() const { return attempts > 1; }
  };

  /// One-sided put with delivery tracking: re-injects flap-dropped flows
  /// after the retry timeout/backoff until one delivery lands. Counts
  /// retransmits + recovery latency.
  PutResult reliablePut(int src, int dst, std::int64_t payload_bytes,
                        std::int64_t n_messages, SimTime at);

  /// Collective chunk transfer with bounded reissue (counted separately
  /// as collective_reissues). Returns a Delivery whose `delivered` is
  /// the final successful attempt's delivery; never dropped.
  fabric::Fabric::Delivery reliableCollective(int src, int dst,
                                              std::int64_t payload_bytes,
                                              std::int64_t n_messages,
                                              SimTime at,
                                              double bandwidth_fraction);

  // --- Node-level fault domains (multi-node topologies) -------------------

  /// Node-granularity view of the armed plan; null until arm() ran on a
  /// multi-node fabric. The hierarchical route (fault/hier_route.hpp)
  /// elects leaders and marks degraded node pairs from it.
  const NodeFaultDomains* domains() const { return domains_.get(); }

  /// Counts one per-node-pair flat fallback whose direct traffic spanned
  /// [at, until] of simulated time. Fallbacks overlap (one per rank or
  /// source slice and node pair), so degraded time grows only by the
  /// part of the span no earlier fallback covered.
  void recordHierFallback(SimTime at, SimTime until);

  /// Counts one standby staging rebuild.
  void recordStagingRebuild() { ++stats_.staging_rebuilds; }

  ResilienceStats& stats() { return stats_; }
  const ResilienceStats& stats() const { return stats_; }

 private:
  SimTime launchFaultDelay(int device, SimTime host_now);

  PutResult reliableTransfer(int src, int dst, std::int64_t payload_bytes,
                             std::int64_t n_messages, SimTime at,
                             double bandwidth_fraction, bool collective);

  FaultPlan plan_;
  gpu::MultiGpuSystem* system_ = nullptr;
  fabric::Fabric* fabric_ = nullptr;
  std::vector<FaultSpec> materialized_;
  ResilienceStats stats_;

  struct LaunchFaultState {
    double probability = 0.0;
    SimTime start = SimTime::zero();
    SimTime end = SimTime::zero();
    Rng rng{0};
  };
  std::vector<std::pair<int, LaunchFaultState>> launch_faults_;
  SimTime launch_retry_penalty_ = SimTime::zero();

  std::unique_ptr<NodeFaultDomains> domains_;
  /// Disjoint degraded spans recorded so far: start -> end.
  std::map<SimTime, SimTime> degraded_spans_;
};

}  // namespace pgasemb::fault
