// Deterministic fault plans for the simulated system.
//
// A FaultPlan is a list of fault specs — link degradation windows, link
// flaps that drop in-flight flows, straggler GPUs, transient kernel
// launch failures — that the resilience machinery recovers from (its
// retry constants live in injector.cpp).  Specs may carry explicit time
// windows; specs without one get a window drawn deterministically from
// the plan seed when the injector arms, so `--faults ... --fault-seed N`
// reproduces the exact same perturbed run every time, and a different
// seed yields a different fault schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace pgasemb::fault {

enum class FaultKind {
  kLinkDegrade,  ///< bandwidth cut and/or latency spike on a link
  kLinkFlap,     ///< link drops every flow in flight during the window
  kStraggler,    ///< per-device compute slowdown
  kLaunchFail,   ///< transient kernel-launch failures (host retries)
  // Node-scoped kinds (multi-node topologies only; `a` = node id):
  kNicDegrade,    ///< bandwidth cut on a node's NIC (both directions)
  kNicFlap,       ///< node's NIC drops every flow in flight
  kLeaderFail,    ///< node-leader GPU's staging role fails over
  kNodeStraggle,  ///< compute slowdown on every GPU of a node
};

/// True for the kinds that target a whole node rather than a link/GPU.
bool nodeScoped(FaultKind kind);

/// One fault. `a`/`b` select the target: (src, dst) GPU pair for link
/// faults, device id in `a` for straggler/launch faults, node id in `a`
/// for node-scoped faults; -1 = all.
struct FaultSpec {
  FaultKind kind = FaultKind::kLinkDegrade;
  int a = -1;
  int b = -1;
  /// kLinkDegrade / kNicDegrade: achieved-bandwidth factor in (0, 1].
  /// kStraggler / kNodeStraggle: compute slowdown >= 1.
  /// kLaunchFail: per-launch failure probability in [0, 1).
  double magnitude = 1.0;
  /// kLinkDegrade only: extra per-hop delivery latency (latency spike).
  SimTime extra_latency = SimTime::zero();
  /// Active window. start == end means "no explicit window": the
  /// injector draws one from the plan seed when it arms.
  SimTime start = SimTime::zero();
  SimTime end = SimTime::zero();

  bool windowed() const { return end > start; }
  std::string describe() const;
};

struct FaultPlan {
  std::vector<FaultSpec> specs;
  std::uint64_t seed = 0;
  /// Horizon the seeded window draw spreads unwindowed specs over.
  SimTime horizon = SimTime::ms(10.0);

  bool empty() const { return specs.empty(); }

  /// Parses a comma-separated spec string:
  ///   link-degrade:SRC-DST:FACTOR[:START_MS-END_MS]
  ///   latency-spike:SRC-DST:EXTRA_US[:START_MS-END_MS]
  ///   link-flap:SRC-DST[:START_MS-END_MS]
  ///   straggler:DEV:SLOWDOWN[:START_MS-END_MS]
  ///   launch-fail:DEV:PROB[:START_MS-END_MS]
  ///   nic-degrade:NODE:FACTOR[:START_MS-END_MS]
  ///   nic-flap:NODE[:START_MS-END_MS]
  ///   leader-fail:NODE[:START_MS-END_MS]
  ///   node-straggle:NODE:SLOWDOWN[:START_MS-END_MS]
  /// `*` (or `*-*`) targets all links/devices/nodes.  Example:
  ///   --faults link-degrade:0-1:0.5,straggler:2:3:1.0-2.5
  /// Throws InvalidArgumentError with a pointed message on malformed
  /// specs.  Specs without a window get one drawn from `seed` at arm
  /// time.
  static FaultPlan parse(const std::string& spec_string, std::uint64_t seed,
                         SimTime horizon = SimTime::ms(10.0));

  std::string describe() const;
};

/// Everything the resilience machinery counted during one run.
/// `faults_injected` counts concrete manifestations: armed fault
/// windows, dropped flows, and failed launch attempts.
struct ResilienceStats {
  std::int64_t faults_injected = 0;
  std::int64_t dropped_flows = 0;
  std::int64_t dropped_bytes = 0;
  /// One-sided put re-injections (and the payload they re-sent).
  std::int64_t retransmits = 0;
  std::int64_t retransmitted_bytes = 0;
  /// Collective chunk re-injections.
  std::int64_t collective_reissues = 0;
  /// Kernel launches the host had to re-drive after a transient failure.
  std::int64_t launch_retries = 0;
  /// Sum over recovered flows of (final delivery - first loss): the
  /// simulated time spent re-driving dropped traffic.
  SimTime recovery_latency = SimTime::zero();
  /// Engine-level SLO fallbacks (retriever switches) and the retriever
  /// that finished the run after the last switch ("" = no switch).
  std::int64_t fallback_switches = 0;
  std::string fallback_retriever;
  /// Hierarchical degraded mode: per-node-pair flat-a2a fallback events
  /// (one per rank's traffic to one degraded node pair) and the simulated
  /// wall time during which any such traffic was in flight (the union of
  /// the fallback spans, so it never exceeds the run).
  std::int64_t hier_fallbacks = 0;
  SimTime degraded_time = SimTime::zero();
  /// Leader failovers (one per node per fail window, counted when the
  /// re-elected leader is first used) and the standby staging rebuilds
  /// they triggered.
  std::int64_t leader_failovers = 0;
  std::int64_t staging_rebuilds = 0;

  bool any() const {
    return faults_injected != 0 || dropped_flows != 0 || retransmits != 0 ||
           collective_reissues != 0 || launch_retries != 0 ||
           fallback_switches != 0 || hier_fallbacks != 0 ||
           leader_failovers != 0 || staging_rebuilds != 0;
  }
};

}  // namespace pgasemb::fault
