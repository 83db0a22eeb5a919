// NodeFaultDomains: the node-granularity view of a materialized fault
// plan.
//
// Multi-node topologies fail at node granularity — a NIC flaps for every
// flow crossing it, a node-leader GPU's staging daemon dies, a thermal
// event slows a whole chassis.  The injector materializes the plan's
// node-scoped specs (nic-degrade, nic-flap, leader-fail, node-straggle)
// into this structure so the hierarchical paths can make *scoped*
// decisions:
//
//   - leaderAt(node, t): the elected staging leader at time t.  During a
//     leader-fail window the next GPU on the node is deterministically
//     re-elected (rank 1); outside the window leadership reverts to the
//     default (rank 0).
//   - pairDegraded(src_node, dst_node, t): true while a NIC fault window
//     covers either endpoint node.  Hierarchical traffic between the two
//     nodes falls back to direct per-flow puts for the duration — a
//     dropped aggregated bulk flow would couple every member of the node
//     into one retransmit domain, so degraded pairs go flat while every
//     healthy pair keeps the hierarchy.
//
// The structure is immutable after construction; all queries are pure,
// so the same materialized plan always yields the same elections.
#pragma once

#include <vector>

#include "fault/plan.hpp"
#include "util/time.hpp"

namespace pgasemb::fault {

class NodeFaultDomains {
 public:
  /// Builds the per-node windows from the *materialized* specs (every
  /// window resolved by the injector's seeded draw).
  NodeFaultDomains(const std::vector<FaultSpec>& materialized, int num_nodes,
                   int gpus_per_node);

  /// True when any node-scoped spec targets this topology (if false,
  /// every query below is the identity/no-fault answer).
  bool anyNodeScoped() const {
    return !leader_fail_.empty() || !nic_fault_.empty();
  }

  /// Index of the leader-fail window covering (node, at); -1 when the
  /// default leader is healthy. Stable across queries, so callers can
  /// key once-per-window work (failover counting, staging rebuild) on it.
  int failWindow(int node, SimTime at) const;

  bool leaderFailed(int node, SimTime at) const {
    return failWindow(node, at) >= 0;
  }

  /// The elected staging leader of `node` at `at`: the node's first GPU,
  /// or the next one while a leader-fail window is active (single-GPU
  /// nodes have no standby and keep the default).
  int leaderAt(int node, SimTime at) const {
    const int base = node * gpus_per_node_;
    if (gpus_per_node_ < 2 || !leaderFailed(node, at)) return base;
    return base + 1;
  }

  /// True while a NIC fault window (nic-degrade or nic-flap) covers
  /// either endpoint node: hierarchical traffic between the two should
  /// run in per-pair degraded (flat) mode.
  bool pairDegraded(int src_node, int dst_node, SimTime at) const;

 private:
  struct Window {
    int node = -1;  ///< -1 = every node
    SimTime start = SimTime::zero();
    SimTime end = SimTime::zero();
  };
  static bool covers(const Window& w, int node, SimTime at) {
    return (w.node < 0 || w.node == node) && at >= w.start && at < w.end;
  }

  int gpus_per_node_;
  std::vector<Window> leader_fail_;
  std::vector<Window> nic_fault_;  ///< nic-degrade + nic-flap windows
};

}  // namespace pgasemb::fault
