// HierRoute: every hierarchical routing decision, for both retrievers.
//
// Hierarchical routing (DESIGN.md §12) forwards inter-node traffic
// through node leaders: an NVLink gather to the source node's leader,
// leader to leader over the NIC, and an NVLink scatter from the
// destination node's leader. The collective communicator, the collective
// retriever and the PGAS put emitter all ask this one object, each at
// the simulated time it routes:
//
//   - leader(node, t): the node's elected leader — its first GPU, or the
//     next one while a leader-fail window covers the node (one failover
//     counted per node and fail window);
//   - degraded(a, b, t): true while a NIC fault window covers either
//     node of the pair, whose traffic then goes flat (DESIGN.md §13);
//   - failWindow(node, t): the leader-fail window covering the node, so
//     once-per-window work can key on it;
//   - the fault-free forwarding routes, and the wire bytes a message on
//     a leader route needs to clear the NIC's message-rate floor.
//
// Elections and degraded pairs are pure in (node, time). Without an
// armed node-scoped fault every answer is the topology default, inline.
// The route holds no buffers: the collective retriever owns the leader
// staging it routes through (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fabric/fabric.hpp"
#include "fault/domains.hpp"
#include "util/time.hpp"

namespace pgasemb::fault {

class FaultInjector;

class HierRoute {
 public:
  /// A route over `fabric`, which must span more than one node.
  /// `injector` (optional) is armed on `fabric`; its node fault domains
  /// drive the elections and degraded pairs, and its stats count the
  /// failovers.
  explicit HierRoute(fabric::Fabric& fabric,
                     FaultInjector* injector = nullptr);

  int numNodes() const { return nodes_; }
  int gpusPerNode() const { return gpn_; }

  /// The elected leader of `node` at `at`.
  int leader(int node, SimTime at) const {
    return domains_ == nullptr ? defaultLeader(node) : elect(node, at);
  }

  /// True when the (src_node, dst_node) pair runs flat at `at`.
  bool degraded(int src_node, int dst_node, SimTime at) const {
    return domains_ != nullptr &&
           domains_->pairDegraded(src_node, dst_node, at);
  }

  /// Index of the leader-fail window covering (node, at), or -1: stable
  /// across queries, so once-per-window work can key on it.
  int failWindow(int node, SimTime at) const {
    return domains_ == nullptr ? -1 : domains_->failWindow(node, at);
  }

  /// Fault-free route from GPU `dst`'s default node leader to `dst`.
  const fabric::Fabric::Route& scatterRoute(int dst) const {
    return scatter_[static_cast<std::size_t>(dst)];
  }
  /// Fault-free route from node `a`'s default leader to node `b`'s.
  const fabric::Fabric::Route& leaderRoute(int a, int b) const {
    return leader_[static_cast<std::size_t>(a * nodes_ + b)];
  }
  /// Wire bytes a message on leaderRoute(a, b) needs before no link's
  /// message-rate ceiling pads it (0 when no link has a ceiling).
  std::int64_t rateFloor(int a, int b) const {
    return floor_[static_cast<std::size_t>(a * nodes_ + b)];
  }

 private:
  /// Node `node`'s fault-free leader: its first GPU.
  int defaultLeader(int node) const { return node * gpn_; }
  int elect(int node, SimTime at) const;

  int nodes_;
  int gpn_;
  FaultInjector* injector_;
  /// The injector's node fault domains when any node-scoped fault is
  /// armed; null keeps every answer the topology default.
  const NodeFaultDomains* domains_ = nullptr;
  std::vector<fabric::Fabric::Route> scatter_;
  std::vector<fabric::Fabric::Route> leader_;
  std::vector<std::int64_t> floor_;
  /// (node, fail-window index) pairs already counted as failovers.
  mutable std::vector<std::pair<int, int>> counted_failovers_;
};

}  // namespace pgasemb::fault
