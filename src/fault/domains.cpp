#include "fault/domains.hpp"

namespace pgasemb::fault {

NodeFaultDomains::NodeFaultDomains(const std::vector<FaultSpec>& materialized,
                                   int num_nodes, int gpus_per_node)
    : gpus_per_node_(gpus_per_node) {
  for (const FaultSpec& spec : materialized) {
    if (!nodeScoped(spec.kind)) continue;
    // A node pinned beyond this topology matches nothing (sweeps re-arm
    // the same plan at several node counts, same rule as link specs).
    if (spec.a >= num_nodes) continue;
    Window w;
    w.node = spec.a;
    w.start = spec.start;
    w.end = spec.end;
    if (spec.kind == FaultKind::kLeaderFail) {
      leader_fail_.push_back(w);
    } else if (spec.kind == FaultKind::kNicDegrade ||
               spec.kind == FaultKind::kNicFlap) {
      nic_fault_.push_back(w);
    }
    // kNodeStraggle acts through device slowdown windows, not through
    // routing decisions: nothing to record here.
  }
}

int NodeFaultDomains::failWindow(int node, SimTime at) const {
  for (std::size_t i = 0; i < leader_fail_.size(); ++i) {
    if (covers(leader_fail_[i], node, at)) return static_cast<int>(i);
  }
  return -1;
}

bool NodeFaultDomains::pairDegraded(int src_node, int dst_node,
                                    SimTime at) const {
  for (const Window& w : nic_fault_) {
    if (covers(w, src_node, at) || covers(w, dst_node, at)) return true;
  }
  return false;
}

}  // namespace pgasemb::fault
