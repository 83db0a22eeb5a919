#include "fault/hier_route.hpp"

#include <algorithm>
#include <cmath>

#include "fabric/topology.hpp"
#include "fault/injector.hpp"
#include "util/expect.hpp"

namespace pgasemb::fault {

namespace {

// The wire bytes one message on `route` needs before no link's
// message-rate ceiling pads it: Link::serializationTime charges a message
// max((wire + header) / bandwidth, 1 / rate), so the largest, over the
// route's links, of bandwidth / rate - header. Zero when no link has a
// ceiling.
std::int64_t floorOf(const fabric::Fabric::Route& route) {
  double floor = 0.0;
  for (const fabric::Link* link : route.links) {
    const fabric::LinkParams& p = link->params();
    if (p.max_messages_per_sec > 0.0) {
      floor = std::max(floor, p.bandwidth_bytes_per_sec /
                                      p.max_messages_per_sec -
                                  static_cast<double>(p.header_bytes));
    }
  }
  return static_cast<std::int64_t>(std::ceil(floor));
}

}  // namespace

HierRoute::HierRoute(fabric::Fabric& fabric, FaultInjector* injector)
    : nodes_(fabric.topology().numNodes()),
      gpn_(fabric.topology().gpusPerNode()),
      injector_(injector) {
  PGASEMB_CHECK(nodes_ > 1, "a hierarchical route spans more than one node");
  if (injector != nullptr && injector->domains() != nullptr &&
      injector->domains()->anyNodeScoped()) {
    domains_ = injector->domains();
  }
  for (int dst = 0; dst < fabric.numGpus(); ++dst) {
    scatter_.push_back(fabric.route(dst / gpn_ * gpn_, dst));
  }
  for (int a = 0; a < nodes_; ++a) {
    for (int b = 0; b < nodes_; ++b) {
      leader_.push_back(fabric.route(a * gpn_, b * gpn_));
      floor_.push_back(floorOf(leader_.back()));
    }
  }
}

int HierRoute::elect(int node, SimTime at) const {
  const int elected = domains_->leaderAt(node, at);
  if (elected != defaultLeader(node)) {
    const auto key = std::make_pair(node, domains_->failWindow(node, at));
    if (std::find(counted_failovers_.begin(), counted_failovers_.end(),
                  key) == counted_failovers_.end()) {
      counted_failovers_.push_back(key);
      ++injector_->stats().leader_failovers;
    }
  }
  return elected;
}

}  // namespace pgasemb::fault
