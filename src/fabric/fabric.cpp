#include "fabric/fabric.hpp"

#include <functional>
#include <queue>
#include <tuple>

#include "util/expect.hpp"

namespace pgasemb::fabric {

Fabric::Fabric(std::unique_ptr<Topology> topology,
               SimTime counter_bucket_width)
    : topology_(std::move(topology)),
      injected_(counter_bucket_width),
      delivered_(counter_bucket_width) {
  PGASEMB_CHECK(topology_ != nullptr, "fabric needs a topology");
}

Fabric::Delivery Fabric::transfer(int src, int dst,
                                  std::int64_t payload_bytes,
                                  std::int64_t n_messages, SimTime at,
                                  double bandwidth_fraction) {
  return send(route(src, dst), payload_bytes, n_messages, at,
              bandwidth_fraction);
}

std::vector<Fabric::Delivery> Fabric::sendInArrivalOrder(
    std::span<const Flow> flows) {
  // Each flow in flight has one pending hop: (arrival, flow, hop).
  using Arrival = std::tuple<SimTime, std::size_t, std::size_t>;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> arrivals;
  std::vector<Delivery> out(flows.size());
  std::vector<SimTime> wire_start(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const Flow& f = flows[i];
    PGASEMB_CHECK(f.payload_bytes >= 0 && f.n_messages >= 0, "negative flow");
    out[i] = {f.at, f.at, false};
    if (!f.route.links.empty() && f.payload_bytes + f.n_messages > 0) {
      arrivals.emplace(f.at, i, 0);
    }
  }
  while (!arrivals.empty()) {
    const auto [at, i, hop_index] = arrivals.top();
    arrivals.pop();
    const Flow& f = flows[i];
    const Hop h = hop(*f.route.links[hop_index], f.payload_bytes,
                      f.n_messages, at, f.bandwidth_fraction);
    if (hop_index == 0) wire_start[i] = h.start;
    out[i].delivered = h.next;
    out[i].dropped = h.dropped;
    if (!h.dropped && hop_index + 1 < f.route.links.size()) {
      arrivals.emplace(h.next, i, hop_index + 1);
    } else {
      finishFlow(f.route, f.payload_bytes, f.n_messages, wire_start[i],
                 out[i]);
    }
  }
  return out;
}

bool Fabric::faultHop(Link& link, const sim::FifoResource::Grant& grant,
                      std::int64_t payload_bytes, SimTime& hop_latency) {
  hop_latency += link.extraLatencyAt(grant.end);
  if (!link.flapOverlaps(grant.start, grant.end + hop_latency)) return false;
  link.recordDrop(payload_bytes);
  ++dropped_flows_;
  dropped_payload_bytes_ += payload_bytes;
  return true;
}

Fabric::ClassTraffic Fabric::classTraffic(LinkClass cls) {
  ClassTraffic out;
  for (Link* link : topology_->links()) {
    if (link->linkClass() != cls) continue;
    out.payload_bytes += link->totalPayloadBytes();
    out.messages += link->totalMessages();
    out.wire_equivalent_bytes += link->wireEquivalentBytes();
  }
  return out;
}

bool Fabric::coalescingSafe() const {
  if (!topology_->dedicatedPairLinks() || flow_observer_) return false;
  for (Link* link : topology_->links()) {
    if (link->hasFaultWindows()) return false;
  }
  return true;
}

void Fabric::reset() {
  injected_.reset();
  delivered_.reset();
  total_payload_bytes_ = 0;
  total_messages_ = 0;
  dropped_flows_ = 0;
  dropped_payload_bytes_ = 0;
  for (Link* link : topology_->links()) link->reset();
}

}  // namespace pgasemb::fabric
