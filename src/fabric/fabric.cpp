#include "fabric/fabric.hpp"

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
