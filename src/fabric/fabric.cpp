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
  PGASEMB_CHECK(payload_bytes >= 0 && n_messages >= 0, "negative flow");
  Delivery d{at, at, false};
  if (src != dst && payload_bytes + n_messages > 0) {
    SimTime cursor = at;
    SimTime wire_start = at;
    bool first_hop = true;
    for (Link* link : topology_->route(src, dst)) {
      // Store-and-forward at flow granularity per hop.
      const auto grant =
          link->occupy(cursor, payload_bytes, n_messages,
                       bandwidth_fraction);
      if (first_hop) {
        wire_start = grant.start;
        first_hop = false;
      }
      SimTime hop_latency = link->params().latency;
      if (link->hasFaultWindows()) {
        hop_latency += link->extraLatencyAt(grant.end);
        if (link->flapOverlaps(grant.start, grant.end + hop_latency)) {
          // The flow is lost on this hop; later hops never see it.
          link->recordDrop(payload_bytes);
          ++dropped_flows_;
          dropped_payload_bytes_ += payload_bytes;
          d.dropped = true;
          d.delivered = grant.end;
          break;
        }
      }
      cursor = grant.end + hop_latency;
    }
    if (!d.dropped) d.delivered = cursor;
    if (flow_observer_) {
      flow_observer_(src, dst, payload_bytes, n_messages, wire_start,
                     d.delivered);
    }
    injected_.add(at, static_cast<double>(payload_bytes));
    if (!d.dropped) {
      delivered_.add(d.delivered, static_cast<double>(payload_bytes));
    }
    total_payload_bytes_ += payload_bytes;
    total_messages_ += n_messages;
  }
  return d;
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
