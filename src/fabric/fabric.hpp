// Fabric: the transfer facade over a Topology.
//
// A "flow" is a batch of same-destination messages injected at one
// simulated instant — a collective chunk (one big message) or a slice of
// warp-coalesced PGAS stores (many 256-byte messages).  The fabric
// serializes flows hop by hop through the route's FIFO links, records
// byte counters over time, and reports the delivery time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fabric/time_series_counter.hpp"
#include "fabric/topology.hpp"
#include "util/expect.hpp"
#include "util/time.hpp"

namespace pgasemb::fabric {

class Fabric {
 public:
  explicit Fabric(std::unique_ptr<Topology> topology,
                  SimTime counter_bucket_width = SimTime::us(5.0));

  int numGpus() const { return topology_->numGpus(); }
  Topology& topology() { return *topology_; }

  struct Delivery {
    SimTime injected;
    SimTime delivered;
    /// True when a link-flap fault window swallowed the flow; then
    /// `delivered` is the time the flow was lost (sender-side wire end
    /// of the dropping hop) — the resilience layer
    /// (fault::FaultInjector) is responsible for retransmission.
    /// Always false without armed link faults.
    bool dropped = false;
  };

  /// A resolved src -> dst route: the links a flow traverses, in order
  /// (none when src == dst). A caller that sends many flows over one
  /// pair resolves it once and keeps the lookup out of its inner loop.
  struct Route {
    int src = 0;
    int dst = 0;
    std::span<Link* const> links;
  };
  Route route(int src, int dst) const {
    return Route{src, dst, topology_->route(src, dst)};
  }

  /// Inject a flow of `n_messages` messages totalling `payload_bytes`
  /// from GPU `src` to GPU `dst` at time `at`, and return its eagerly
  /// computed delivery time: the flow occupies each link of the
  /// topology's precomputed route in turn, with no simulator event.
  /// `bandwidth_fraction` scales achieved link bandwidth for this flow
  /// (collective protocol efficiency vs. raw one-sided stores).
  Delivery transfer(int src, int dst, std::int64_t payload_bytes,
                    std::int64_t n_messages, SimTime at,
                    double bandwidth_fraction = 1.0);

  /// transfer() over a resolved route: every hop taken in turn, at the
  /// flow's pace. Inline for the PGAS put emitter, which sends hundreds
  /// of thousands of flows per batch; transfer() keeps one copy for every
  /// other caller.
  Delivery send(const Route& route, std::int64_t payload_bytes,
                std::int64_t n_messages, SimTime at,
                double bandwidth_fraction = 1.0) {
    PGASEMB_CHECK(payload_bytes >= 0 && n_messages >= 0, "negative flow");
    Delivery d{at, at, false};
    if (route.links.empty() || payload_bytes + n_messages == 0) return d;
    SimTime wire_start = at;
    for (std::size_t i = 0; i < route.links.size() && !d.dropped; ++i) {
      const Hop h = hop(*route.links[i], payload_bytes, n_messages,
                        d.delivered, bandwidth_fraction);
      if (i == 0) wire_start = h.start;
      d.delivered = h.next;
      d.dropped = h.dropped;
    }
    finishFlow(route, payload_bytes, n_messages, wire_start, d);
    return d;
  }

  /// One flow of a batch sendInArrivalOrder() serves together.
  struct Flow {
    Route route;
    std::int64_t payload_bytes = 0;
    std::int64_t n_messages = 0;
    SimTime at;
    double bandwidth_fraction = 1.0;
  };

  /// Sends `flows`, serving every hop in the order the flows reach it:
  /// one time-ordered merge over the batch's hop arrivals, keyed by
  /// (arrival, flow index, hop index), so equal arrivals go in the
  /// caller's order. Each flow takes send()'s hop step and accounting.
  /// Returns the deliveries in `flows` order.
  std::vector<Delivery> sendInArrivalOrder(std::span<const Flow> flows);

  /// Bytes put on the wire over time (payload only), all flows.
  const TimeSeriesCounter& injectionCounter() const { return injected_; }
  /// Bytes delivered over time (payload only), all flows.
  const TimeSeriesCounter& deliveryCounter() const { return delivered_; }

  std::int64_t totalPayloadBytes() const { return total_payload_bytes_; }
  std::int64_t totalMessages() const { return total_messages_; }

  /// Per-link-class traffic rollup (intra-node NVLink vs inter-node NIC),
  /// summed over the topology's links.  `wire_equivalent_bytes` converts
  /// wire occupancy back to bytes at nominal bandwidth, so it captures
  /// headers, message-rate padding and protocol-efficiency loss — the
  /// honest "what did this traffic cost the wire" number.
  struct ClassTraffic {
    std::int64_t payload_bytes = 0;
    std::int64_t messages = 0;
    double wire_equivalent_bytes = 0.0;
  };
  ClassTraffic classTraffic(LinkClass cls);

  /// Flows (and their payload) swallowed by link-flap fault windows.
  /// Dropped flows still count as injected wire traffic but never reach
  /// the delivery counter. Zero without armed link faults.
  std::int64_t droppedFlows() const { return dropped_flows_; }
  std::int64_t droppedPayloadBytes() const { return dropped_payload_bytes_; }

  /// Observer invoked once per non-local flow with
  /// (src, dst, payload bytes, message count, wire start, delivered).
  using FlowObserver = std::function<void(int src, int dst,
                                          std::int64_t payload_bytes,
                                          std::int64_t n_messages,
                                          SimTime wire_start,
                                          SimTime delivered)>;
  void setFlowObserver(FlowObserver observer) {
    flow_observer_ = std::move(observer);
  }

  /// True when reordering one source's flow injections relative to other
  /// simulator events cannot change any observable result: dedicated
  /// per-pair links (no cross-source contention), no flow observer (who
  /// would see the reordered callback sequence), and no armed link-fault
  /// windows (drop/degrade decisions sample link state per flow). The
  /// PGAS runtime combines this with its own conditions to decide
  /// per-kernel slice coalescing.
  bool coalescingSafe() const;

  /// Clear counters and link occupancy (new experiment, same topology).
  void reset();

 private:
  /// One hop of a flow: its wire start, the time it reaches the next hop
  /// (when dropped, the sender-side wire end of this one), and whether a
  /// flap window swallowed it.
  struct Hop {
    SimTime start;
    SimTime next;
    bool dropped = false;
  };

  /// The hop step every flow takes, reaching `link` at `at`.
  Hop hop(Link& link, std::int64_t payload_bytes, std::int64_t n_messages,
          SimTime at, double bandwidth_fraction) {
    // Store-and-forward at flow granularity per hop.
    const auto grant =
        link.occupy(at, payload_bytes, n_messages, bandwidth_fraction);
    SimTime latency = link.params().latency;
    if (link.hasFaultWindows() &&
        faultHop(link, grant, payload_bytes, latency)) {
      return {grant.start, grant.end, true};
    }
    return {grant.start, grant.end + latency, false};
  }

  /// Per-flow accounting after its last hop: observer, counters, totals.
  void finishFlow(const Route& route, std::int64_t payload_bytes,
                  std::int64_t n_messages, SimTime wire_start,
                  const Delivery& d) {
    if (flow_observer_) {
      flow_observer_(route.src, route.dst, payload_bytes, n_messages,
                     wire_start, d.delivered);
    }
    injected_.add(d.injected, static_cast<double>(payload_bytes));
    if (!d.dropped) {
      delivered_.add(d.delivered, static_cast<double>(payload_bytes));
    }
    total_payload_bytes_ += payload_bytes;
    total_messages_ += n_messages;
  }

  /// Applies `link`'s fault windows to a hop granted `grant`: adds the
  /// extra latency in force to `hop_latency`, and returns true (counting
  /// the drop) when a flap window swallows the flow.
  bool faultHop(Link& link, const sim::FifoResource::Grant& grant,
                std::int64_t payload_bytes, SimTime& hop_latency);

  std::unique_ptr<Topology> topology_;
  TimeSeriesCounter injected_;
  TimeSeriesCounter delivered_;
  std::int64_t total_payload_bytes_ = 0;
  std::int64_t total_messages_ = 0;
  std::int64_t dropped_flows_ = 0;
  std::int64_t dropped_payload_bytes_ = 0;
  FlowObserver flow_observer_;
};

}  // namespace pgasemb::fabric
