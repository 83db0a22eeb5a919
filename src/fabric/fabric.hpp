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

#include "fabric/time_series_counter.hpp"
#include "fabric/topology.hpp"
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

  /// Inject a flow of `n_messages` messages totalling `payload_bytes`
  /// from GPU `src` to GPU `dst` at time `at`, and return its eagerly
  /// computed delivery time: the flow occupies each link of the
  /// topology's precomputed route in turn, with no simulator event.
  /// `bandwidth_fraction` scales achieved link bandwidth for this flow
  /// (collective protocol efficiency vs. raw one-sided stores).
  Delivery transfer(int src, int dst, std::int64_t payload_bytes,
                    std::int64_t n_messages, SimTime at,
                    double bandwidth_fraction = 1.0);

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
