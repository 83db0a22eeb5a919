// A directed interconnect link with bandwidth, latency, per-message
// header overhead and an optional message-rate ceiling.
//
// NVLink-style links have negligible per-message cost beyond the 32-byte
// flit header (hardware write-combining keeps small stores efficient);
// network (inter-node) links additionally cap the sustainable message
// rate, which is what makes un-aggregated small messages expensive there
// (paper §V future-work discussion, and the aggregator ablation).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/fifo_resource.hpp"
#include "util/time.hpp"

namespace pgasemb::fabric {

/// Routing class of a link (or a src→dst GPU pair): intra-node NVLink
/// versus inter-node NIC.  Topologies tag their links so traffic can be
/// accounted per class (see Fabric::classTraffic) and so retrievers can
/// route hierarchically.
enum class LinkClass { kIntra, kInter };

struct LinkParams {
  double bandwidth_bytes_per_sec = 48e9;  ///< V100 NVLink pair, per direction
  SimTime latency = SimTime::us(1.9);     ///< one-way propagation + protocol
  std::int64_t header_bytes = 32;         ///< per-message framing overhead
  double max_messages_per_sec = 0.0;      ///< 0 = unlimited (NVLink)
};

/// A fault-injection window on one link: a bandwidth cut and/or latency
/// spike (degradation) or a flap that drops every flow in flight while
/// the window is active.  Installed by fault::FaultInjector; an empty
/// window list keeps every Link code path identical to a fault-free
/// build.
struct LinkFaultWindow {
  SimTime start = SimTime::zero();
  SimTime end = SimTime::zero();
  double bandwidth_factor = 1.0;       ///< achieved-bandwidth multiplier
  SimTime extra_latency = SimTime::zero();  ///< added delivery latency
  bool flap = false;                   ///< drop overlapping flows
};

class alignas(64) Link {
 public:
  Link(std::string name, const LinkParams& params);

  /// Wire time to serialize `payload_bytes` split over `n_messages`
  /// (headers included; message-rate ceiling applied).
  /// `bandwidth_fraction` scales the achieved bandwidth — collectives
  /// pass their protocol efficiency; direct one-sided stores pass 1.0.
  SimTime serializationTime(std::int64_t payload_bytes,
                            std::int64_t n_messages,
                            double bandwidth_fraction = 1.0) const;

  /// Occupy the link for one flow arriving at `at`; returns the grant
  /// from the FIFO queue (start/end of wire occupancy; delivery adds
  /// `params().latency`). The one place a flow is serialized and queued:
  /// inline, since every fabric hop calls it.
  sim::FifoResource::Grant occupy(SimTime at, std::int64_t payload_bytes,
                                  std::int64_t n_messages,
                                  double bandwidth_fraction = 1.0) {
    total_payload_bytes_ += payload_bytes;
    total_messages_ += n_messages;
    double fraction = bandwidth_fraction;
    if (has_fault_windows_) {
      // Sample the degradation at the time the flow actually reaches the
      // wire (deterministic: FIFO order fixes it).
      const double factor = bandwidthFactorAt(wire_->nextFreeTime(at));
      if (factor < 1.0) fraction = bandwidth_fraction * factor;
    }
    // Slices of one kernel repeat the same flow shape, so the last
    // serialization is reused whenever a flow repeats it exactly.
    if (payload_bytes != memo_.payload_bytes ||
        n_messages != memo_.n_messages || fraction != memo_.fraction) {
      serialize(payload_bytes, n_messages, fraction);
    }
    wire_equivalent_bytes_ += memo_.wire_equivalent_bytes;
    return wire_->acquire(at, memo_.wire_time);
  }

  const LinkParams& params() const { return params_; }
  const std::string& name() const { return name_; }
  sim::FifoResource& fifo() { return fifo_; }

  /// Link class tag (defaults to intra-node); set by the topology.
  LinkClass linkClass() const { return link_class_; }
  void setLinkClass(LinkClass cls) { link_class_ = cls; }

  /// Redirect wire occupancy onto another link's FIFO so both links
  /// serialize through one injection queue (models a node's NIC, whose
  /// DMA engine is shared between the up and down directions).  The
  /// target FIFO must outlive this link; pass nullptr to restore the
  /// private queue.
  void setWireQueue(sim::FifoResource* queue) {
    wire_ = queue != nullptr ? queue : &fifo_;
  }

  std::int64_t totalPayloadBytes() const { return total_payload_bytes_; }
  std::int64_t totalMessages() const { return total_messages_; }

  /// Wire-equivalent bytes: cumulative wire occupancy converted back to
  /// bytes at the nominal link bandwidth.  Unlike totalPayloadBytes this
  /// includes headers, message-rate padding and protocol-efficiency loss,
  /// so it measures what the flows actually cost the wire.
  double wireEquivalentBytes() const { return wire_equivalent_bytes_; }

  // --- Fault injection (see fault::FaultInjector) -------------------------

  /// Install a degradation/flap window. Windows survive reset() (they
  /// describe the scenario, not run state).
  void addFaultWindow(const LinkFaultWindow& window);
  bool hasFaultWindows() const { return has_fault_windows_; }

  /// Achieved-bandwidth multiplier at `at` (min over overlapping
  /// degradation windows; 1.0 outside every window).
  double bandwidthFactorAt(SimTime at) const;

  /// Extra delivery latency at `at` (max over overlapping windows).
  SimTime extraLatencyAt(SimTime at) const;

  /// True when a flap window overlaps [start, end) — the fabric drops
  /// such a flow.
  bool flapOverlaps(SimTime start, SimTime end) const;

  /// Record one dropped flow (called by Fabric on a flap hit).
  void recordDrop(std::int64_t payload_bytes);
  std::int64_t droppedFlows() const { return dropped_flows_; }
  std::int64_t droppedPayloadBytes() const { return dropped_payload_bytes_; }

  void reset();

 private:
  // What a hop touches on every flow leads the object and fills its first
  // two cache lines: the memo, the totals and the queue pointer, then the
  // wire-equivalent total, the parameters, whether any fault window is
  // installed, and the private queue's state (FifoResource leads with
  // it). The windows themselves and the names follow.
  /// The last flow shape occupy() serialized and what it cost the wire.
  /// A pure function of its key and params_, so it survives reset().
  struct SerializationMemo {
    std::int64_t payload_bytes = 0;
    std::int64_t n_messages = 0;
    /// NaN equals no fraction, so the first flow always computes.
    double fraction = std::numeric_limits<double>::quiet_NaN();
    SimTime wire_time;
    double wire_equivalent_bytes = 0.0;
  };
  SerializationMemo memo_;
  std::int64_t total_payload_bytes_ = 0;
  std::int64_t total_messages_ = 0;
  sim::FifoResource* wire_ = &fifo_;
  double wire_equivalent_bytes_ = 0.0;
  LinkParams params_;
  bool has_fault_windows_ = false;  ///< fault_windows_ is not empty
  sim::FifoResource fifo_;
  std::vector<LinkFaultWindow> fault_windows_;
  std::string name_;
  LinkClass link_class_ = LinkClass::kIntra;
  std::int64_t dropped_flows_ = 0;
  std::int64_t dropped_payload_bytes_ = 0;

  /// Refill memo_ for a new flow shape.
  void serialize(std::int64_t payload_bytes, std::int64_t n_messages,
                 double fraction);
};

}  // namespace pgasemb::fabric
