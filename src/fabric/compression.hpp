// Error-bounded lossy compression for inter-node embedding traffic.
//
// Pooled embedding values are bounded: every weight lies in [-1, 1) and a
// pooled output sums at most `max_pooling` rows, so |v| < pooling for the
// owning table.  A per-table absolute-error-bound codec therefore needs no
// per-message metadata: pick the smallest mantissa width m (2..16 bits)
// whose uniform quantizer over [-range, range] keeps the rounding error
// within the bound, scale, round, and ship sign+mantissa.  Tables whose
// range cannot meet the bound in 16 bits stay uncompressed (32 bits).
//
// The adaptive controller trades accuracy for wire time from *observed*
// NIC pressure: each node's compressed egress feeds a TimeSeriesCounter,
// and a flow is encoded at the table's minimal width only while the
// node's recent egress utilization is above a threshold — otherwise it
// ships light 16-bit mantissas.  Both settings respect the error bound;
// decisions depend only on simulated state, so runs are seed-deterministic.
//
// In Functional mode values are really encoded and decoded (at the
// table's minimal width — the worst case any adaptive decision can pick),
// and the codec accumulates measured per-table max/mean absolute error.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fabric/time_series_counter.hpp"
#include "util/expect.hpp"
#include "util/time.hpp"

namespace pgasemb::fabric {

class InterNodeCodec {
 public:
  /// Framing prefix per compressed flow (scale + width descriptor).
  static constexpr std::int64_t kFlowHeaderBytes = 8;
  /// Sentinel width: table cannot meet the bound — ships raw fp32.
  static constexpr int kIncompressibleBits = 32;
  /// Light mantissa width the adaptive controller uses off-peak.
  static constexpr int kLightBits = 16;
  /// Egress utilization above which the adaptive controller compresses
  /// at the minimal width.
  static constexpr double kHotUtilization = 0.5;

  /// `table_ranges[t]` bounds |value| for table t's pooled outputs.
  /// GPU g sits on node g / `gpus_per_node`.
  /// `nic_bandwidth_bytes_per_sec` is the inter-node link bandwidth the
  /// utilization threshold is measured against.
  InterNodeCodec(std::vector<double> table_ranges, double bound,
                 bool adaptive, int num_nodes, int gpus_per_node,
                 double nic_bandwidth_bytes_per_sec,
                 SimTime window = SimTime::us(20.0));

  /// Smallest mantissa width in [2, 16] whose quantization error over
  /// [-range, range] stays within `bound`; kIncompressibleBits if none.
  static int minBitsFor(double range, double bound);

  /// Exact wire size of a compressed flow: one sign+mantissa word of
  /// `bits` per fp32 element, bit-packed, plus the flow header.  Raw
  /// payload passes through unchanged for incompressible tables.
  static std::int64_t compressedBytes(std::int64_t payload_bytes, int bits) {
    PGASEMB_CHECK(payload_bytes >= 0, "negative payload");
    PGASEMB_CHECK(payload_bytes % 4 == 0,
                  "compressed payloads are fp32 arrays: ", payload_bytes);
    if (bits >= kIncompressibleBits) return payload_bytes;
    if (payload_bytes == 0) return 0;
    const std::int64_t elements = payload_bytes / 4;
    return (elements * bits + 7) / 8 + kFlowHeaderBytes;
  }

  /// The fewest payload bytes, in whole fp32 elements, whose
  /// compressedBytes at `bits` reach `wire_bytes`: compressedBytes grows
  /// with the payload, so a payload of whole elements reaches
  /// `wire_bytes` exactly when it is at least this.
  static std::int64_t minPayloadFor(std::int64_t wire_bytes, int bits) {
    if (wire_bytes <= 0) return 0;
    if (bits >= kIncompressibleBits) return (wire_bytes + 3) / 4 * 4;
    // ceil(elements * bits / 8) >= packed  <=>  elements * bits >
    // 8 * (packed - 1); one element already clears the header alone.
    const std::int64_t packed = wire_bytes - kFlowHeaderBytes;
    const std::int64_t elements =
        packed <= 0 ? 1 : 8 * (packed - 1) / bits + 1;
    return 4 * elements;
  }

  /// True when GPUs `a` and `b` sit on different nodes.
  bool crossesNodes(int a, int b) const {
    return a / gpus_per_node_ != b / gpus_per_node_;
  }

  /// The encoding entry point for a flow of `payload_bytes` from GPU
  /// `src` to GPU `dst` leaving at `at`: it ships compressed when it
  /// crosses nodes (encodeEgress), and same-node pairs pass through
  /// untouched. Returns the wire size.
  std::int64_t encode(int src, int dst, std::int64_t payload_bytes,
                      SimTime at) {
    if (!crossesNodes(src, dst)) return payload_bytes;
    return encodeEgress(src / gpus_per_node_, payload_bytes, at);
  }

  /// Encodes a flow known to leave node `node` at `at`: its width
  /// decision, raw and wire bytes and the node's egress are recorded.
  /// Returns the wire size. Empty payloads and sizes that are not whole
  /// fp32 arrays pass through untouched.
  std::int64_t encodeEgress(int node, std::int64_t payload_bytes,
                            SimTime at) {
    if (payload_bytes <= 0 || payload_bytes % 4 != 0) return payload_bytes;
    const std::int64_t wire_bytes =
        compressedBytes(payload_bytes, aggregateBits(node, at));
    recordFlow(payload_bytes, wire_bytes);
    recordEgress(node, at, wire_bytes);
    return wire_bytes;
  }

  double bound() const { return bound_; }
  bool adaptive() const { return adaptive_; }
  std::int64_t numTables() const {
    return static_cast<std::int64_t>(tables_.size());
  }

  /// Mantissa width for an aggregated (multi-table) flow leaving `node`
  /// at `at`: the widest per-table minimal width (size-conservative), or
  /// the light width while the node's observed egress is below the hot
  /// threshold in adaptive mode.
  int aggregateBits(int node, SimTime at) const {
    if (!adaptive_) return min_bits_all_;
    if (hot(node, at)) {
      ++hot_decisions_;
      return min_bits_all_;
    }
    ++cool_decisions_;
    return widestBits();
  }

  /// The width aggregateBits would pick, without counting a decision: a
  /// node leader asks it whether a held message would clear the NIC
  /// rate floor yet, and only the encoding it ships is a decision.
  int peekBits(int node, SimTime at) const {
    return !adaptive_ || hot(node, at) ? min_bits_all_ : widestBits();
  }

  /// The two widths aggregateBits and peekBits pick from: the narrowest
  /// (the widest per-table minimal width) and the widest (the light width
  /// an adaptive codec ships off-peak; the narrowest when not adaptive).
  int narrowestBits() const { return min_bits_all_; }
  int widestBits() const {
    return adaptive_ ? std::max(min_bits_all_, kLightBits) : min_bits_all_;
  }

  /// Quantize-dequantize one value of `table` at the table's minimal
  /// width and record the measured absolute error (Functional mode).
  float transcode(std::int64_t table, float v);

  /// Account one compressed inter-node flow (raw vs on-wire bytes).
  void recordFlow(std::int64_t raw_bytes, std::int64_t wire_bytes) {
    raw_bytes_ += raw_bytes;
    wire_bytes_ += wire_bytes;
  }

  /// Feed the adaptive controller's per-node egress observation.
  void recordEgress(int node, SimTime at, std::int64_t wire_bytes) {
    egress_[static_cast<std::size_t>(node)].add(
        at, static_cast<double>(wire_bytes));
  }

  struct TableStats {
    double range = 0.0;
    int bits = kIncompressibleBits;
    double scale = 0.0;  ///< quantizer steps per unit; 0 = incompressible
    double max_abs_error = 0.0;
    double sum_abs_error = 0.0;
    std::int64_t samples = 0;
  };
  const std::vector<TableStats>& tableStats() const { return tables_; }

  std::int64_t rawBytes() const { return raw_bytes_; }
  std::int64_t wireBytes() const { return wire_bytes_; }
  std::int64_t hotDecisions() const { return hot_decisions_; }
  std::int64_t coolDecisions() const { return cool_decisions_; }

  /// Clear flow/error/egress state (new run, same table ranges).
  void reset();

 private:
  /// True while `node`'s observed egress is above the hot threshold.
  /// Looks at the last *completed* egress window: the in-progress bucket
  /// under-counts by construction and would flap the decision.
  bool hot(int node, SimTime at) const {
    const auto& counter = egress_[static_cast<std::size_t>(node)];
    const std::int64_t bucket =
        at.count() / counter.bucketWidth().count() - 1;
    const double observed =
        bucket >= 0 ? counter.bucket(static_cast<std::size_t>(bucket)) : 0.0;
    return observed >= hot_bytes_;
  }

  double bound_;
  bool adaptive_;
  int gpus_per_node_;
  double nic_bandwidth_;
  std::vector<TableStats> tables_;
  int min_bits_all_ = 2;  ///< widest per-table minimal width
  std::vector<TimeSeriesCounter> egress_;  ///< per-node compressed egress
  /// Egress per window above which a node counts as hot.
  double hot_bytes_ = 0.0;
  std::int64_t raw_bytes_ = 0;
  std::int64_t wire_bytes_ = 0;
  mutable std::int64_t hot_decisions_ = 0;
  mutable std::int64_t cool_decisions_ = 0;
};

}  // namespace pgasemb::fabric
