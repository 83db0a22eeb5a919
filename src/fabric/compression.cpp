#include "fabric/compression.hpp"

#include <algorithm>
#include <cmath>

#include "util/expect.hpp"

namespace pgasemb::fabric {

InterNodeCodec::InterNodeCodec(std::vector<double> table_ranges, double bound,
                               bool adaptive, int num_nodes,
                               int gpus_per_node,
                               double nic_bandwidth_bytes_per_sec,
                               SimTime window)
    : bound_(bound), adaptive_(adaptive), gpus_per_node_(gpus_per_node),
      nic_bandwidth_(nic_bandwidth_bytes_per_sec) {
  PGASEMB_CHECK(bound > 0.0, "compression bound must be positive: ", bound);
  PGASEMB_CHECK(!table_ranges.empty(), "codec needs at least one table");
  PGASEMB_CHECK(num_nodes >= 1 && gpus_per_node >= 1,
                "codec needs the node shape");
  PGASEMB_CHECK(nic_bandwidth_bytes_per_sec > 0.0,
                "codec needs the NIC bandwidth");
  tables_.reserve(table_ranges.size());
  for (const double range : table_ranges) {
    PGASEMB_CHECK(range > 0.0, "table value range must be positive: ", range);
    TableStats t;
    t.range = range;
    t.bits = minBitsFor(range, bound);
    if (t.bits != kIncompressibleBits) {
      t.scale = static_cast<double>((1 << (t.bits - 1)) - 1) / range;
    }
    tables_.push_back(t);
    min_bits_all_ = std::max(min_bits_all_, t.bits);
  }
  egress_.reserve(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) egress_.emplace_back(window);
  const double capacity = nic_bandwidth_ * window.toSec();
  hot_bytes_ = kHotUtilization * capacity;
}

int InterNodeCodec::minBitsFor(double range, double bound) {
  for (int bits = 2; bits <= kLightBits; ++bits) {
    const double quant_levels = static_cast<double>((1 << (bits - 1)) - 1);
    if (range / (2.0 * quant_levels) <= bound) return bits;
  }
  return kIncompressibleBits;
}

float InterNodeCodec::transcode(std::int64_t table, float v) {
  TableStats& t = tables_[static_cast<std::size_t>(table)];
  float decoded = v;
  if (t.bits != kIncompressibleBits) {
    const std::int64_t quant_max = (1 << (t.bits - 1)) - 1;
    std::int64_t q = std::llround(static_cast<double>(v) * t.scale);
    q = std::clamp(q, -quant_max, quant_max);
    decoded = static_cast<float>(static_cast<double>(q) / t.scale);
  }
  const double err = std::abs(static_cast<double>(decoded) -
                              static_cast<double>(v));
  t.max_abs_error = std::max(t.max_abs_error, err);
  t.sum_abs_error += err;
  ++t.samples;
  return decoded;
}

void InterNodeCodec::reset() {
  for (TableStats& t : tables_) {
    t.max_abs_error = 0.0;
    t.sum_abs_error = 0.0;
    t.samples = 0;
  }
  for (TimeSeriesCounter& c : egress_) c.reset();
  raw_bytes_ = 0;
  wire_bytes_ = 0;
  hot_decisions_ = 0;
  cool_decisions_ = 0;
}

}  // namespace pgasemb::fabric
