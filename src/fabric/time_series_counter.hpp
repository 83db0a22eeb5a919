// Bucketed counter over simulated time.
//
// Reproduces the paper's in-kernel communication counter (§IV-A2b): each
// RDMA write atomically bumps a counter that is sampled on a fixed time
// grid, giving "communication volume over time" traces (Figs 7 and 10).
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace pgasemb::fabric {

class TimeSeriesCounter {
 public:
  explicit TimeSeriesCounter(SimTime bucket_width = SimTime::us(5.0));

  /// Add `amount` at simulated time `at`.
  void add(SimTime at, double amount);

  SimTime bucketWidth() const { return bucket_width_; }
  std::size_t numBuckets() const { return buckets_.size(); }

  /// Value accumulated in bucket `i` (time range [i*w, (i+1)*w)).
  double bucket(std::size_t i) const;

  /// Cumulative totals over time (prefix sums), one entry per bucket.
  std::vector<double> cumulative() const;

  double total() const { return total_; }

  void reset();

 private:
  SimTime bucket_width_;
  std::vector<double> buckets_;
  double total_ = 0.0;
};

}  // namespace pgasemb::fabric
