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

  /// Add `amount` at simulated time `at` (>= 0). Divides only when the
  /// sample falls outside the bucket the previous one landed in.
  void add(SimTime at, double amount) {
    const std::int64_t t = at.count();
    if (t < window_begin_ || t >= window_end_) moveWindow(t);
    buckets_[window_bucket_] += amount;
    total_ += amount;
  }

  SimTime bucketWidth() const { return bucket_width_; }
  std::size_t numBuckets() const { return buckets_.size(); }

  /// Value accumulated in bucket `i` (time range [i*w, (i+1)*w)).
  double bucket(std::size_t i) const {
    return i < buckets_.size() ? buckets_[i] : 0.0;
  }

  /// Cumulative totals over time (prefix sums), one entry per bucket.
  std::vector<double> cumulative() const;

  double total() const { return total_; }

  void reset();

 private:
  /// Point the window at the bucket holding `t`, growing the buckets to
  /// reach it.
  void moveWindow(std::int64_t t);

  SimTime bucket_width_;
  std::vector<double> buckets_;
  double total_ = 0.0;
  /// Bucket `window_bucket_` covers [window_begin_, window_end_); the
  /// window is empty until the first sample and after reset().
  std::int64_t window_begin_ = 0;
  std::int64_t window_end_ = 0;
  std::size_t window_bucket_ = 0;
};

}  // namespace pgasemb::fabric
