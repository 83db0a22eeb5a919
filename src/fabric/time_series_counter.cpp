#include "fabric/time_series_counter.hpp"

#include "util/expect.hpp"

namespace pgasemb::fabric {

TimeSeriesCounter::TimeSeriesCounter(SimTime bucket_width)
    : bucket_width_(bucket_width) {
  PGASEMB_CHECK(bucket_width.count() > 0, "bucket width must be positive");
}

void TimeSeriesCounter::moveWindow(std::int64_t t) {
  PGASEMB_CHECK(t >= 0, "negative sample time");
  const std::int64_t width = bucket_width_.count();
  window_bucket_ = static_cast<std::size_t>(t / width);
  if (window_bucket_ >= buckets_.size()) {
    buckets_.resize(window_bucket_ + 1, 0.0);
  }
  window_begin_ = static_cast<std::int64_t>(window_bucket_) * width;
  window_end_ = window_begin_ + width;
}

std::vector<double> TimeSeriesCounter::cumulative() const {
  std::vector<double> out(buckets_.size());
  double run = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    run += buckets_[i];
    out[i] = run;
  }
  return out;
}

void TimeSeriesCounter::reset() {
  buckets_.clear();
  total_ = 0.0;
  window_begin_ = window_end_ = 0;
  window_bucket_ = 0;
}

}  // namespace pgasemb::fabric
