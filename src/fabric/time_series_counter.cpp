#include "fabric/time_series_counter.hpp"

#include "util/expect.hpp"

namespace pgasemb::fabric {

TimeSeriesCounter::TimeSeriesCounter(SimTime bucket_width)
    : bucket_width_(bucket_width) {
  PGASEMB_CHECK(bucket_width.count() > 0, "bucket width must be positive");
}

void TimeSeriesCounter::add(SimTime at, double amount) {
  PGASEMB_CHECK(at >= SimTime::zero(), "negative sample time");
  const std::size_t idx =
      static_cast<std::size_t>(at.count() / bucket_width_.count());
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0.0);
  buckets_[idx] += amount;
  total_ += amount;
}

double TimeSeriesCounter::bucket(std::size_t i) const {
  return i < buckets_.size() ? buckets_[i] : 0.0;
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
}

}  // namespace pgasemb::fabric
