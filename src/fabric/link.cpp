#include "fabric/link.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace pgasemb::fabric {

Link::Link(std::string name, const LinkParams& params)
    : params_(params), fifo_(name + ".wire"), name_(std::move(name)) {
  PGASEMB_CHECK(params.bandwidth_bytes_per_sec > 0.0,
                "link bandwidth must be positive");
  PGASEMB_CHECK(params.header_bytes >= 0, "negative header size");
}

SimTime Link::serializationTime(std::int64_t payload_bytes,
                                std::int64_t n_messages,
                                double bandwidth_fraction) const {
  PGASEMB_CHECK(payload_bytes >= 0 && n_messages >= 0, "negative flow size");
  PGASEMB_CHECK(bandwidth_fraction > 0.0 && bandwidth_fraction <= 1.0,
                "bandwidth fraction out of (0, 1]: ", bandwidth_fraction);
  const double wire_bytes = static_cast<double>(
      payload_bytes + n_messages * params_.header_bytes);
  double seconds =
      wire_bytes / (params_.bandwidth_bytes_per_sec * bandwidth_fraction);
  if (params_.max_messages_per_sec > 0.0 && n_messages > 0) {
    seconds = std::max(seconds, static_cast<double>(n_messages) /
                                    params_.max_messages_per_sec);
  }
  return SimTime::sec(seconds);
}

void Link::serialize(std::int64_t payload_bytes, std::int64_t n_messages,
                     double fraction) {
  const SimTime wire_time =
      serializationTime(payload_bytes, n_messages, fraction);
  memo_ = {payload_bytes, n_messages, fraction, wire_time,
           wire_time.toSec() * params_.bandwidth_bytes_per_sec};
}

void Link::addFaultWindow(const LinkFaultWindow& window) {
  PGASEMB_CHECK(window.end > window.start,
                "link fault window must have start < end");
  PGASEMB_CHECK(window.bandwidth_factor > 0.0 &&
                    window.bandwidth_factor <= 1.0,
                "link fault bandwidth factor out of (0, 1]: ",
                window.bandwidth_factor);
  PGASEMB_CHECK(window.extra_latency >= SimTime::zero(),
                "link fault extra latency must be >= 0");
  fault_windows_.push_back(window);
  has_fault_windows_ = true;
}

double Link::bandwidthFactorAt(SimTime at) const {
  double factor = 1.0;
  for (const auto& w : fault_windows_) {
    if (!w.flap && at >= w.start && at < w.end) {
      factor = std::min(factor, w.bandwidth_factor);
    }
  }
  return factor;
}

SimTime Link::extraLatencyAt(SimTime at) const {
  SimTime extra = SimTime::zero();
  for (const auto& w : fault_windows_) {
    if (!w.flap && at >= w.start && at < w.end) {
      extra = std::max(extra, w.extra_latency);
    }
  }
  return extra;
}

bool Link::flapOverlaps(SimTime start, SimTime end) const {
  for (const auto& w : fault_windows_) {
    if (w.flap && start < w.end && end > w.start) return true;
  }
  return false;
}

void Link::recordDrop(std::int64_t payload_bytes) {
  ++dropped_flows_;
  dropped_payload_bytes_ += payload_bytes;
}

void Link::reset() {
  // Only the private queue is reset here; a shared wire queue belongs to
  // its owning link, which resets it exactly once.
  fifo_.reset();
  total_payload_bytes_ = 0;
  total_messages_ = 0;
  wire_equivalent_bytes_ = 0.0;
  dropped_flows_ = 0;
  dropped_payload_bytes_ = 0;
}

}  // namespace pgasemb::fabric
