#include "pgas/aggregator.hpp"

#include <algorithm>
#include <vector>

#include "util/expect.hpp"

namespace pgasemb::pgas {

MessagePlan aggregatePlan(const MessagePlan& plan, SimTime kernel_duration,
                          const AggregatorParams& params) {
  PGASEMB_CHECK(params.aggregation_bytes > 0,
                "aggregation size must be positive");
  SliceCursor cursor(plan);

  const int slices = plan.slices;
  const SimTime slice_dt =
      SimTime(std::max<std::int64_t>(1, kernel_duration.count() / slices));
  // max_wait expressed in whole slices (>= 1 so a wait can expire).
  const int max_wait_slices = std::max<std::int64_t>(
      1, params.max_wait.count() / slice_dt.count());

  int n_dst = 0;
  for (const auto& f : plan.flows) {
    PGASEMB_CHECK(f.dst >= 0, "negative destination in message plan");
    n_dst = std::max(n_dst, f.dst + 1);
  }
  struct PendingBuf {
    std::int64_t bytes = 0;
    int oldest_slice = -1;  // slice index of the first unflushed byte
  };
  std::vector<PendingBuf> pending(static_cast<std::size_t>(n_dst));

  // Flushes come out slice-major — a slice's size- and wait-triggered
  // flushes while it is processed, the quiet drain at the last slice —
  // so they append in order.
  MessagePlan out;
  out.slices = slices;
  out.slice_begin.reserve(static_cast<std::size_t>(slices) + 1);
  const auto flush = [&out](int dst, PendingBuf& buf) {
    if (buf.bytes == 0) return;
    out.flows.push_back(SliceFlow{dst, buf.bytes, /*n_messages=*/1});
    buf = PendingBuf{};
  };
  for (int s = 0; s < slices; ++s) {
    out.slice_begin.push_back(out.flows.size());
    // Accumulate this slice's traffic.
    for (const auto& f : cursor.slice(s)) {
      auto& buf = pending[static_cast<std::size_t>(f.dst)];
      if (buf.bytes == 0) buf.oldest_slice = s;
      buf.bytes += f.payload_bytes;
      // Size-triggered flushes (possibly several if a slice is large).
      while (buf.bytes >= params.aggregation_bytes) {
        out.flows.push_back(
            SliceFlow{f.dst, params.aggregation_bytes, /*n_messages=*/1});
        buf.bytes -= params.aggregation_bytes;
        buf.oldest_slice = buf.bytes > 0 ? s : -1;
      }
    }
    // Wait-triggered flushes, in destination order.
    for (int dst = 0; dst < n_dst; ++dst) {
      auto& buf = pending[static_cast<std::size_t>(dst)];
      if (buf.bytes > 0 && s - buf.oldest_slice >= max_wait_slices) {
        flush(dst, buf);
      }
    }
  }
  // Quiet at kernel end drains every partial buffer at the last slice.
  for (int dst = 0; dst < n_dst; ++dst) {
    flush(dst, pending[static_cast<std::size_t>(dst)]);
  }
  out.slice_begin.push_back(out.flows.size());

  PGASEMB_ASSERT(out.totalPayloadBytes() == plan.totalPayloadBytes(),
                 "aggregator lost bytes");
  return out;
}

}  // namespace pgasemb::pgas
