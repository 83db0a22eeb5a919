#include "pgas/aggregator.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/expect.hpp"

namespace pgasemb::pgas {

namespace {

struct PendingBuf {
  std::int64_t bytes = 0;
  int oldest_slice = -1;  // slice index of the first unflushed byte
};

/// Replays the aggregator over `plan`, calling emit(slice, dst, bytes)
/// for every flush. Flushes come out slice-major — a slice's size- and
/// wait-triggered flushes while it is processed, the quiet drain at the
/// last slice — so the caller can append them in order.
template <typename Emit>
void replay(const MessagePlan& plan, int max_wait_slices,
            std::int64_t aggregation_bytes, std::vector<PendingBuf>& pending,
            Emit&& emit) {
  std::fill(pending.begin(), pending.end(), PendingBuf{});
  const auto flush = [&emit](int dst, PendingBuf& buf, int at_slice) {
    if (buf.bytes == 0) return;
    emit(at_slice, dst, buf.bytes);
    buf.bytes = 0;
    buf.oldest_slice = -1;
  };
  const int slices = plan.slices();
  for (int s = 0; s < slices; ++s) {
    // Accumulate this slice's traffic.
    for (const auto& f : plan.slice(s)) {
      auto& buf = pending[static_cast<std::size_t>(f.dst)];
      if (buf.bytes == 0) buf.oldest_slice = s;
      buf.bytes += f.payload_bytes;
      // Size-triggered flushes (possibly several if a slice is large).
      while (buf.bytes >= aggregation_bytes) {
        emit(s, f.dst, aggregation_bytes);
        buf.bytes -= aggregation_bytes;
        buf.oldest_slice = buf.bytes > 0 ? s : -1;
      }
    }
    // Wait-triggered flushes, in destination order.
    for (int dst = 0; dst < static_cast<int>(pending.size()); ++dst) {
      auto& buf = pending[static_cast<std::size_t>(dst)];
      if (buf.bytes > 0 && s - buf.oldest_slice >= max_wait_slices) {
        flush(dst, buf, s);
      }
    }
  }
  // Quiet at kernel end drains every partial buffer.
  for (int dst = 0; dst < static_cast<int>(pending.size()); ++dst) {
    flush(dst, pending[static_cast<std::size_t>(dst)], slices - 1);
  }
}

}  // namespace

MessagePlan aggregatePlan(const MessagePlan& plan, SimTime kernel_duration,
                          const AggregatorParams& params) {
  PGASEMB_CHECK(params.aggregation_bytes > 0,
                "aggregation size must be positive");
  PGASEMB_CHECK(plan.wellFormed(), "malformed message plan");

  const int slices = plan.slices();
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
  std::vector<PendingBuf> pending(static_cast<std::size_t>(n_dst));

  // Two replays: the first counts each slice's flushes so the second
  // appends into exactly sized arrays.
  MessagePlan out;
  out.slice_begin.assign(static_cast<std::size_t>(slices) + 1, 0);
  replay(plan, max_wait_slices, params.aggregation_bytes, pending,
         [&out](int s, int, std::int64_t) {
           ++out.slice_begin[static_cast<std::size_t>(s) + 1];
         });
  std::partial_sum(out.slice_begin.begin(), out.slice_begin.end(),
                   out.slice_begin.begin());
  out.flows.reserve(out.slice_begin.back());
  replay(plan, max_wait_slices, params.aggregation_bytes, pending,
         [&out](int, int dst, std::int64_t bytes) {
           out.flows.push_back(SliceFlow{dst, bytes, /*n_messages=*/1});
         });

  PGASEMB_ASSERT(out.totalPayloadBytes() == plan.totalPayloadBytes(),
                 "aggregator lost bytes");
  return out;
}

}  // namespace pgasemb::pgas
