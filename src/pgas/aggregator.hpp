// Asynchronous communication aggregator (paper §V future work, after
// Chen et al., SC'22 [7]).
//
// Instead of `sum.store(outputs[idx], pe)` the kernel calls
// `aggregator.store(...)`: stores accumulate in a per-destination buffer
// that is transmitted when it reaches the aggregation size or when the
// oldest entry has waited `max_wait`.  On high-latency, message-rate-
// limited inter-node links this trades a little latency for far fewer,
// larger messages.  We model it as a transform on the kernel's message
// plan.
#pragma once

#include <cstdint>

#include "pgas/message_plan.hpp"
#include "util/time.hpp"

namespace pgasemb::pgas {

struct AggregatorParams {
  /// Flush when a destination buffer reaches this many payload bytes.
  std::int64_t aggregation_bytes = 64 * 1024;
  /// Flush a partial buffer once its oldest entry has waited this long.
  SimTime max_wait = SimTime::us(50.0);
};

/// Rewrite `plan` (whose slices span `kernel_duration`) as the explicit
/// plan of flows the aggregator would emit. Payload bytes are conserved;
/// message counts drop to one per flush. A final flush at the last slice
/// models quiet draining the aggregation buffers.
MessagePlan aggregatePlan(const MessagePlan& plan, SimTime kernel_duration,
                          const AggregatorParams& params);

}  // namespace pgasemb::pgas
