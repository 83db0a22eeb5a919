// Message plan: the communication a fused kernel performs, slice by
// slice.
//
// The paper's fused kernel issues a one-sided write the moment each
// pooled embedding is computed, and hardware warp-coalescing merges
// naturally adjacent stores into ~256-byte lines (§IV-A2d).  Simulating
// every individual store would be prohibitive (millions per kernel), so
// the kernel's timeline is subdivided into slices and each slice carries
// the warp-coalesced messages generated during it.  This preserves the
// three effects the paper measures: communication spread over the whole
// compute window, per-message header overhead, and quiet-bounded kernel
// completion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pgasemb::pgas {

/// A batch of same-destination messages injected at one slice boundary.
struct SliceFlow {
  int dst = 0;
  std::int64_t payload_bytes = 0;
  std::int64_t n_messages = 0;
};

/// Every flow of a kernel in one slice-major array: slice s owns
/// flows[slice_begin[s], slice_begin[s + 1]). The builders size both
/// arrays exactly up front, so each is allocated once however many
/// slices the plan has.
struct MessagePlan {
  std::vector<SliceFlow> flows;
  /// slices() + 1 ascending offsets into `flows`, from 0 to flows.size().
  std::vector<std::size_t> slice_begin;

  int slices() const { return static_cast<int>(slice_begin.size()) - 1; }
  std::span<const SliceFlow> slice(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return {flows.data() + slice_begin[i],
            slice_begin[i + 1] - slice_begin[i]};
  }
  /// At least one slice, and offsets that tile `flows` in order.
  bool wellFormed() const;

  std::int64_t totalPayloadBytes() const;
  std::int64_t totalMessages() const;
};

/// Build a plan that spreads `payload_bytes[dst]` (as `message_bytes`-
/// sized messages) uniformly over `slices` slices — the traffic shape of
/// a lookup kernel whose outputs are uniformly distributed over the
/// remote mini-batches, as with the paper's uniform synthetic inputs.
/// Whole messages are split by largest remainder (slice s ends after
/// floor(total_msgs * (s + 1) / slices) messages); only a destination's
/// final message may be partial. Within a slice, flows are in
/// destination order.
MessagePlan makeUniformPlan(const std::vector<std::int64_t>& payload_bytes,
                            int self, int slices,
                            std::int64_t message_bytes);

}  // namespace pgasemb::pgas
