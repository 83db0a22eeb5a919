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

#include <algorithm>
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

/// A kernel's flows, in one of two forms.
///
/// Closed form (`message_bytes` > 0, built by makeUniformPlan): `flows`
/// holds one kernel-total flow (a row) per remote destination, in
/// ascending destination order, and each slice's share is computed as
/// the slice fires (RowSplit).
///
/// Explicit (`message_bytes` == 0, built by aggregatePlan): `flows` holds
/// every flow slice-major, and slice s owns flows[slice_begin[s],
/// slice_begin[s + 1]).
///
/// Either way the slices are read through a SliceCursor, and the flow
/// totals are the sums over `flows`.
struct MessagePlan {
  int slices = 1;
  std::int64_t message_bytes = 0;
  std::vector<SliceFlow> flows;
  /// Explicit plans only: slices + 1 ascending offsets into `flows`,
  /// from 0 to flows.size().
  std::vector<std::size_t> slice_begin;

  bool closedForm() const { return message_bytes > 0; }
  /// At least one slice; an explicit plan's offsets tile `flows` in
  /// order, and a closed-form plan has none and one row per destination
  /// in ascending order.
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
/// destination order. The plan is closed-form: O(destinations) however
/// many slices it has.
MessagePlan makeUniformPlan(const std::vector<std::int64_t>& payload_bytes,
                            int self, int slices,
                            std::int64_t message_bytes);

/// One closed-form row's largest-remainder split, stepped one slice at a
/// time without division: by the end of slice s the row has sent
/// floor(n_messages * (s + 1) / slices) = step * (s + 1) + floor(rem *
/// (s + 1) / slices) messages, with `acc` = rem * (s + 1) mod slices. A
/// share carries min(messages * message_bytes, the row's unsent bytes),
/// so only the final message may be partial. The split keeps the row's
/// destination, so stepping a row reads one 32-byte record.
class RowSplit {
 public:
  RowSplit(const SliceFlow& row, int slices)
      : rem_(static_cast<int>(row.n_messages % slices)),
        dst_(row.dst),
        step_(row.n_messages / slices),
        unsent_bytes_(row.payload_bytes) {}

  /// The next slice's share of the row; zero messages when the slice
  /// gets none.
  SliceFlow next(std::int64_t message_bytes, int slices) {
    // The carry is arithmetic, not a branch: it follows no pattern a
    // predictor learns across the rows of a slice.
    acc_ += rem_;
    const std::int64_t carry = acc_ >= slices ? 1 : 0;
    acc_ -= carry * slices;
    const std::int64_t messages = step_ + carry;
    const std::int64_t bytes =
        std::min(messages * message_bytes, unsent_bytes_);
    unsent_bytes_ -= bytes;
    return SliceFlow{dst_, bytes, messages};
  }

 private:
  std::int64_t acc_ = 0;
  int rem_;
  int dst_;
  std::int64_t step_;
  std::int64_t unsent_bytes_;
};

/// Reads a plan's slices in firing order: 0, 1, ..., slices - 1, each
/// once. A closed-form slice is stepped from the one before it (the
/// largest-remainder split without division), so any other order throws
/// instead of emitting wrong flows. Owns its plan, so a copy reads on
/// independently.
class SliceCursor {
 public:
  explicit SliceCursor(MessagePlan plan);

  const MessagePlan& plan() const { return plan_; }

  /// The flows of slice `s`, which must be the next unread slice. Valid
  /// until the next call.
  std::span<const SliceFlow> slice(int s);

 private:
  MessagePlan plan_;
  int next_ = 0;
  std::vector<RowSplit> splits_;      ///< closed form: one per row
  std::vector<SliceFlow> current_;    ///< closed form: the slice just read
};

}  // namespace pgasemb::pgas
