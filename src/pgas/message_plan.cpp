#include "pgas/message_plan.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace pgasemb::pgas {

bool MessagePlan::wellFormed() const {
  if (slices < 1) return false;
  if (closedForm()) {
    // Each destination's whole-message count must match its payload, or
    // stepping the split would not conserve bytes.
    return slice_begin.empty() &&
           std::all_of(flows.begin(), flows.end(), [&](const SliceFlow& f) {
             return f.payload_bytes > 0 &&
                    f.n_messages ==
                        (f.payload_bytes + message_bytes - 1) / message_bytes;
           }) &&
           std::adjacent_find(flows.begin(), flows.end(),
                              [](const SliceFlow& a, const SliceFlow& b) {
                                return a.dst >= b.dst;
                              }) == flows.end();
  }
  return slice_begin.size() == static_cast<std::size_t>(slices) + 1 &&
         slice_begin.front() == 0 && slice_begin.back() == flows.size() &&
         std::is_sorted(slice_begin.begin(), slice_begin.end());
}

std::int64_t MessagePlan::totalPayloadBytes() const {
  std::int64_t total = 0;
  for (const auto& f : flows) total += f.payload_bytes;
  return total;
}

std::int64_t MessagePlan::totalMessages() const {
  std::int64_t total = 0;
  for (const auto& f : flows) total += f.n_messages;
  return total;
}

MessagePlan makeUniformPlan(const std::vector<std::int64_t>& payload_bytes,
                            int self, int slices,
                            std::int64_t message_bytes) {
  PGASEMB_CHECK(slices >= 1, "plan needs >= 1 slice");
  PGASEMB_CHECK(message_bytes >= 1, "message size must be positive");
  MessagePlan plan;
  plan.slices = slices;
  plan.message_bytes = message_bytes;
  plan.flows.reserve(payload_bytes.size());
  for (int dst = 0; dst < static_cast<int>(payload_bytes.size()); ++dst) {
    if (dst == self) continue;
    const std::int64_t total = payload_bytes[static_cast<std::size_t>(dst)];
    PGASEMB_CHECK(total >= 0, "negative payload for dst ", dst);
    if (total == 0) continue;
    plan.flows.push_back(
        SliceFlow{dst, total, (total + message_bytes - 1) / message_bytes});
  }
  return plan;
}

SliceCursor::SliceCursor(MessagePlan plan) : plan_(std::move(plan)) {
  PGASEMB_CHECK(plan_.wellFormed(), "malformed message plan");
  if (!plan_.closedForm()) return;
  splits_.reserve(plan_.flows.size());
  for (const auto& row : plan_.flows) splits_.emplace_back(row, plan_.slices);
  current_.reserve(plan_.flows.size());
}

std::span<const SliceFlow> SliceCursor::slice(int s) {
  PGASEMB_CHECK(s == next_ && s < plan_.slices, "slice ", s,
                " read out of order: next unread slice is ", next_, " of ",
                plan_.slices);
  ++next_;
  if (!plan_.closedForm()) {
    const auto i = static_cast<std::size_t>(s);
    return {plan_.flows.data() + plan_.slice_begin[i],
            plan_.slice_begin[i + 1] - plan_.slice_begin[i]};
  }
  current_.clear();
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    const SliceFlow share =
        splits_[i].next(plan_.message_bytes, plan_.slices);
    if (share.n_messages > 0) current_.push_back(share);
  }
  return current_;
}

}  // namespace pgasemb::pgas
