#include "pgas/message_plan.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace pgasemb::pgas {

bool MessagePlan::wellFormed() const {
  return slice_begin.size() >= 2 && slice_begin.front() == 0 &&
         slice_begin.back() == flows.size() &&
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
  // One destination's split, stepped slice by slice without dividing:
  // `upto` = floor(total_msgs * (s + 1) / slices) = step * (s + 1) +
  // floor(rem * (s + 1) / slices), with `acc` = rem * (s + 1) mod slices.
  struct Share {
    int dst;
    std::int64_t total;
    std::int64_t step;
    std::int64_t rem;
    std::int64_t upto = 0;
    std::int64_t acc = 0;
  };
  std::vector<Share> shares;
  shares.reserve(payload_bytes.size());
  // A destination with T whole messages appears in min(T, slices)
  // slices, so the plan's size is known before anything is emitted.
  std::size_t n_flows = 0;
  for (int dst = 0; dst < static_cast<int>(payload_bytes.size()); ++dst) {
    if (dst == self) continue;
    const std::int64_t total = payload_bytes[static_cast<std::size_t>(dst)];
    PGASEMB_CHECK(total >= 0, "negative payload for dst ", dst);
    if (total == 0) continue;
    const std::int64_t total_msgs =
        (total + message_bytes - 1) / message_bytes;
    shares.push_back(Share{dst, total, total_msgs / slices,
                           total_msgs % slices});
    n_flows += static_cast<std::size_t>(
        std::min<std::int64_t>(total_msgs, slices));
  }
  MessagePlan plan;
  plan.flows.reserve(n_flows);
  plan.slice_begin.reserve(static_cast<std::size_t>(slices) + 1);
  for (int s = 0; s < slices; ++s) {
    plan.slice_begin.push_back(plan.flows.size());
    for (Share& sh : shares) {
      const std::int64_t before = sh.upto;
      sh.upto += sh.step;
      sh.acc += sh.rem;
      if (sh.acc >= slices) {
        sh.acc -= slices;
        ++sh.upto;
      }
      if (sh.upto == before) continue;
      // Whole messages carry whole bytes; only a destination's final
      // message may be partial.
      plan.flows.push_back(
          SliceFlow{sh.dst,
                    std::min(sh.upto * message_bytes, sh.total) -
                        std::min(before * message_bytes, sh.total),
                    sh.upto - before});
    }
  }
  plan.slice_begin.push_back(plan.flows.size());
  PGASEMB_ASSERT(plan.flows.size() == n_flows, "uniform plan miscounted");
  return plan;
}

}  // namespace pgasemb::pgas
