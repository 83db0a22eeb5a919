// Asynchronous collective request handle.
//
// Mirrors the request object returned by
// `torch.distributed.all_to_all_single(..., async_op=True)`: the host
// continues immediately and later calls `wait()`, which blocks until the
// collective has completed on every device.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "simsan/access.hpp"
#include "simsan/checker.hpp"
#include "simsan/strict.hpp"
#include "util/time.hpp"

namespace pgasemb::gpu {
class MultiGpuSystem;
}

namespace pgasemb::collective {

/// The buffers a caller declares for one collective. Per-rank send and
/// recv ranges let simsan log what each rank's op reads and writes (NCCL
/// semantics: every rank's kernel reads its own send buffer and writes
/// its own recv buffer; cross-rank visibility comes from the collective's
/// barrier). A hierarchical all-to-all's leader staging, one entry per
/// node, also routes it: each node's gather, inter-node and scatter hops
/// go through the GPU that holds that node's staging (DESIGN.md §12).
struct CollectiveMemory {
  struct PerRank {
    int device = -1;  ///< -1 = no declared buffers for this rank
    simsan::StridedRange send;  ///< read by the rank's op
    simsan::StridedRange recv;  ///< written by the rank's op
  };
  /// One node's leader staging.
  struct Staging {
    int device = -1;  ///< the leader GPU that holds it
    std::vector<simsan::StridedRange> gather_slots;  ///< one per local rank
    std::vector<simsan::StridedRange> recv_slots;    ///< one per source node
  };
  std::vector<PerRank> ranks;  ///< empty: nothing logged per rank
  /// Empty: the communicator elects the leaders itself, at launch.
  std::vector<Staging> staging;
};

namespace detail {

/// Per-(src-node, dst-node) accumulator of a hierarchical all-to-all:
/// every member of the source node stages its contribution at the node
/// leader, and once every member of the collective has staged, the
/// aggregated inter-node flow ships.
struct HierPair {
  SimTime ready = SimTime::zero();      ///< latest gather delivery
  std::int64_t raw_bytes = 0;           ///< aggregated (uncompressed) payload
  std::int64_t wire_bytes = 0;          ///< what the codec ships for it
  SimTime delivered = SimTime::zero();  ///< its inter flow's last delivery
};

/// simsan bookkeeping of one hierarchical transfer (logged at the
/// collective's completion, when all timings are known).
struct HierGatherLog {
  int src = -1;  ///< member whose contribution was staged at its leader
  SimTime at = SimTime::zero();
  SimTime delivered = SimTime::zero();
};
struct HierInterLog {
  int src_node = -1;
  int dst_node = -1;
  SimTime at = SimTime::zero();
  SimTime delivered = SimTime::zero();
};
struct HierScatterLog {
  int dst = -1;
  int src_node = -1;  ///< recv-staging slot the scatter reads
  SimTime at = SimTime::zero();
  SimTime delivered = SimTime::zero();
  bool synced = true;  ///< false only under the seeded scatter bug
};

/// Shared completion state between the stream ops of one collective.
struct CollectiveState {
  int devices_pending = 0;
  SimTime completion = SimTime::zero();
  /// Start of the first member's op. A hierarchical all-to-all routes at
  /// this time: every member asks the route for degraded pairs (and,
  /// when the caller declared no staging, for elected leaders) at it, so
  /// all agree even when a fault window edge crosses the collective.
  SimTime first_start = SimTime::max();
  bool completed = false;
  std::vector<std::function<void(SimTime)>> done_callbacks;
  std::function<void()> on_complete;  ///< functional data landing

  // --- simsan bookkeeping (unused when the checker is off) ---------------
  std::string label;
  CollectiveMemory memory;
  std::vector<simsan::ActorId> actors;  ///< per-rank op (stream) actor
  std::vector<SimTime> op_start;        ///< per-rank op start time
  /// Strict-effects tracker for this collective's transfers (null unless
  /// --simsan-strict): the communicator points its active-scope cursor
  /// here around each rank's synchronous inject call.
  std::shared_ptr<simsan::StrictCollectiveTracker> strict;

  // --- hierarchical all-to-all bookkeeping (empty in flat mode) ----------
  std::vector<HierPair> hier_pairs;  ///< dense (src_node, dst_node) matrix
  std::vector<HierGatherLog> hier_gathers;
  std::vector<HierInterLog> hier_inters;
  std::vector<HierScatterLog> hier_scatters;
  /// Arena whose element addresses serve as simsan sync keys: one per
  /// node (gather barrier) then one per (src_node, dst_node) inter flow.
  std::vector<char> hier_sync;
};

}  // namespace detail

class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<detail::CollectiveState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }

  /// True once every device's part has finished (after draining the sim).
  bool completed() const;

  /// Completion time on the device timeline. Precondition: completed().
  SimTime completionTime() const;

  /// Time the earliest device began injecting traffic; with
  /// completionTime() this bounds the pure wire time of the collective.
  /// Precondition: completed().
  SimTime startTime() const;

  /// Block the hosts until complete: drains the simulator, advances every
  /// node's host clock past the completion (plus one sync call), and runs
  /// the functional completion callback. Returns the new host time.
  SimTime wait(gpu::MultiGpuSystem& system);

 private:
  std::shared_ptr<detail::CollectiveState> state_;
};

}  // namespace pgasemb::collective
