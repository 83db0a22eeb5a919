// NCCL-like collective communication library on the simulated fabric.
//
// Collectives are enqueued on each device's default stream (so they start
// only after prior kernels on that stream finish — "communication does
// not start until the embedding table forward CUDA kernel finishes",
// paper §IV) and charge the host the collective trigger overhead, which
// is the "communication control path" cost the paper attributes to the
// baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "collective/request.hpp"
#include "fabric/compression.hpp"
#include "fabric/fabric.hpp"
#include "gpu/system.hpp"
#include "util/pool.hpp"

namespace pgasemb::fault {
class FaultInjector;
class HierRoute;
}

namespace pgasemb::collective {

class Communicator {
 public:
  /// NCCL-style pipeline chunk size: every collective payload ships in
  /// chunks of at most this many bytes, each injected one proxy overhead
  /// after the previous.
  static constexpr std::int64_t kChunkBytes = 4 * 1024 * 1024;

  Communicator(gpu::MultiGpuSystem& system, fabric::Fabric& fabric);

  int numGpus() const { return system_.numGpus(); }

  /// Attach the fault injector: every collective wire transfer gains
  /// bounded reissue of flap-dropped chunks (counted as
  /// collective_reissues).  Null (the default) keeps the direct fabric
  /// path, bit-identical to a fault-free build.  Not owned.
  void setFaultInjector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  fault::FaultInjector* faultInjector() const { return injector_; }

  /// Route all-to-alls hierarchically through `route` (DESIGN.md §12),
  /// pairwise: at step k every member stages its contribution for node
  /// (n + k) mod N at its node leader over NVLink. Once every member has
  /// staged, each node pair's leader ships one aggregated flow to the
  /// destination leader — a one-sided bulk RDMA from a pre-staged
  /// contiguous buffer, so it runs at full NIC fraction instead of the
  /// collective protocol efficiency — which scatters it over NVLink;
  /// every hop of those flows is served in arrival order. Null (the
  /// default) keeps every collective flat. Not owned.
  void setRoute(const fault::HierRoute* route) { route_ = route; }

  /// Compress inter-node wire bytes through `codec`, hierarchical or
  /// flat. Null (the default) ships raw payloads. Not owned.
  void setCodec(fabric::InterNodeCodec* codec) { codec_ = codec; }

  /// Asynchronous all-to-all: `send_bytes[src][dst]` payload bytes move
  /// from src to dst (diagonal = local, free). Equivalent of
  /// torch.distributed.all_to_all_single(async_op=True) on every rank.
  /// `on_complete` (optional) runs at wait() — used by functional mode to
  /// land the real data. `streams` (optional, one per GPU) selects the
  /// streams the collective enqueues on — side comm streams let a
  /// pipelined caller overlap the next batch's compute with this
  /// collective; default = each device's default stream.
  /// `memory` (optional) declares each rank's buffers for simsan access
  /// logging (ignored when no checker is attached) and, on a hierarchical
  /// route, each node's leader staging, whose holders lead the exchange.
  Request allToAllSingle(
      const std::vector<std::vector<std::int64_t>>& send_bytes,
      std::function<void()> on_complete = nullptr,
      const std::vector<gpu::Stream*>* streams = nullptr,
      const CollectiveMemory* memory = nullptr);

  /// Ring all-reduce = reduce-scatter + all-gather: 2(p-1) chained steps
  /// of total/p-sized transfers, reductions overlapped with transfer.
  /// `streams` (optional, one per GPU) as for allToAllSingle: a side
  /// stream lets the all-reduce run under other work on the device.
  Request allReduce(std::int64_t total_bytes,
                    std::function<void()> on_complete = nullptr,
                    const std::vector<gpu::Stream*>* streams = nullptr);

  /// `rounds` rounds in which every GPU ships `bytes_per_round` to its
  /// ring successor, with a full synchronization between rounds.  This is
  /// the baseline gradient-aggregation pattern of the EMB backward pass
  /// the paper's future-work section describes ("multiple rounds of
  /// collective calls, where embeddings are shifted to the next GPU").
  Request ringShiftRounds(std::int64_t bytes_per_round, int rounds,
                          std::function<void()> on_complete = nullptr);

 private:
  /// Shared scaffolding: enqueue one op per device; `inject(src, start,
  /// state)` returns the time src's part of the wire traffic is fully
  /// delivered (state carries cross-rank hierarchical bookkeeping).
  Request launch(
      const std::string& label,
      std::function<SimTime(int src, SimTime start,
                            detail::CollectiveState& state)> inject,
      std::function<void()> on_complete,
      const std::vector<gpu::Stream*>* streams = nullptr,
      const CollectiveMemory* memory = nullptr);

  /// simsan hook run at a collective's completion event: logs each
  /// rank's declared send-read/recv-write and applies the retire-together
  /// barrier between all participating rank ops. No-op without a checker.
  void sanitizeCompletion(detail::CollectiveState& state);

  /// simsan hook for the hierarchical path: logs the staging-buffer
  /// gather writes, aggregated inter-flow read/write, and scatter reads,
  /// with release/acquire edges mirroring the real synchronization (a
  /// seeded SeededBug::kScatterBeforeInterFlow drops the inter-flow→
  /// scatter edge). Runs before
  /// sanitizeCompletion's retire-together barrier.
  void sanitizeHierarchical(detail::CollectiveState& state);

  /// Node `node`'s leader for this collective: the GPU holding the
  /// staging its caller declared, else the route's election at the
  /// collective's first op start.
  int leaderOf(int node, const detail::CollectiveState& state) const;

  /// One source rank's part of a hierarchical all-to-all: flat intra
  /// flows, flat flows to degraded pairs, and its contribution for each
  /// other node staged at its leader, in pairwise order; the last member
  /// to stage also ships every pair (shipStaged). Routing is decided
  /// once per collective: every member asks leaderOf() and the route's
  /// degraded pairs at the first op's start, so all of them agree on
  /// which pairs are staged.
  SimTime hierarchicalInject(
      int src, SimTime start,
      const std::vector<std::vector<std::int64_t>>& matrix,
      SimTime chunk_overhead, detail::CollectiveState& state);

  /// Ships every staged node pair: encodes each at its readiness time,
  /// in readiness order, then sends the leader-to-leader flows and, once
  /// each has landed, its scatters, each stage through deliver().
  /// Returns the last delivery.
  SimTime shipStaged(const std::vector<std::vector<std::int64_t>>& matrix,
                     SimTime chunk_overhead, detail::CollectiveState& state);

  /// Sends `flows` and raises `*done[i]` to flow i's delivery: every hop
  /// served in arrival order (Fabric::sendInArrivalOrder), or, under an
  /// armed fault injector, each flow whole through its reissue path in
  /// injection order.
  void deliver(std::span<const fabric::Fabric::Flow> flows,
               std::span<SimTime* const> done);

  /// NCCL protocol efficiency applied to all collective wire traffic
  /// (staging copies, handshakes) — see CostModel.
  double protoEff() const {
    return system_.costModel().collective_protocol_efficiency;
  }

  /// All flat collective wire traffic funnels through here: charges the
  /// strict tracker with the logical payload, compresses inter-node flows
  /// when a codec is armed, and sends through hierXfer().
  fabric::Fabric::Delivery xfer(int src, int dst, std::int64_t payload_bytes,
                                std::int64_t n_messages, SimTime at);

  /// The one pipeline-chunk loop: calls `each(chunk_bytes, inject_at)`
  /// for every chunk of at most kChunkBytes of `bytes`, each injected one
  /// proxy overhead after the previous, the first one after `at`, and
  /// advances `at` to the last injection.
  template <typename Each>
  static void forEachChunk(std::int64_t bytes, SimTime& at,
                           SimTime chunk_overhead, Each&& each) {
    for (std::int64_t remaining = bytes; remaining > 0;
         remaining -= kChunkBytes) {
      at += chunk_overhead;  // proxy progression per chunk
      each(std::min(remaining, kChunkBytes), at);
    }
  }

  /// Flat path of one (src, dst) payload: pipeline chunks through
  /// xfer(). Advances `at` to the last injection; returns the last
  /// delivery (`at` as given when `bytes` is 0).
  SimTime xferChunked(int src, int dst, std::int64_t bytes, SimTime& at,
                      SimTime chunk_overhead);

  /// One physical hop at an explicit bandwidth fraction: direct fabric
  /// transfer normally, reissue-on-drop when a fault injector is set. No
  /// strict charge (a hierarchical (src, dst) transfer is charged once,
  /// separately — forwarded hops would otherwise blow the leader's
  /// declared budget).
  fabric::Fabric::Delivery hierXfer(int src, int dst,
                                    std::int64_t payload_bytes,
                                    std::int64_t n_messages, SimTime at,
                                    double bandwidth_fraction);

  gpu::MultiGpuSystem& system_;
  fabric::Fabric& fabric_;
  fault::FaultInjector* injector_ = nullptr;
  const fault::HierRoute* route_ = nullptr;
  fabric::InterNodeCodec* codec_ = nullptr;
  /// Strict-effects attribution cursor: points at the tracker of the
  /// collective whose inject function is currently executing (the sim
  /// is single-threaded; injects run synchronously inside stream ops),
  /// so xfer() can charge transfers to the right collective. Null
  /// outside inject windows and without --simsan-strict.
  simsan::StrictCollectiveTracker* strict_active_ = nullptr;
  /// Recycles the per-collective completion records (one per launch).
  util::SharedPool<detail::CollectiveState> state_pool_;
};

}  // namespace pgasemb::collective
