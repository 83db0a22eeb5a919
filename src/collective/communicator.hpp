// NCCL-like collective communication library on the simulated fabric.
//
// Collectives are enqueued on each device's default stream (so they start
// only after prior kernels on that stream finish — "communication does
// not start until the embedding table forward CUDA kernel finishes",
// paper §IV) and charge the host the collective trigger overhead, which
// is the "communication control path" cost the paper attributes to the
// baseline.
#pragma once

#include <cstdint>
#include <functional>
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

  /// Route all-to-alls hierarchically through `route` (DESIGN.md §12):
  /// members stage their inter-node contributions at the node leader
  /// over NVLink, the leader ships exactly one aggregated flow per
  /// destination node — a one-sided bulk RDMA from a pre-staged
  /// contiguous buffer, so it runs at full NIC fraction instead of the
  /// collective protocol efficiency — and the destination leader
  /// scatters over NVLink. Null (the default) keeps every collective
  /// flat. Not owned.
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
  Request allReduce(std::int64_t total_bytes,
                    std::function<void()> on_complete = nullptr);

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
  /// staging its caller declared, else the route's election at launch.
  int leaderOf(int node, const detail::CollectiveState& state) const;

  /// One source rank's hierarchical all-to-all injection: flat intra
  /// flows, gather-to-leader, and — for whichever member contributes
  /// last — the aggregated inter flow plus the destination-side scatter.
  /// Routing is decided once per collective: every member asks
  /// leaderOf() and the route's degraded pairs at the launch time, so all
  /// of them agree, or the per-pair contribution counting falls apart
  /// mid-collective.
  SimTime hierarchicalInject(
      int src, SimTime start,
      const std::vector<std::vector<std::int64_t>>& matrix,
      SimTime chunk_overhead, detail::CollectiveState& state);

  /// Inject the aggregated (src_node → dst_node) inter flow at the
  /// pair's ready time, then the destination-side scatter; returns the
  /// last scatter delivery.
  SimTime injectInterAndScatter(
      int src_node, int dst_node, const detail::HierPair& pair,
      const std::vector<std::vector<std::int64_t>>& matrix,
      SimTime chunk_overhead, detail::CollectiveState& state);

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

  /// Flat path of one (src, dst) payload: pipeline chunks through
  /// xfer(), each injected one proxy overhead after the previous, the
  /// first one after `at`. Advances `at` to the last injection; returns
  /// the last delivery (`at` as given when `bytes` is 0).
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

  /// Chunked hierarchical hop: split `bytes` into pipeline chunks,
  /// advancing `inject_at` by the per-chunk proxy overhead; returns the
  /// last chunk's delivery.
  SimTime sendChunked(int from, int to, std::int64_t bytes,
                      SimTime& inject_at, SimTime chunk_overhead,
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
