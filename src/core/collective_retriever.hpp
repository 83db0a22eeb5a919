// The NCCL-collective baseline retriever (paper §IV setup): lookup
// kernels write pooled embeddings into per-GPU send buffers in
// all-to-all order, `all_to_all_single(async_op=True)` ships them, and an
// unpack kernel rearranges the received chunks into the final
// [sample][table][col] tensor. At depth 1 (`nccl_collective`) the host
// syncs after the lookup, calls wait() and syncs after the unpack, so the
// paper's three phases (Computation / Communication / Sync+Unpack) fall
// out of the control flow. Deeper pipelines (`nccl_pipelined`, A10) give
// each in-flight batch a slot of send, recv and output buffers, run the
// exchange on per-GPU comm streams, and enqueue a batch's unpack behind
// the NEXT batch's lookup, which thus overlaps this batch's exchange.
// On a hierarchical route the retriever owns the leader staging: it
// carves each node's slots, picks each node's leader once per batch,
// rebuilds a standby's staging after a failover and declares the pick to
// the exchange (DESIGN.md §12-13).
#pragma once

#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "collective/communicator.hpp"
#include "core/retriever.hpp"
#include "emb/replica_cache.hpp"
#include "gpu/gpu_event.hpp"

namespace pgasemb::fault {
class HierRoute;
}

namespace pgasemb::core {

class CollectiveRetriever final : public EmbeddingRetriever {
 public:
  /// `depth` = batches in flight (1 = blocking, 2 = double buffering;
  /// more needs 2 GPUs). `cache` (optional) serves hot bags from the local
  /// replica; only misses are looked up and exchanged. `route` (optional,
  /// the communicator's) adds the hierarchical exchange's leader staging,
  /// allocated on each node's first GPU, and its gather and demux kernels
  /// (DESIGN.md §12). `codec` (optional) transcodes cross-node chunks in
  /// Functional mode, as the wire does.
  CollectiveRetriever(emb::ShardedEmbeddingLayer& layer,
                      collective::Communicator& comm, int depth = 1,
                      emb::ReplicaCache* cache = nullptr,
                      const fault::HierRoute* route = nullptr,
                      fabric::InterNodeCodec* codec = nullptr);
  /// Frees the slot and staging buffers.
  ~CollectiveRetriever() override;
  CollectiveRetriever(const CollectiveRetriever&) = delete;
  CollectiveRetriever& operator=(const CollectiveRetriever&) = delete;

  std::string name() const override {
    return depth_ == 1 ? "nccl_collective" : "nccl_pipelined";
  }
  /// A pipeline only submits the batch and returns the host time since
  /// the previous call: the amortized cost once it is warm.
  BatchTiming runBatch(const emb::SparseBatch& batch) override;
  /// Drains a pipeline; zero (no sync charged) when nothing is in flight.
  SimTime finish() override;
  /// The latest batch's output (after finish() in a pipeline).
  gpu::DeviceBuffer& output(int gpu) override;

 private:
  struct Slot {
    std::vector<gpu::DeviceBuffer> send, recv, out;
  };
  using Staging = collective::CollectiveMemory::Staging;
  /// One pipelined batch, kept until a drain retires it: its events and
  /// what its kernels read after runBatch() returns (Functional bodies
  /// run at the next sync, possibly after the slot was reused).
  struct InFlight {
    InFlight(int gpus, int nodes)
        : lookup_done(static_cast<std::size_t>(gpus)),
          a2a_done(static_cast<std::size_t>(gpus)),
          gathered(static_cast<std::size_t>(nodes)),
          staging_free(static_cast<std::size_t>(nodes)) {}
    std::optional<emb::SparseBatch> batch;  ///< Functional copy
    std::optional<emb::CacheFilter> filter;
    bool landed = false;                                ///< Functional
    std::vector<gpu::GpuEvent> lookup_done, a2a_done;  ///< per GPU
    std::vector<gpu::GpuEvent> gathered, staging_free;  ///< per node
  };

  // Steps shared by every depth; `flight` is null at depth 1.
  void launchLookups(const emb::SparseBatch& batch, Slot& slot,
                     const emb::CacheFilter* filter, InFlight* flight);
  void launchStaging(bool gather, InFlight* flight);
  /// Allocates `node`'s staging layout on `device`.
  Staging carveStaging(int node, int device);
  /// Picks node `n`'s leader at the node's host time and declares the
  /// staging it holds. When leadership moved onto the standby in a fail
  /// window not yet rebuilt, first launches the standby's rebuild on the
  /// leader's stream (allocating its staging the first time) and returns
  /// true.
  bool pickStaging(int n, InFlight* flight);
  /// The stream a leader's staging kernels run on: its comm stream in a
  /// pipeline, its default stream at depth 1.
  gpu::Stream& leaderStream(int leader, InFlight* flight);
  collective::Request exchange(Slot& slot, bool land_at_wait);
  void launchUnpacks(Slot& slot, const emb::CacheFilter* filter,
                     InFlight* flight);
  void landExchange(Slot& slot);
  void enqueuePendingUnpack();
  InFlight* inFlight(std::int64_t batch) {
    return batch < retired_ ? nullptr
                            : &in_flight_[static_cast<std::size_t>(
                                  batch - retired_)];
  }

  emb::ShardedEmbeddingLayer& layer_;
  collective::Communicator& comm_;
  int depth_;
  emb::ReplicaCache* cache_ = nullptr;
  const fault::HierRoute* route_ = nullptr;
  fabric::InterNodeCodec* codec_ = nullptr;
  std::vector<Slot> slots_;
  /// The batch's all-to-all byte matrix, reused across batches.
  std::vector<std::vector<std::int64_t>> send_matrix_;
  /// What the batch's exchange is declared with: per-rank ranges under
  /// simsan and, on a hierarchical route, each node's picked staging,
  /// which the batch's demux uses too.
  collective::CollectiveMemory memory_;
  /// Per node: the default leader's staging, and the standby's (device
  /// -1 until a failover first rebuilds it).
  std::vector<Staging> staging_, standby_;
  std::vector<gpu::DeviceBuffer> staging_buffers_;
  /// (node, fail window) pairs whose standby staging was rebuilt.
  std::vector<std::pair<int, int>> rebuilt_;

  std::vector<gpu::Stream*> comm_streams_;  ///< pipelined: one per GPU
  /// Batches [retired_, submitted_); earlier ones were retired by a drain.
  std::deque<InFlight> in_flight_;
  std::int64_t retired_ = 0;
  std::int64_t submitted_ = 0;
  SimTime last_host_ = SimTime::zero();
  /// The batch whose unpack is not yet enqueued (-1 = none).
  std::int64_t pending_ = -1;
};

}  // namespace pgasemb::core
