// The NCCL-collective baseline retriever (paper §IV setup).
//
// Per batch: EmbeddingBagCollection-style lookup kernels write pooled
// embeddings into per-GPU send buffers in all-to-all order; the host
// synchronizes, triggers `all_to_all_single(async_op=True)`, calls
// wait(), then runs an unpack kernel that rearranges the received chunks
// into the final [sample][table][col] tensor.  The three measured phases
// (Computation / Communication / Sync+Unpack) fall directly out of this
// control flow.
#pragma once

#include <memory>
#include <vector>

#include "collective/communicator.hpp"
#include "core/retriever.hpp"
#include "emb/replica_cache.hpp"

namespace pgasemb::fault {
class HierRoute;
}

namespace pgasemb::core {

class CollectiveRetriever final : public EmbeddingRetriever {
 public:
  /// `cache` (optional) serves hot bags from the local replica: the
  /// lookup computes misses only and the all-to-all splits shrink.
  /// `route` (optional, the one the communicator routes through) adds
  /// the hierarchical all-to-all's leader gather kernel before the
  /// exchange and its leader scatter kernel after wait(), on the elected
  /// leaders' staging (DESIGN.md §12); the pipelined baseline rides the
  /// same wire path but skips these kernels, since its buffers are
  /// recycled across in-flight batches. `codec` (optional) really
  /// transcodes cross-node chunks in Functional mode, so landed outputs
  /// carry the measured compression error.
  CollectiveRetriever(emb::ShardedEmbeddingLayer& layer,
                      collective::Communicator& comm,
                      emb::ReplicaCache* cache = nullptr,
                      const fault::HierRoute* route = nullptr,
                      fabric::InterNodeCodec* codec = nullptr);
  ~CollectiveRetriever() override;

  std::string name() const override { return "nccl_collective"; }
  BatchTiming runBatch(const emb::SparseBatch& batch) override;
  gpu::DeviceBuffer& output(int gpu) override;

 private:
  void copyAllToAllPayload();

  emb::ShardedEmbeddingLayer& layer_;
  collective::Communicator& comm_;
  emb::ReplicaCache* cache_ = nullptr;
  const fault::HierRoute* route_ = nullptr;
  fabric::InterNodeCodec* codec_ = nullptr;
  std::vector<gpu::DeviceBuffer> send_buffers_;
  std::vector<gpu::DeviceBuffer> recv_buffers_;
  std::vector<gpu::DeviceBuffer> outputs_;
  /// Per-batch all-to-all byte matrix, zeroed and reused across batches
  /// instead of reallocated (p nested vectors per batch otherwise).
  std::vector<std::vector<std::int64_t>> send_matrix_;
};

}  // namespace pgasemb::core
