// The PGAS fused retriever — the paper's contribution (§III).
//
// One kernel per GPU both computes the pooled embeddings and writes each
// one to its final location the moment it is produced: locally for the
// GPU's own mini-batch, with a one-sided remote write otherwise.  Remote
// traffic is therefore spread across the whole compute window (overlap +
// smooth network usage) and there is no send/recv staging and no unpack.
// The kernel completes at quiet: when compute is done and the last
// remote write has been delivered.
#pragma once

#include <vector>

#include "core/retriever.hpp"
#include "emb/replica_cache.hpp"
#include "pgas/runtime.hpp"

namespace pgasemb::core {

struct PgasRetrieverOptions {
  /// Kernel-timeline subdivisions for message injection; higher = finer
  /// overlap granularity (and finer Figs 7/10 traces).
  int slices = 128;
  /// Optional async aggregator (paper §V future work / multi-node).
  const pgas::AggregatorParams* aggregator = nullptr;
  /// Optional hot-row replica cache: the fused kernel computes and puts
  /// misses only (fewer messages AND fewer headers, shorter quiet);
  /// serve kernels pool the hit bags locally after the exchange.
  emb::ReplicaCache* cache = nullptr;
  /// Optional inter-node codec: Functional mode really encodes/decodes
  /// values put across nodes, so the landed outputs carry the measured
  /// compression error.
  fabric::InterNodeCodec* codec = nullptr;
};

class PgasFusedRetriever final : public EmbeddingRetriever {
 public:
  PgasFusedRetriever(emb::ShardedEmbeddingLayer& layer,
                     pgas::PgasRuntime& runtime,
                     PgasRetrieverOptions options = {});
  ~PgasFusedRetriever() override;

  std::string name() const override { return "pgas_fused"; }
  BatchTiming runBatch(const emb::SparseBatch& batch) override;
  gpu::DeviceBuffer& output(int gpu) override;

 private:
  emb::ShardedEmbeddingLayer& layer_;
  pgas::PgasRuntime& runtime_;
  PgasRetrieverOptions options_;
  pgas::SymmetricBuffer outputs_sym_;
  std::vector<gpu::DeviceBuffer> outputs_view_;  // per-GPU handles
};

}  // namespace pgasemb::core
