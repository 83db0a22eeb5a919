// Per-GPU hot-row replica cache (HugeCTR HPS-style embedding cache).
//
// Real DLRM inference traffic is Zipf-skewed: a small hot set of rows
// absorbs most lookups.  Every GPU therefore holds a capacity-bounded
// replica of the globally hottest `capacity_rows` rows of EVERY table
// (frequency-ranked admission: under the library's Zipf workloads rank
// order equals raw-index order, so the hot set is raws [0, capacity)).
// A destination GPU can then pool a (table, sample) bag entirely from
// its local replica whenever all of the bag's indices are hot — that
// pooled output never enters the exchange: the collective's all-to-all
// split shrinks, and the PGAS path skips the remote put AND its
// per-message header (paper §IV header ablation), shortening quiet.
//
// CacheFilter is the per-batch partition of the lookup workload this
// induces: the owner-side miss lookup, the destination-side replica
// serve, the probe volume, and the hit/saved-bytes accounting — exact
// for materialized batches, expectations for statistical ones.
#pragma once

#include <cstdint>
#include <vector>

#include "emb/layer.hpp"
#include "gpu/kernel.hpp"

namespace pgasemb::emb {

class CacheFilter;

class ReplicaCache {
 public:
  /// Allocates one replica block per GPU: total_tables x capacity_rows
  /// x dim fp32 elements (capacity is clamped to the raw-index domain).
  /// Table-wise sharding only — row-wise already spreads every row.
  ReplicaCache(ShardedEmbeddingLayer& layer, std::int64_t capacity_rows);
  ~ReplicaCache();

  ReplicaCache(const ReplicaCache&) = delete;
  ReplicaCache& operator=(const ReplicaCache&) = delete;

  ShardedEmbeddingLayer& layer() const { return layer_; }
  std::int64_t capacityRows() const { return capacity_rows_; }

  /// Frequency-ranked admission: raw index r is replicated iff r <
  /// capacity (Zipf rank order == raw order in this library).
  bool hitsIndex(std::uint64_t raw) const {
    return raw < static_cast<std::uint64_t>(capacity_rows_);
  }

  /// P(one raw index is hot): the analytic Zipf top-capacity mass (or
  /// capacity / index_space when the workload is uniform).
  double indexHitRate() const { return index_hit_rate_; }

  /// GPU `gpu`'s replica block (simsan footprints, memory accounting).
  const gpu::DeviceBuffer& replica(int gpu) const;

 private:
  ShardedEmbeddingLayer& layer_;
  std::int64_t capacity_rows_;
  double index_hit_rate_;
  std::vector<gpu::DeviceBuffer> replicas_;
};

/// Per-batch cache partition of the lookup workload. A bag is *served*
/// when every index in it is hot (empty bags are trivially served).
/// Exact when the batch is materialized; per-table expectations over
/// the pooling distribution otherwise (bag-hit probability E[h^L]).
class CacheFilter {
 public:
  CacheFilter(const ShardedEmbeddingLayer& layer, const SparseBatch& batch,
              const ReplicaCache& cache);

  /// Owner-side residual lookup of GPU `gpu` (miss bags only): what the
  /// shrunk lookup kernel computes and the exchange carries.
  const GpuLookupWork& missWork(int gpu) const;

  /// Destination-side replica serve of GPU `gpu` (hit bags of its own
  /// mini-batch across ALL tables); outputs_to is nonzero only at self.
  const GpuLookupWork& serveWork(int gpu) const;

  /// Raw indices GPU `gpu`'s probe/partition kernel classifies: its own
  /// tables' full batch plus all tables' own mini-batch.
  double probedIndices(int gpu) const;

  /// Was bag (table, sample) served from the replica? Materialized only.
  bool bagServed(std::int64_t table, std::int64_t sample) const;

  double lookups() const { return lookups_; }  ///< total raw indices
  double hits() const { return hits_; }        ///< indices served locally

  /// Exchange payload bytes the served bags would have put on the wire.
  double savedWireBytes() const { return saved_wire_bytes_; }

 private:
  const ShardedEmbeddingLayer& layer_;
  bool materialized_ = false;
  std::vector<GpuLookupWork> miss_work_;
  std::vector<GpuLookupWork> serve_work_;
  std::vector<double> probed_;
  std::vector<std::vector<std::uint8_t>> served_;  // [table][sample]
  double lookups_ = 0.0;
  double hits_ = 0.0;
  double saved_wire_bytes_ = 0.0;
};

/// Build GPU `gpu`'s probe/partition kernel: a streaming classification
/// pass over the raw indices that compacts miss lists for the lookup
/// and hit lists for the serve kernel. Metadata only — no tensor
/// traffic, so no functional body.
gpu::KernelDesc buildCacheProbeKernel(const ShardedEmbeddingLayer& layer,
                                      const CacheFilter& filter, int gpu);

/// Build GPU `gpu`'s replica-serve kernel: pools every served bag of
/// its own mini-batch from the local `replica` block straight into
/// `output` (the final [sample][table][col] tensor) — local HBM reads
/// instead of exchange traffic. Pass both buffers in every mode — the
/// builder declares the kernel's simsan replica-read / output-write
/// effects from them when a checker is attached and runs the functional
/// body only when `output` is backed and the batch is materialized.
gpu::KernelDesc buildCacheServeKernel(ShardedEmbeddingLayer& layer,
                                      const SparseBatch& batch,
                                      const CacheFilter& filter, int gpu,
                                      const gpu::DeviceBuffer* replica,
                                      gpu::DeviceBuffer* output);

}  // namespace pgasemb::emb
