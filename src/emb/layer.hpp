// Sharded embedding layer: the model-parallel collection of embedding
// tables distributed over the simulated GPUs, plus the reference
// (single-device) semantics tests compare against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "emb/sharding.hpp"
#include "emb/sparse_batch.hpp"
#include "emb/table.hpp"
#include "gpu/system.hpp"

namespace pgasemb::emb {

struct EmbLayerSpec {
  std::int64_t total_tables = 4;
  std::int64_t rows_per_table = 100;  ///< hash size M, identical per table
  int dim = 64;
  std::int64_t batch_size = 8;
  int min_pooling = 1;
  int max_pooling = 4;
  std::uint64_t seed = 0x5eed;
  std::uint64_t index_space = 1u << 20;
  /// Optional per-table max pooling (hot features) — skewed workloads.
  std::vector<int> table_max_pooling;
  /// Zipf skew of the raw indices (0 = uniform); see SparseBatchSpec.
  double zipf_alpha = 0.0;
  /// Table-wise only: pick table-block boundaries that balance expected
  /// gather work (RecShard-style) instead of equal table counts.
  bool balance_tables = false;

  SparseBatchSpec batchSpec() const {
    return SparseBatchSpec{total_tables,  batch_size, min_pooling,
                           max_pooling,   index_space,
                           table_max_pooling, zipf_alpha};
  }

  /// Device bytes required for the tables of one GPU.
  std::int64_t tableBytesPerGpu(int num_gpus) const;
};

/// Per-GPU lookup workload descriptor (exact for materialized batches,
/// expected for statistical ones) — what the kernel cost model and the
/// message plans are built from.
struct GpuLookupWork {
  double gathered_rows = 0;  ///< embedding rows read (pooling gathers)
  /// Pooled output vectors this GPU produces for each destination GPU's
  /// mini-batch (self included).
  std::vector<std::int64_t> outputs_to;

  std::int64_t totalOutputs() const;
  std::int64_t remoteOutputs(int self) const;
};

class ShardedEmbeddingLayer {
 public:
  ShardedEmbeddingLayer(gpu::MultiGpuSystem& system,
                        const EmbLayerSpec& spec,
                        ShardingScheme scheme = ShardingScheme::kTableWise);
  ~ShardedEmbeddingLayer();

  ShardedEmbeddingLayer(const ShardedEmbeddingLayer&) = delete;
  ShardedEmbeddingLayer& operator=(const ShardedEmbeddingLayer&) = delete;

  const EmbLayerSpec& spec() const { return spec_; }
  const Sharding& sharding() const { return sharding_; }
  gpu::MultiGpuSystem& system() { return system_; }
  const gpu::MultiGpuSystem& system() const { return system_; }
  int dim() const { return spec_.dim; }

  EmbeddingTable& table(std::int64_t global_table);
  const EmbeddingTable& table(std::int64_t global_table) const;

  /// Lookup workload of GPU `gpu` for `batch`.
  GpuLookupWork lookupWork(const SparseBatch& batch, int gpu) const;

  // --- Functional reference semantics --------------------------------------

  /// Hash a bag's raw indices for `table` into rows.
  std::int64_t hashedRow(std::int64_t table, std::uint64_t raw) const;

  /// Sum-pooled embedding of (table, sample): the gray-box operation of
  /// paper Fig 3. Empty bags yield zeros.
  std::vector<float> pooledValue(const SparseBatch& batch,
                                 std::int64_t table,
                                 std::int64_t sample) const;

  /// Row-wise sharding: the partial sum over the bag entries whose hashed
  /// row is owned by `gpu` (row r belongs to GPU r % P).
  std::vector<float> partialPooledValue(const SparseBatch& batch,
                                        std::int64_t table,
                                        std::int64_t sample, int gpu) const;

  /// The full expected output tensor of GPU `gpu`
  /// ([mini-batch sample][table][col]) computed serially — the oracle for
  /// both retriever implementations.
  std::vector<float> referenceOutput(const SparseBatch& batch,
                                     int gpu) const;

 private:
  gpu::MultiGpuSystem& system_;
  EmbLayerSpec spec_;
  Sharding sharding_;
  std::vector<std::unique_ptr<EmbeddingTable>> tables_;
};

}  // namespace pgasemb::emb
