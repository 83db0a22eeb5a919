// Sharding: how embedding tables and the batch are split across GPUs
// (paper §II-C, Fig 4).
//
// - Tables are model-parallel: table-wise sharding (the paper's scheme)
//   gives each GPU a contiguous block of whole tables; row-wise sharding
//   (paper §V / RecShard [6]) stripes every table's rows round-robin
//   across GPUs.
// - The output batch is data-parallel: sample b belongs to the GPU whose
//   contiguous mini-batch block contains b.
#pragma once

#include <cstdint>
#include <vector>

#include "util/expect.hpp"

namespace pgasemb::emb {

/// Block distribution of `count` items over `parts` parts; the first
/// (count % parts) parts get one extra item. Used both for table->GPU
/// ownership and for the batch->mini-batch split.
class BlockPartition {
 public:
  BlockPartition() = default;
  BlockPartition(std::int64_t count, int parts);

  /// Explicit block boundaries: boundaries[k]..boundaries[k+1] is part
  /// k's range; boundaries.front() == 0, strictly increasing overall.
  /// Used by load-balanced table sharding (RecShard-style sizing).
  explicit BlockPartition(std::vector<std::int64_t> boundaries);

  std::int64_t count() const { return count_; }
  int parts() const { return parts_; }

  std::int64_t begin(int part) const;
  std::int64_t end(int part) const { return begin(part) + size(part); }
  std::int64_t size(int part) const;
  int ownerOf(std::int64_t item) const;

 private:
  std::int64_t count_ = 0;
  int parts_ = 1;
  std::vector<std::int64_t> boundaries_;  // empty = uniform split
};

enum class ShardingScheme { kTableWise, kRowWise };

/// Table-wise sharding + batch partitioning for one EMB layer instance.
class Sharding {
 public:
  Sharding() = default;
  Sharding(std::int64_t total_tables, std::int64_t batch_size, int num_gpus,
           ShardingScheme scheme = ShardingScheme::kTableWise);

  /// Table-wise sharding with explicit table-block boundaries (from
  /// balancedTableBoundaries or a custom planner).
  Sharding(std::vector<std::int64_t> table_boundaries,
           std::int64_t batch_size, int num_gpus);

  ShardingScheme scheme() const { return scheme_; }
  int numGpus() const { return tables_.parts(); }
  std::int64_t totalTables() const { return tables_.count(); }
  std::int64_t batchSize() const { return batch_.count(); }

  // Model-parallel side (table-wise).
  int tableOwner(std::int64_t table) const { return tables_.ownerOf(table); }
  std::int64_t tablesOn(int gpu) const { return tables_.size(gpu); }
  std::int64_t firstTableOn(int gpu) const { return tables_.begin(gpu); }

  // Data-parallel side.
  int sampleOwner(std::int64_t sample) const { return batch_.ownerOf(sample); }
  std::int64_t miniBatchSize(int gpu) const { return batch_.size(gpu); }
  std::int64_t miniBatchBegin(int gpu) const { return batch_.begin(gpu); }

  /// Index of (sample, table, col) in GPU `owner`'s final output tensor
  /// laid out [mini-batch sample][global table][col] — the layout the
  /// interaction layer consumes, and the address PGAS writes target.
  std::int64_t outputIndex(std::int64_t sample, std::int64_t table,
                           int col, int dim) const;

  /// Elements in one GPU's final output tensor.
  std::int64_t outputElements(int gpu, int dim) const;

 private:
  BlockPartition tables_;
  BlockPartition batch_;
  ShardingScheme scheme_ = ShardingScheme::kTableWise;
};

/// Contiguous table-block boundaries over `parts` GPUs that balance the
/// per-GPU sum of `weights` (expected gathered rows, bytes, ...): a
/// greedy sweep that closes a block once it reaches the ideal share.
/// Returns parts + 1 boundaries suitable for Sharding.
std::vector<std::int64_t> balancedTableBoundaries(
    const std::vector<double>& weights, int parts);

}  // namespace pgasemb::emb
