// Sparse input batches (paper §II-B, Fig 3).
//
// For each sparse feature (= table) each sample carries a *bag* of raw
// indices; the bag size is the pooling factor and may be zero (a NULL
// input, Fig 3's sample-3/feature-2 case).  The batch stores one CSR
// (offsets + indices) per table over the full batch, the layout the
// lookup kernels consume.
//
// A batch is either *materialized* (real indices — functional mode) or
// *statistical* (only the distribution parameters — timing-only mode at
// paper scale, where materializing ~270 M indices per GPU per batch
// would dwarf the simulation itself).  Workload descriptors are derived
// from exact counts when materialized and expectations otherwise.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace pgasemb::emb {

struct SparseBatchSpec {
  std::int64_t num_tables = 1;
  std::int64_t batch_size = 1;
  int min_pooling = 1;   ///< 0 allows NULL (empty-bag) inputs
  int max_pooling = 1;   ///< inclusive; uniform over [min, max]
  std::uint64_t index_space = 1u << 20;  ///< raw index domain
  /// Optional per-table max pooling (skewed / "hot" features, as in
  /// RecShard [6]); overrides max_pooling per table when non-empty.
  std::vector<int> per_table_max_pooling;
  /// Zipf skew of the raw indices: rank r (= raw index r-1) is drawn
  /// with probability proportional to r^-zipf_alpha. 0 = uniform (the
  /// historical path, RNG-identical to before the knob existed).
  double zipf_alpha = 0.0;
  /// Serving fill: only the first `active_samples` samples carry real
  /// bags; the trailing samples are NULL (empty-bag) padding so a
  /// partially filled serving batch keeps the fixed shape the kernels
  /// and retriever buffers were sized for. 0 = fully active (the
  /// closed-loop path, behaviour-identical to before the knob existed).
  std::int64_t active_samples = 0;

  /// Samples that carry real bags (batch_size when not padding).
  std::int64_t activeSamples() const {
    return active_samples > 0 ? active_samples : batch_size;
  }

  int maxPoolingOf(std::int64_t table) const {
    if (per_table_max_pooling.empty()) return max_pooling;
    return per_table_max_pooling[static_cast<std::size_t>(table)];
  }
  double avgPoolingOf(std::int64_t table) const {
    return (min_pooling + maxPoolingOf(table)) / 2.0;
  }
};

class SparseBatch {
 public:
  /// Statistical batch: counts come from expectations.
  static SparseBatch statistical(const SparseBatchSpec& spec);

  /// Materialized batch: real uniform indices and pooling factors.
  static SparseBatch generateUniform(const SparseBatchSpec& spec, Rng& rng);

  const SparseBatchSpec& spec() const { return spec_; }
  bool materialized() const { return materialized_; }
  std::int64_t numTables() const { return spec_.num_tables; }
  std::int64_t batchSize() const { return spec_.batch_size; }

  /// CSR for one table (materialized only): offsets has batch_size + 1
  /// entries; bag of sample b is indices[offsets[b] .. offsets[b+1]).
  std::span<const std::int64_t> offsets(std::int64_t table) const;
  std::span<const std::uint64_t> indices(std::int64_t table) const;

  /// Bag size of (table, sample). Materialized only.
  std::int64_t poolingFactor(std::int64_t table, std::int64_t sample) const;

  /// Total indices across tables [first, first + count) (exact when
  /// materialized, expected otherwise) — the gather workload of a kernel
  /// owning those tables.
  double totalIndices(std::int64_t first, std::int64_t count) const;

  /// Exact total indices in one table. Materialized only.
  std::int64_t tableIndexCount(std::int64_t table) const;

 private:
  SparseBatchSpec spec_;
  bool materialized_ = false;
  // Per table: CSR arrays (empty when statistical).
  std::vector<std::vector<std::int64_t>> offsets_;
  std::vector<std::vector<std::uint64_t>> indices_;
};

}  // namespace pgasemb::emb
