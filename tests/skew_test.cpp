// Tests for skewed (per-table pooling) workloads and load-balanced
// table sharding: balancer properties, custom-boundary partitions, and
// full functional equivalence of both retrievers under skew + balancing.
#include <gtest/gtest.h>

#include <memory>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "emb/workload.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "util/expect.hpp"

namespace pgasemb::emb {
namespace {

// --- Balancer properties -------------------------------------------------------

TEST(BalancerTest, UniformWeightsGiveUniformBlocks) {
  const std::vector<double> w(12, 1.0);
  const auto b = balancedTableBoundaries(w, 4);
  EXPECT_EQ(b, (std::vector<std::int64_t>{0, 3, 6, 9, 12}));
}

TEST(BalancerTest, SkewedWeightsBalanceTheLoad) {
  // One huge table followed by many small ones.
  std::vector<double> w{100.0};
  for (int i = 0; i < 99; ++i) w.push_back(1.0);
  const auto b = balancedTableBoundaries(w, 4);
  ASSERT_EQ(b.size(), 5u);
  // The hot table sits alone (or nearly) in the first block.
  EXPECT_LE(b[1], 2);
  // Every part non-empty and ordered.
  for (std::size_t k = 1; k < b.size(); ++k) EXPECT_GT(b[k], b[k - 1]);
  EXPECT_EQ(b.back(), 100);
  // Load ratio far better than the naive 25-table blocks (whose first
  // block would carry 100 + 24 = 124 of the 199 total).
  double max_load = 0.0, min_load = 1e30;
  for (int part = 0; part < 4; ++part) {
    double load = 0.0;
    for (std::int64_t t = b[static_cast<std::size_t>(part)];
         t < b[static_cast<std::size_t>(part) + 1]; ++t) {
      load += w[static_cast<std::size_t>(t)];
    }
    max_load = std::max(max_load, load);
    min_load = std::min(min_load, load);
  }
  EXPECT_LT(max_load / min_load, 3.5);
  EXPECT_NEAR(max_load, 100.0, 1.0);  // the hot table sits alone
}

TEST(BalancerTest, EveryPartGetsAtLeastOneTable) {
  // Pathological: all weight in the last table.
  std::vector<double> w(8, 0.0);
  w[7] = 100.0;
  const auto b = balancedTableBoundaries(w, 4);
  for (std::size_t k = 1; k < b.size(); ++k) EXPECT_GT(b[k], b[k - 1]);
}

TEST(BalancerTest, RejectsBadInput) {
  EXPECT_THROW(balancedTableBoundaries({1.0}, 2), InvalidArgumentError);
  EXPECT_THROW(balancedTableBoundaries({1.0, -1.0}, 2),
               InvalidArgumentError);
}

TEST(CustomPartitionTest, ExplicitBoundariesRoundTrip) {
  BlockPartition p(std::vector<std::int64_t>{0, 1, 5, 9});
  EXPECT_EQ(p.parts(), 3);
  EXPECT_EQ(p.count(), 9);
  EXPECT_EQ(p.size(0), 1);
  EXPECT_EQ(p.size(1), 4);
  EXPECT_EQ(p.begin(2), 5);
  for (std::int64_t i = 0; i < 9; ++i) {
    const int o = p.ownerOf(i);
    EXPECT_GE(i, p.begin(o));
    EXPECT_LT(i, p.end(o));
  }
}

TEST(CustomPartitionTest, RejectsBadBoundaries) {
  EXPECT_THROW(BlockPartition(std::vector<std::int64_t>{1, 2}),
               InvalidArgumentError);
  EXPECT_THROW(BlockPartition(std::vector<std::int64_t>{0, 3, 2}),
               InvalidArgumentError);
}

// --- Skewed batches -----------------------------------------------------------

TEST(SkewTest, PerTablePoolingHonored) {
  SparseBatchSpec spec;
  spec.num_tables = 3;
  spec.batch_size = 200;
  spec.min_pooling = 1;
  spec.max_pooling = 4;  // ignored when the per-table list is set
  spec.per_table_max_pooling = {1, 8, 64};
  Rng rng(1);
  const auto b = SparseBatch::generateUniform(spec, rng);
  for (std::int64_t s = 0; s < 200; ++s) {
    EXPECT_EQ(b.poolingFactor(0, s), 1);
    EXPECT_LE(b.poolingFactor(1, s), 8);
    EXPECT_LE(b.poolingFactor(2, s), 64);
  }
  // Statistical expectations use the per-table averages.
  const auto stat = SparseBatch::statistical(spec);
  EXPECT_DOUBLE_EQ(stat.totalIndices(0, 1), 200 * 1.0);
  EXPECT_DOUBLE_EQ(stat.totalIndices(2, 1), 200 * 32.5);
}

TEST(SkewTest, MismatchedPerTableListThrows) {
  SparseBatchSpec spec;
  spec.num_tables = 3;
  spec.batch_size = 4;
  spec.per_table_max_pooling = {1, 2};  // wrong arity
  EXPECT_THROW(SparseBatch::statistical(spec), InvalidArgumentError);
}

TEST(SkewTest, BalancedLayerEqualizesLookupWork) {
  gpu::SystemConfig cfg;
  cfg.num_gpus = 4;
  cfg.memory_capacity_bytes = 8LL << 30;
  cfg.mode = gpu::ExecutionMode::kTimingOnly;
  gpu::MultiGpuSystem system(cfg);
  EmbLayerSpec spec;
  spec.total_tables = 32;
  spec.rows_per_table = 1000;
  spec.dim = 16;
  spec.batch_size = 1024;
  spec.min_pooling = 1;
  for (std::int64_t t = 0; t < 32; ++t) {
    spec.table_max_pooling.push_back(t < 4 ? 128 : 4);
  }
  spec.balance_tables = true;
  ShardedEmbeddingLayer layer(system, spec);
  const auto batch = SparseBatch::statistical(spec.batchSpec());
  double max_rows = 0, min_rows = 1e30;
  for (int g = 0; g < 4; ++g) {
    const double rows = layer.lookupWork(batch, g).gathered_rows;
    max_rows = std::max(max_rows, rows);
    min_rows = std::min(min_rows, rows);
  }
  // Contiguous blocks cannot split a hot table, so ~2x is the best
  // achievable here; the naive split is ~4.4x.
  EXPECT_LT(max_rows / min_rows, 2.1);
}

// --- Functional equivalence under skew + balancing ------------------------------

TEST(SkewTest, RetrieversStayEquivalentWithBalancedBoundaries) {
  gpu::SystemConfig cfg;
  cfg.num_gpus = 3;
  cfg.memory_capacity_bytes = 256 << 20;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  gpu::MultiGpuSystem system(cfg);
  fabric::Fabric fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
      3, fabric::LinkParams{}));
  collective::Communicator comm(system, fabric);
  pgas::PgasRuntime runtime(system, fabric);

  EmbLayerSpec spec;
  spec.total_tables = 9;
  spec.rows_per_table = 64;
  spec.dim = 4;
  spec.batch_size = 10;
  spec.min_pooling = 0;
  spec.table_max_pooling = {20, 1, 1, 1, 1, 6, 1, 1, 12};
  spec.balance_tables = true;
  spec.seed = 0x5c3;
  spec.index_space = 1u << 14;
  ShardedEmbeddingLayer layer(system, spec);
  // The balancer must have produced non-uniform blocks.
  EXPECT_NE(layer.sharding().tablesOn(0), layer.sharding().tablesOn(1));

  core::CollectiveRetriever baseline(layer, comm);
  core::PgasFusedRetriever pgas(layer, runtime, {});
  Rng rng(0x5c4);
  const auto batch = SparseBatch::generateUniform(spec.batchSpec(), rng);
  baseline.runBatch(batch);
  pgas.runBatch(batch);
  for (int g = 0; g < 3; ++g) {
    const auto ref = layer.referenceOutput(batch, g);
    const auto n = layer.sharding().outputElements(g, spec.dim);
    const auto a = baseline.output(g).span();
    const auto b = pgas.output(g).span();
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(a[static_cast<std::size_t>(i)],
                ref[static_cast<std::size_t>(i)])
          << "baseline gpu " << g << " elem " << i;
      ASSERT_EQ(b[static_cast<std::size_t>(i)],
                ref[static_cast<std::size_t>(i)])
          << "pgas gpu " << g << " elem " << i;
    }
  }
}

}  // namespace
}  // namespace pgasemb::emb
