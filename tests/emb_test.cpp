// Unit tests for the embedding-table library: hashing, sparse batches,
// tables (dense vs procedural equivalence), sharding math, layer
// reference semantics, and kernel workload descriptors.
#include <gtest/gtest.h>

#include "emb/hashing.hpp"
#include "emb/layer.hpp"
#include "emb/lookup_kernel.hpp"
#include "emb/sharding.hpp"
#include "emb/sparse_batch.hpp"
#include "emb/table.hpp"
#include "emb/unpack_kernel.hpp"
#include "emb/workload.hpp"
#include "util/expect.hpp"

namespace pgasemb::emb {
namespace {

gpu::SystemConfig funcConfig(int gpus) {
  gpu::SystemConfig cfg;
  cfg.num_gpus = gpus;
  cfg.memory_capacity_bytes = 256 << 20;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  return cfg;
}

// --- Hashing -----------------------------------------------------------------

TEST(HashingTest, InRangeAndDeterministic) {
  const auto seed = tableSeed(1, 2);
  for (std::uint64_t raw = 0; raw < 1000; ++raw) {
    const auto r = hashIndex(raw, seed, 97);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 97);
    EXPECT_EQ(r, hashIndex(raw, seed, 97));
  }
}

TEST(HashingTest, TablesHashIndependently) {
  const auto s1 = tableSeed(42, 0);
  const auto s2 = tableSeed(42, 1);
  int same = 0;
  for (std::uint64_t raw = 0; raw < 256; ++raw) {
    if (hashIndex(raw, s1, 1 << 20) == hashIndex(raw, s2, 1 << 20)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(HashingTest, HashSpreadsOverRows) {
  const auto seed = tableSeed(7, 7);
  std::vector<int> hits(16, 0);
  for (std::uint64_t raw = 0; raw < 16000; ++raw) {
    ++hits[static_cast<std::size_t>(hashIndex(raw, seed, 16))];
  }
  for (int h : hits) EXPECT_NEAR(h, 1000, 150);
}

TEST(HashingTest, ProceduralWeightsBoundedAndStable) {
  const auto seed = tableSeed(3, 4);
  for (std::int64_t r = 0; r < 100; ++r) {
    for (int c = 0; c < 8; ++c) {
      const float w = proceduralWeight(seed, r, c);
      EXPECT_GE(w, -1.0f);
      EXPECT_LT(w, 1.0f);
      EXPECT_EQ(w, proceduralWeight(seed, r, c));
    }
  }
}

// --- SparseBatch ----------------------------------------------------------------

TEST(SparseBatchTest, GenerateUniformShapes) {
  Rng rng(1);
  SparseBatchSpec spec{4, 10, 1, 5, 1000, {}};
  const auto b = SparseBatch::generateUniform(spec, rng);
  EXPECT_TRUE(b.materialized());
  for (std::int64_t t = 0; t < 4; ++t) {
    const auto offs = b.offsets(t);
    ASSERT_EQ(offs.size(), 11u);
    EXPECT_EQ(offs[0], 0);
    for (std::int64_t s = 0; s < 10; ++s) {
      const auto bag = b.poolingFactor(t, s);
      EXPECT_GE(bag, 1);
      EXPECT_LE(bag, 5);
    }
    EXPECT_EQ(offs[10], b.tableIndexCount(t));
  }
}

TEST(SparseBatchTest, NullInputsAllowed) {
  Rng rng(2);
  SparseBatchSpec spec{2, 400, 0, 1, 1000, {}};
  const auto b = SparseBatch::generateUniform(spec, rng);
  int empties = 0;
  for (std::int64_t s = 0; s < 400; ++s) {
    if (b.poolingFactor(0, s) == 0) ++empties;
  }
  EXPECT_GT(empties, 100);  // ~half expected
}

TEST(SparseBatchTest, StatisticalMatchesExpectation) {
  SparseBatchSpec spec{8, 100, 1, 127, 1000, {}};
  const auto b = SparseBatch::statistical(spec);
  EXPECT_FALSE(b.materialized());
  EXPECT_DOUBLE_EQ(b.totalIndices(0, 8), 8 * 100 * 64.0);
  EXPECT_THROW(b.offsets(0), InvalidArgumentError);
}

TEST(SparseBatchTest, MaterializedCountsAreExact) {
  Rng rng(3);
  SparseBatchSpec spec{3, 50, 2, 2, 1000, {}};  // fixed pooling of 2
  const auto b = SparseBatch::generateUniform(spec, rng);
  EXPECT_DOUBLE_EQ(b.totalIndices(0, 3), 3 * 50 * 2.0);
  EXPECT_DOUBLE_EQ(b.totalIndices(1, 1), 50 * 2.0);
}

TEST(SparseBatchTest, InvalidSpecThrows) {
  Rng rng(4);
  SparseBatchSpec bad{0, 10, 1, 4, 100, {}};
  EXPECT_THROW(SparseBatch::generateUniform(bad, rng),
               InvalidArgumentError);
  SparseBatchSpec bad2{1, 10, 5, 4, 100, {}};  // max < min
  EXPECT_THROW(SparseBatch::statistical(bad2), InvalidArgumentError);
}

// --- EmbeddingTable ---------------------------------------------------------------

TEST(EmbeddingTableTest, DenseAndProceduralAgree) {
  gpu::Device dev(0, 1 << 20, gpu::ExecutionMode::kFunctional);
  const TableConfig cfg{50, 8};
  EmbeddingTable dense(dev, cfg, 123, TableStorage::kDense);
  EmbeddingTable proc(dev, cfg, 123, TableStorage::kProcedural);
  for (std::int64_t r = 0; r < 50; ++r) {
    for (int c = 0; c < 8; ++c) {
      EXPECT_EQ(dense.weight(r, c), proc.weight(r, c));
    }
  }
  dense.release(dev);
  proc.release(dev);
}

TEST(EmbeddingTableTest, AccumulateRowSums) {
  gpu::Device dev(0, 1 << 20, gpu::ExecutionMode::kFunctional);
  EmbeddingTable t(dev, {10, 4}, 9, TableStorage::kDense);
  std::vector<float> acc(4, 0.0f);
  t.accumulateRow(3, acc);
  t.accumulateRow(3, acc);
  for (int c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ(acc[static_cast<std::size_t>(c)], 2 * t.weight(3, c));
  }
  t.release(dev);
}

TEST(EmbeddingTableTest, GradientUpdateChangesDenseWeights) {
  gpu::Device dev(0, 1 << 20, gpu::ExecutionMode::kFunctional);
  EmbeddingTable t(dev, {10, 4}, 9, TableStorage::kDense);
  const float before = t.weight(2, 1);
  const std::vector<float> grad{0.0f, 1.0f, 0.0f, 0.0f};
  t.applyGradient(2, grad, 0.5f);
  EXPECT_FLOAT_EQ(t.weight(2, 1), before - 0.5f);
  t.release(dev);
}

TEST(EmbeddingTableTest, GradientOnProceduralThrows) {
  EmbeddingTable t({10, 4}, 9);
  const std::vector<float> grad(4, 0.0f);
  EXPECT_THROW(t.applyGradient(0, grad, 0.1f), InvalidArgumentError);
}

TEST(EmbeddingTableTest, OutOfRangeAccessThrows) {
  EmbeddingTable t({10, 4}, 9);
  EXPECT_THROW(t.weight(10, 0), InvalidArgumentError);
  EXPECT_THROW(t.weight(0, 4), InvalidArgumentError);
}

// --- Sharding ----------------------------------------------------------------

TEST(BlockPartitionTest, EvenSplit) {
  BlockPartition p(12, 4);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(p.size(k), 3);
    EXPECT_EQ(p.begin(k), 3 * k);
  }
  EXPECT_EQ(p.ownerOf(0), 0);
  EXPECT_EQ(p.ownerOf(11), 3);
}

TEST(BlockPartitionTest, RaggedSplitCoversAllItems) {
  BlockPartition p(16384, 3);  // the paper's batch over 3 GPUs
  EXPECT_EQ(p.size(0), 5462);
  EXPECT_EQ(p.size(1), 5461);
  EXPECT_EQ(p.size(2), 5461);
  std::int64_t covered = 0;
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(p.begin(k), covered);
    covered += p.size(k);
    EXPECT_EQ(p.end(k), covered);
  }
  EXPECT_EQ(covered, 16384);
}

TEST(BlockPartitionTest, OwnerOfIsConsistentWithRanges) {
  BlockPartition p(100, 7);
  for (std::int64_t i = 0; i < 100; ++i) {
    const int o = p.ownerOf(i);
    EXPECT_GE(i, p.begin(o));
    EXPECT_LT(i, p.end(o));
  }
}

TEST(ShardingTest, TableOwnershipIsBlockwise) {
  Sharding sh(8, 16, 4);
  EXPECT_EQ(sh.tablesOn(0), 2);
  EXPECT_EQ(sh.tableOwner(0), 0);
  EXPECT_EQ(sh.tableOwner(7), 3);
  EXPECT_EQ(sh.firstTableOn(2), 4);
}

TEST(ShardingTest, OutputIndexRoundTrips) {
  Sharding sh(3, 8, 2);
  const int dim = 4;
  // Sample 5 belongs to GPU 1 (mini-batch begins at 4).
  EXPECT_EQ(sh.sampleOwner(5), 1);
  const auto idx = sh.outputIndex(5, 2, 3, dim);
  EXPECT_EQ(idx, ((5 - 4) * 3 + 2) * 4 + 3);
  EXPECT_EQ(sh.outputElements(1, dim), 4 * 3 * 4);
}

// --- Layer + kernels ----------------------------------------------------------

TEST(LayerTest, ReferencePoolingMatchesManualSum) {
  gpu::MultiGpuSystem sys(funcConfig(2));
  auto spec = tinyLayerSpec();
  ShardedEmbeddingLayer layer(sys, spec);
  Rng rng(5);
  const auto batch = SparseBatch::generateUniform(spec.batchSpec(), rng);
  const auto offs = batch.offsets(0);
  const auto idxs = batch.indices(0);
  std::vector<float> expect(static_cast<std::size_t>(spec.dim), 0.0f);
  for (std::int64_t i = offs[0]; i < offs[1]; ++i) {
    const auto row = layer.hashedRow(0, idxs[static_cast<std::size_t>(i)]);
    layer.table(0).accumulateRow(row, expect);
  }
  EXPECT_EQ(layer.pooledValue(batch, 0, 0), expect);
}

TEST(LayerTest, EmptyBagPoolsToZero) {
  gpu::MultiGpuSystem sys(funcConfig(2));
  auto spec = tinyLayerSpec();
  spec.min_pooling = 0;
  spec.max_pooling = 0;  // force all-NULL inputs
  ShardedEmbeddingLayer layer(sys, spec);
  Rng rng(6);
  const auto batch = SparseBatch::generateUniform(spec.batchSpec(), rng);
  for (float v : layer.pooledValue(batch, 0, 0)) EXPECT_EQ(v, 0.0f);
}

TEST(LayerTest, RowWisePartialSumsAddUpToFullPooling) {
  gpu::MultiGpuSystem sys(funcConfig(3));
  auto spec = tinyLayerSpec();
  ShardedEmbeddingLayer layer(sys, spec, ShardingScheme::kRowWise);
  Rng rng(7);
  const auto batch = SparseBatch::generateUniform(spec.batchSpec(), rng);
  for (std::int64_t t = 0; t < spec.total_tables; ++t) {
    for (std::int64_t s = 0; s < spec.batch_size; ++s) {
      const auto full = layer.pooledValue(batch, t, s);
      std::vector<float> sum(static_cast<std::size_t>(spec.dim), 0.0f);
      for (int g = 0; g < 3; ++g) {
        const auto part = layer.partialPooledValue(batch, t, s, g);
        for (int c = 0; c < spec.dim; ++c) {
          sum[static_cast<std::size_t>(c)] +=
              part[static_cast<std::size_t>(c)];
        }
      }
      for (int c = 0; c < spec.dim; ++c) {
        EXPECT_NEAR(sum[static_cast<std::size_t>(c)],
                    full[static_cast<std::size_t>(c)], 1e-4);
      }
    }
  }
}

TEST(LayerTest, LookupWorkMatchesBatchCounts) {
  gpu::MultiGpuSystem sys(funcConfig(2));
  const auto spec = tinyLayerSpec();
  ShardedEmbeddingLayer layer(sys, spec);
  Rng rng(8);
  const auto batch = SparseBatch::generateUniform(spec.batchSpec(), rng);
  const auto work = layer.lookupWork(batch, 0);
  EXPECT_DOUBLE_EQ(work.gathered_rows,
                   batch.totalIndices(0, layer.sharding().tablesOn(0)));
  EXPECT_EQ(work.totalOutputs(),
            layer.sharding().tablesOn(0) * spec.batch_size);
}

TEST(LayerTest, TableMemoryChargedToOwner) {
  gpu::MultiGpuSystem sys(funcConfig(2));
  const auto spec = tinyLayerSpec();
  {
    ShardedEmbeddingLayer layer(sys, spec);
    const std::int64_t per_table = spec.rows_per_table * spec.dim * 4;
    EXPECT_EQ(sys.device(0).memoryUsedBytes(), 4 * per_table);
    EXPECT_EQ(sys.device(1).memoryUsedBytes(), 4 * per_table);
  }
  // Destructor releases the tables.
  EXPECT_EQ(sys.device(0).memoryUsedBytes(), 0);
}

TEST(LayerTest, PaperWeakSpecFitsIn32GB) {
  const auto spec = weakScalingLayerSpec(4);
  // 64 tables/GPU x 1M x 64 x 4B = 16 GiB of tables per GPU.
  EXPECT_EQ(spec.tableBytesPerGpu(4), 64LL * 1000000 * 64 * 4);
  EXPECT_LT(spec.tableBytesPerGpu(4), 32LL << 30);
}

TEST(LayerTest, PaperStrongSpecSizedByOneGpu) {
  const auto spec = strongScalingLayerSpec();
  // 96 x 1M x 64 x 4B ~ 24.6 GB — fits one 32 GB V100, as the paper says
  // the total workload is limited by single-GPU memory.
  EXPECT_LT(spec.tableBytesPerGpu(1), 32LL << 30);
  EXPECT_GT(spec.tableBytesPerGpu(1), 20LL << 30);
}

TEST(KernelTest, SendAndRecvBufferIndicesAreBijective) {
  Sharding sh(6, 9, 3);
  const int dim = 2;
  // Every (gpu, local table, sample, col) maps into [0, elements) and
  // distinct tuples map to distinct offsets.
  for (int g = 0; g < 3; ++g) {
    std::vector<bool> seen(
        static_cast<std::size_t>(sendBufferElements(sh, g, dim)), false);
    for (std::int64_t lt = 0; lt < sh.tablesOn(g); ++lt) {
      for (std::int64_t b = 0; b < 9; ++b) {
        for (int c = 0; c < dim; ++c) {
          const auto idx = sendBufferIndex(sh, g, lt, b, c, dim);
          ASSERT_GE(idx, 0);
          ASSERT_LT(idx, sendBufferElements(sh, g, dim));
          ASSERT_FALSE(seen[static_cast<std::size_t>(idx)]);
          seen[static_cast<std::size_t>(idx)] = true;
        }
      }
    }
  }
  for (int d = 0; d < 3; ++d) {
    std::vector<bool> seen(
        static_cast<std::size_t>(recvBufferElements(sh, d, dim)), false);
    for (int src = 0; src < 3; ++src) {
      for (std::int64_t lt = 0; lt < sh.tablesOn(src); ++lt) {
        for (std::int64_t s = 0; s < sh.miniBatchSize(d); ++s) {
          for (int c = 0; c < dim; ++c) {
            const auto idx = recvBufferIndex(sh, d, src, lt, s, c, dim);
            ASSERT_GE(idx, 0);
            ASSERT_LT(idx, recvBufferElements(sh, d, dim));
            ASSERT_FALSE(seen[static_cast<std::size_t>(idx)]);
            seen[static_cast<std::size_t>(idx)] = true;
          }
        }
      }
    }
  }
}

TEST(KernelTest, FusedPlanVolumeMatchesRemoteOutputs) {
  gpu::MultiGpuSystem sys(funcConfig(2));
  const auto spec = tinyLayerSpec();
  ShardedEmbeddingLayer layer(sys, spec);
  Rng rng(9);
  const auto batch = SparseBatch::generateUniform(spec.batchSpec(), rng);
  auto fused = buildFusedLookupKernel(layer, batch, 0, nullptr, 8);
  const auto work = layer.lookupWork(batch, 0);
  const std::int64_t remote_bytes = work.remoteOutputs(0) * spec.dim * 4;
  EXPECT_EQ(fused.plan.totalPayloadBytes(), remote_bytes);
  // The flows the runtime emits, slice by slice, carry the same volume.
  pgas::SliceCursor cursor(fused.plan);
  std::int64_t sent = 0;
  for (int s = 0; s < fused.plan.slices; ++s) {
    for (const auto& f : cursor.slice(s)) sent += f.payload_bytes;
  }
  EXPECT_EQ(sent, remote_bytes);
}

TEST(KernelTest, ComputeTimeGrowsWithPooling) {
  // Above the gather-saturation knee, compute time scales with the
  // gathered volume (i.e. with the pooling factor).
  gpu::SystemConfig cfg;
  cfg.num_gpus = 2;
  cfg.memory_capacity_bytes = 64LL << 30;
  cfg.mode = gpu::ExecutionMode::kTimingOnly;
  gpu::MultiGpuSystem sys(cfg);
  auto small = weakScalingLayerSpec(2);
  small.min_pooling = small.max_pooling = 32;
  auto big = weakScalingLayerSpec(2);
  big.min_pooling = big.max_pooling = 128;
  ShardedEmbeddingLayer layer(sys, small);
  const auto b1 = SparseBatch::statistical(small.batchSpec());
  const auto b2 = SparseBatch::statistical(big.batchSpec());
  const auto t1 = lookupComputeTime(layer, layer.lookupWork(b1, 0));
  const auto t2 = lookupComputeTime(layer, layer.lookupWork(b2, 0));
  EXPECT_GT(t2, t1 * 3);
  EXPECT_LT(t2, t1 * 5);
}

}  // namespace
}  // namespace pgasemb::emb
