// Integration + property tests for the retrievers — the heart of the
// reproduction:
//
//  * FUNCTIONAL EQUIVALENCE: for any (gpus, tables, batch, dim, pooling,
//    seed), the PGAS fused retriever, the collective baseline, and the
//    serial reference produce bit-identical output tensors.
//  * TIMING SHAPE: the baseline pays separable comm + sync/unpack phases
//    while PGAS hides communication inside compute (paper §IV).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "emb/workload.hpp"
#include "util/expect.hpp"

namespace pgasemb::core {
namespace {

struct Rig {
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  collective::Communicator comm;
  pgas::PgasRuntime runtime;

  Rig(int gpus, gpu::ExecutionMode mode)
      : system(makeConfig(gpus, mode)),
        fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
            gpus, fabric::LinkParams{})),
        comm(system, fabric),
        runtime(system, fabric) {}

  static gpu::SystemConfig makeConfig(int gpus, gpu::ExecutionMode mode) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 1 << 30;
    cfg.mode = mode;
    return cfg;
  }
};

std::vector<float> snapshot(gpu::DeviceBuffer& buf, std::int64_t n) {
  const auto s = buf.span();
  return std::vector<float>(s.begin(), s.begin() + n);
}

// --- Functional equivalence: parameterized property sweep --------------------

using EquivParams = std::tuple<int /*gpus*/, int /*tables*/, int /*batch*/,
                               int /*dim*/, int /*max_pool*/,
                               std::uint64_t /*seed*/>;

class RetrieverEquivalence : public ::testing::TestWithParam<EquivParams> {};

TEST_P(RetrieverEquivalence, PgasEqualsBaselineEqualsReference) {
  const auto [gpus, tables, batch_size, dim, max_pool, seed] = GetParam();
  Rig rig(gpus, gpu::ExecutionMode::kFunctional);

  emb::EmbLayerSpec spec;
  spec.total_tables = tables;
  spec.rows_per_table = 64;
  spec.dim = dim;
  spec.batch_size = batch_size;
  spec.min_pooling = 0;  // include NULL inputs
  spec.max_pooling = max_pool;
  spec.seed = seed;
  spec.index_space = 1u << 18;
  emb::ShardedEmbeddingLayer layer(rig.system, spec);

  CollectiveRetriever baseline(layer, rig.comm);
  PgasRetrieverOptions opts;
  opts.slices = 4;
  PgasFusedRetriever pgas(layer, rig.runtime, opts);

  Rng rng(seed ^ 0x1234);
  const auto batch =
      emb::SparseBatch::generateUniform(spec.batchSpec(), rng);

  baseline.runBatch(batch);
  pgas.runBatch(batch);

  for (int g = 0; g < gpus; ++g) {
    const auto n = layer.sharding().outputElements(g, dim);
    const auto ref = layer.referenceOutput(batch, g);
    const auto out_base = snapshot(baseline.output(g), n);
    const auto out_pgas = snapshot(pgas.output(g), n);
    ASSERT_EQ(static_cast<std::int64_t>(ref.size()), n);
    EXPECT_EQ(out_base, ref) << "baseline mismatch on gpu " << g;
    EXPECT_EQ(out_pgas, ref) << "pgas mismatch on gpu " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RetrieverEquivalence,
    ::testing::Values(
        EquivParams{1, 3, 8, 4, 3, 0xa1},
        EquivParams{2, 4, 8, 4, 3, 0xa2},
        EquivParams{2, 5, 9, 8, 5, 0xa3},   // ragged tables + batch
        EquivParams{3, 7, 11, 4, 4, 0xa4},  // everything ragged
        EquivParams{4, 8, 16, 8, 6, 0xa5},
        EquivParams{4, 9, 18, 2, 1, 0xa6},  // tiny dim, pooling <= 1
        EquivParams{4, 16, 32, 16, 8, 0xa7},
        EquivParams{2, 2, 64, 4, 12, 0xa8},  // deep pooling
        EquivParams{3, 12, 12, 4, 0, 0xa9},  // all-NULL inputs
        EquivParams{4, 4, 16, 32, 5, 0xaa},
        EquivParams{2, 6, 10, 4, 7, 0xab},
        EquivParams{3, 3, 27, 8, 2, 0xac},   // fewer tables than... 3 tables over 3 gpus
        EquivParams{4, 32, 64, 4, 4, 0xad},  // many small tables
        EquivParams{2, 4, 8, 64, 3, 0xae},   // paper-like dim 64
        EquivParams{3, 5, 16, 8, 9, 0xaf},
        EquivParams{4, 10, 20, 4, 2, 0xb1}));

// Skew + balanced-boundary variants of the same property.
using SkewParams = std::tuple<int /*gpus*/, bool /*balance*/,
                              std::uint64_t /*seed*/>;
class SkewedEquivalence : public ::testing::TestWithParam<SkewParams> {};

TEST_P(SkewedEquivalence, PgasEqualsBaselineEqualsReference) {
  const auto [gpus, balance, seed] = GetParam();
  Rig rig(gpus, gpu::ExecutionMode::kFunctional);
  emb::EmbLayerSpec spec;
  spec.total_tables = 4 * gpus;
  spec.rows_per_table = 64;
  spec.dim = 8;
  spec.batch_size = 4 * gpus + 3;  // ragged mini-batches
  spec.min_pooling = 0;
  spec.seed = seed;
  spec.index_space = 1u << 16;
  Rng skew_rng(seed ^ 0x77);
  for (std::int64_t t = 0; t < spec.total_tables; ++t) {
    spec.table_max_pooling.push_back(
        static_cast<int>(skew_rng.uniformInt(1, 16)));
  }
  spec.balance_tables = balance;
  emb::ShardedEmbeddingLayer layer(rig.system, spec);
  CollectiveRetriever baseline(layer, rig.comm);
  PgasFusedRetriever pgas(layer, rig.runtime, {});
  Rng rng(seed ^ 0x88);
  const auto batch =
      emb::SparseBatch::generateUniform(spec.batchSpec(), rng);
  baseline.runBatch(batch);
  pgas.runBatch(batch);
  for (int g = 0; g < gpus; ++g) {
    const auto n = layer.sharding().outputElements(g, spec.dim);
    const auto ref = layer.referenceOutput(batch, g);
    EXPECT_EQ(snapshot(baseline.output(g), n), ref) << "baseline gpu " << g;
    EXPECT_EQ(snapshot(pgas.output(g), n), ref) << "pgas gpu " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkewedEquivalence,
    ::testing::Values(SkewParams{2, false, 0xc1}, SkewParams{2, true, 0xc2},
                      SkewParams{3, false, 0xc3}, SkewParams{3, true, 0xc4},
                      SkewParams{4, false, 0xc5}, SkewParams{4, true, 0xc6}));

// --- Row-wise sharding functional path -----------------------------------------

TEST(RowWiseTest, FusedRowWiseMatchesReference) {
  Rig rig(3, gpu::ExecutionMode::kFunctional);
  emb::EmbLayerSpec spec;
  spec.total_tables = 5;
  spec.rows_per_table = 50;
  spec.dim = 4;
  spec.batch_size = 9;
  spec.min_pooling = 0;
  spec.max_pooling = 4;
  spec.seed = 0xb0;
  spec.index_space = 1u << 16;
  emb::ShardedEmbeddingLayer layer(rig.system, spec,
                                   emb::ShardingScheme::kRowWise);
  PgasRetrieverOptions opts;
  opts.slices = 2;
  PgasFusedRetriever pgas(layer, rig.runtime, opts);
  Rng rng(0xb1);
  const auto batch =
      emb::SparseBatch::generateUniform(spec.batchSpec(), rng);
  pgas.runBatch(batch);
  for (int g = 0; g < 3; ++g) {
    const auto n = layer.sharding().outputElements(g, spec.dim);
    const auto ref = layer.referenceOutput(batch, g);
    const auto out = snapshot(pgas.output(g), n);
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[static_cast<std::size_t>(i)],
                  ref[static_cast<std::size_t>(i)], 1e-4f)
          << "gpu " << g << " elem " << i;
    }
  }
}

TEST(RowWiseTest, RepeatedBatchesDoNotAccumulateStaleSums) {
  Rig rig(2, gpu::ExecutionMode::kFunctional);
  emb::EmbLayerSpec spec;
  spec.total_tables = 2;
  spec.rows_per_table = 20;
  spec.dim = 4;
  spec.batch_size = 4;
  spec.min_pooling = 1;
  spec.max_pooling = 2;
  spec.seed = 0xb2;
  spec.index_space = 1u << 10;
  emb::ShardedEmbeddingLayer layer(rig.system, spec,
                                   emb::ShardingScheme::kRowWise);
  PgasFusedRetriever pgas(layer, rig.runtime, {});
  Rng rng(0xb3);
  const auto batch =
      emb::SparseBatch::generateUniform(spec.batchSpec(), rng);
  pgas.runBatch(batch);
  const auto first = snapshot(pgas.output(0),
                              layer.sharding().outputElements(0, spec.dim));
  pgas.runBatch(batch);  // same batch again: outputs must be identical
  const auto second = snapshot(pgas.output(0),
                               layer.sharding().outputElements(0, spec.dim));
  EXPECT_EQ(first, second);
}

TEST(RowWiseTest, BaselineRejectsRowWise) {
  Rig rig(2, gpu::ExecutionMode::kFunctional);
  emb::EmbLayerSpec spec = emb::tinyLayerSpec();
  emb::ShardedEmbeddingLayer layer(rig.system, spec,
                                   emb::ShardingScheme::kRowWise);
  EXPECT_THROW(CollectiveRetriever(layer, rig.comm), InvalidArgumentError);
}

// --- Timing shapes -------------------------------------------------------------

emb::EmbLayerSpec timingSpec(int gpus) {
  emb::EmbLayerSpec spec;
  spec.total_tables = 8LL * gpus;
  spec.rows_per_table = 100000;
  spec.dim = 64;
  spec.batch_size = 4096;
  spec.min_pooling = 1;
  spec.max_pooling = 64;
  spec.seed = 0xc0;
  return spec;
}

TEST(TimingTest, BaselineHasThreePhases) {
  Rig rig(2, gpu::ExecutionMode::kTimingOnly);
  emb::ShardedEmbeddingLayer layer(rig.system, timingSpec(2));
  CollectiveRetriever baseline(layer, rig.comm);
  const auto batch =
      emb::SparseBatch::statistical(timingSpec(2).batchSpec());
  const auto t = baseline.runBatch(batch);
  EXPECT_GT(t.compute_phase, SimTime::zero());
  EXPECT_GT(t.comm_phase, SimTime::zero());
  EXPECT_GT(t.unpack_phase, SimTime::zero());
  EXPECT_GT(t.wire_time, SimTime::zero());
  EXPECT_LT(t.wire_time, t.comm_phase);
  EXPECT_EQ(t.total, t.compute_phase + t.comm_phase + t.unpack_phase);
  // Paper-style 3-way split is consistent.
  EXPECT_EQ(t.compute_phase + t.communication() + t.syncUnpack(), t.total);
}

TEST(TimingTest, PgasIsSinglePhaseAndFasterThanBaseline) {
  Rig rig(2, gpu::ExecutionMode::kTimingOnly);
  emb::ShardedEmbeddingLayer layer(rig.system, timingSpec(2));
  CollectiveRetriever baseline(layer, rig.comm);
  PgasFusedRetriever pgas(layer, rig.runtime, {});
  const auto batch =
      emb::SparseBatch::statistical(timingSpec(2).batchSpec());
  const auto tb = baseline.runBatch(batch);
  const auto tp = pgas.runBatch(batch);
  EXPECT_EQ(tp.total, tp.compute_phase);
  EXPECT_EQ(tp.comm_phase, SimTime::zero());
  EXPECT_LT(tp.total, tb.total);
}

TEST(TimingTest, SingleGpuSchemesAreIdentical) {
  Rig rig(1, gpu::ExecutionMode::kTimingOnly);
  emb::ShardedEmbeddingLayer layer(rig.system, timingSpec(1));
  CollectiveRetriever baseline(layer, rig.comm);
  PgasFusedRetriever pgas(layer, rig.runtime, {});
  const auto batch =
      emb::SparseBatch::statistical(timingSpec(1).batchSpec());
  const auto tb = baseline.runBatch(batch);
  const auto tp = pgas.runBatch(batch);
  EXPECT_EQ(tb.total, tp.total);
  EXPECT_EQ(tb.comm_phase, SimTime::zero());
}

TEST(TimingTest, PgasCommIsOnTheWireDuringCompute) {
  Rig rig(2, gpu::ExecutionMode::kTimingOnly);
  emb::ShardedEmbeddingLayer layer(rig.system, timingSpec(2));
  PgasFusedRetriever pgas(layer, rig.runtime, {});
  const auto batch =
      emb::SparseBatch::statistical(timingSpec(2).batchSpec());
  pgas.runBatch(batch);
  // Injection counter must show traffic in many buckets, not one spike.
  const auto& c = rig.fabric.injectionCounter();
  int nonzero = 0;
  for (std::size_t i = 0; i < c.numBuckets(); ++i) {
    if (c.bucket(i) > 0.0) ++nonzero;
  }
  EXPECT_GE(nonzero, 16);
}

TEST(TimingTest, SchemesMoveSameWireVolume) {
  // Same payload crosses the fabric either way — PGAS just times it
  // differently (no unpack, overlapped).
  for (const bool use_pgas : {false, true}) {
    Rig rig(4, gpu::ExecutionMode::kTimingOnly);
    emb::ShardedEmbeddingLayer layer(rig.system, timingSpec(4));
    const auto batch =
        emb::SparseBatch::statistical(timingSpec(4).batchSpec());
    std::int64_t expected = 0;
    for (int g = 0; g < 4; ++g) {
      expected += layer.lookupWork(batch, g).remoteOutputs(g) * 64 * 4;
    }
    if (use_pgas) {
      PgasFusedRetriever pgas(layer, rig.runtime, {});
      pgas.runBatch(batch);
    } else {
      CollectiveRetriever baseline(layer, rig.comm);
      baseline.runBatch(batch);
    }
    EXPECT_EQ(rig.fabric.totalPayloadBytes(), expected);
  }
}

TEST(TimingTest, RetrieverStatsAccumulate) {
  RetrieverStats stats;
  BatchTiming t;
  t.total = SimTime::ms(2);
  t.compute_phase = SimTime::ms(1);
  t.comm_phase = SimTime::ms(0.6);
  t.unpack_phase = SimTime::ms(0.4);
  t.wire_time = SimTime::ms(0.5);
  stats.add(t);
  stats.add(t);
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.total, SimTime::ms(4));
  EXPECT_EQ(stats.communication(), SimTime::ms(1));
  EXPECT_EQ(stats.syncUnpack(), SimTime::ms(1));
}

TEST(MemoryTest, RetrieverBuffersFitAccounting) {
  Rig rig(2, gpu::ExecutionMode::kTimingOnly);
  auto spec = timingSpec(2);
  emb::ShardedEmbeddingLayer layer(rig.system, spec);
  const std::int64_t tables_only = rig.system.device(0).memoryUsedBytes();
  {
    CollectiveRetriever baseline(layer, rig.comm);
    EXPECT_GT(rig.system.device(0).memoryUsedBytes(), tables_only);
  }
  EXPECT_EQ(rig.system.device(0).memoryUsedBytes(), tables_only);
}

TEST(MemoryTest, PaperScaleTablesExceedSingleGpuAtWeak4) {
  // The paper's motivation: 4 GPUs' worth of weak-scaling tables
  // (4 x 16 GiB) cannot fit one 32 GiB V100.
  Rig rig(1, gpu::ExecutionMode::kTimingOnly);
  emb::EmbLayerSpec spec = emb::weakScalingLayerSpec(4);
  gpu::SystemConfig cfg = Rig::makeConfig(1, gpu::ExecutionMode::kTimingOnly);
  cfg.memory_capacity_bytes = 32LL << 30;
  gpu::MultiGpuSystem one(cfg);
  EXPECT_THROW(emb::ShardedEmbeddingLayer(one, spec), OutOfMemoryError);
}

}  // namespace
}  // namespace pgasemb::core
