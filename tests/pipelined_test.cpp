// Tests for the inter-batch pipelined collective baseline.
#include <gtest/gtest.h>

#include <memory>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "core/pipelined_retriever.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "util/expect.hpp"

namespace pgasemb::core {
namespace {

struct Rig {
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  collective::Communicator comm;
  pgas::PgasRuntime runtime;
  emb::ShardedEmbeddingLayer layer;

  explicit Rig(int gpus, gpu::ExecutionMode mode =
                             gpu::ExecutionMode::kTimingOnly)
      : system(config(gpus, mode)),
        fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
            gpus, fabric::LinkParams{})),
        comm(system, fabric),
        runtime(system, fabric),
        layer(system, spec()) {}

  static gpu::SystemConfig config(int gpus, gpu::ExecutionMode mode) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 8LL << 30;
    cfg.mode = mode;
    return cfg;
  }
  static emb::EmbLayerSpec spec() {
    emb::EmbLayerSpec s;
    s.total_tables = 16;
    s.rows_per_table = 100000;
    s.dim = 64;
    s.batch_size = 8192;
    s.min_pooling = 1;
    s.max_pooling = 64;
    s.seed = 0x919e;
    return s;
  }
};

double amortizedMs(Rig& rig, EmbeddingRetriever& retriever, int batches,
                   PipelinedCollectiveRetriever* pipelined = nullptr) {
  const auto batch = emb::SparseBatch::statistical(Rig::spec().batchSpec());
  const SimTime t0 = rig.system.hostNow();
  for (int b = 0; b < batches; ++b) retriever.runBatch(batch);
  const SimTime t1 =
      pipelined != nullptr ? pipelined->drain() : rig.system.syncAll();
  return (t1 - t0).toMs() / batches;
}

TEST(PipelinedTest, HidesWireTimeButKeepsUnpack) {
  const int batches = 12;
  double bulk, piped, pgas;
  core::BatchTiming bulk_timing;
  {
    Rig rig(4);
    CollectiveRetriever r(rig.layer, rig.comm);
    const auto batch =
        emb::SparseBatch::statistical(Rig::spec().batchSpec());
    bulk_timing = r.runBatch(batch);
    bulk = amortizedMs(rig, r, batches);
  }
  {
    Rig rig(4);
    PipelinedCollectiveRetriever r(rig.layer, rig.comm, 2);
    piped = amortizedMs(rig, r, batches, &r);
  }
  {
    Rig rig(4);
    PgasFusedRetriever r(rig.layer, rig.runtime, {});
    pgas = amortizedMs(rig, r, batches);
  }
  // Better than bulk-sync, worse than PGAS (the unpack survives).
  EXPECT_LT(piped, bulk);
  EXPECT_GT(piped, pgas);
  // The win is roughly the hidden wire time.
  EXPECT_NEAR(bulk - piped, bulk_timing.communication().toMs(),
              bulk_timing.communication().toMs() * 0.6);
}

TEST(PipelinedTest, DeeperPipelineNeverSlower) {
  double d2, d3;
  {
    Rig rig(4);
    PipelinedCollectiveRetriever r(rig.layer, rig.comm, 2);
    d2 = amortizedMs(rig, r, 10, &r);
  }
  {
    Rig rig(4);
    PipelinedCollectiveRetriever r(rig.layer, rig.comm, 3);
    d3 = amortizedMs(rig, r, 10, &r);
  }
  EXPECT_LE(d3, d2 * 1.01);
}

TEST(PipelinedTest, ChargesExtraBufferMemory) {
  Rig bulk_rig(2);
  Rig piped_rig(2);
  const auto before_bulk = bulk_rig.system.device(0).memoryUsedBytes();
  CollectiveRetriever bulk(bulk_rig.layer, bulk_rig.comm);
  const auto bulk_bufs =
      bulk_rig.system.device(0).memoryUsedBytes() - before_bulk;
  const auto before_piped = piped_rig.system.device(0).memoryUsedBytes();
  PipelinedCollectiveRetriever piped(piped_rig.layer, piped_rig.comm, 2);
  const auto piped_bufs =
      piped_rig.system.device(0).memoryUsedBytes() - before_piped;
  EXPECT_EQ(piped_bufs, 2 * bulk_bufs);
}

TEST(PipelinedTest, RejectsFunctionalMode) {
  Rig rig(2, gpu::ExecutionMode::kFunctional);
  EXPECT_THROW(PipelinedCollectiveRetriever(rig.layer, rig.comm, 2),
               InvalidArgumentError);
}

TEST(PipelinedTest, DrainIsIdempotent) {
  Rig rig(2);
  PipelinedCollectiveRetriever r(rig.layer, rig.comm, 2);
  const auto batch = emb::SparseBatch::statistical(Rig::spec().batchSpec());
  r.runBatch(batch);
  const SimTime t1 = r.drain();
  const SimTime t2 = r.drain();
  EXPECT_GE(t2, t1);
  EXPECT_LT(t2 - t1, SimTime::us(100));  // just sync overhead
}

}  // namespace
}  // namespace pgasemb::core
