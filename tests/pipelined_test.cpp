// Tests for the collective baseline at pipeline depth 2 or more.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "core/registry.hpp"
#include "engine/scenario_runner.hpp"
#include "engine/system_builder.hpp"
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

double amortizedMs(Rig& rig, EmbeddingRetriever& retriever, int batches) {
  const auto batch = emb::SparseBatch::statistical(Rig::spec().batchSpec());
  const SimTime t0 = rig.system.hostNow();
  for (int b = 0; b < batches; ++b) retriever.runBatch(batch);
  retriever.finish();
  return (rig.system.hostNow() - t0).toMs() / batches;
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
    CollectiveRetriever r(rig.layer, rig.comm, 2);
    piped = amortizedMs(rig, r, batches);
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
    CollectiveRetriever r(rig.layer, rig.comm, 2);
    d2 = amortizedMs(rig, r, 10);
  }
  {
    Rig rig(4);
    CollectiveRetriever r(rig.layer, rig.comm, 3);
    d3 = amortizedMs(rig, r, 10);
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
  CollectiveRetriever piped(piped_rig.layer, piped_rig.comm, 2);
  const auto piped_bufs =
      piped_rig.system.device(0).memoryUsedBytes() - before_piped;
  EXPECT_EQ(piped_bufs, 2 * bulk_bufs);
}

TEST(PipelinedTest, DrainIsIdempotent) {
  Rig rig(2);
  CollectiveRetriever r(rig.layer, rig.comm, 2);
  const auto batch = emb::SparseBatch::statistical(Rig::spec().batchSpec());
  r.runBatch(batch);
  EXPECT_GT(r.finish(), SimTime::zero());
  const SimTime t1 = rig.system.hostNow();
  // Nothing is left in flight: no sync is charged.
  EXPECT_EQ(r.finish(), SimTime::zero());
  EXPECT_EQ(rig.system.hostNow(), t1);
}


TEST(PipelinedTest, DepthOneIsTheBlockingPath) {
  // nccl_pipelined at depth 1 is nccl_collective: it syncs every batch,
  // so no buffer is reused while in flight, and every batch times
  // exactly as the collective's.
  engine::ExperimentConfig cfg = engine::weakScalingConfig(4);
  cfg.num_batches = 3;
  cfg.pipeline_depth = 1;
  cfg.simsan = true;
  const auto piped = engine::ScenarioRunner(cfg).run("nccl_pipelined");
  const auto bulk = engine::ScenarioRunner(cfg).run("nccl_collective");
  ASSERT_TRUE(piped.sanitizer.has_value());
  EXPECT_TRUE(piped.sanitizer->clean()) << piped.sanitizer->report();
  ASSERT_EQ(piped.per_batch.size(), bulk.per_batch.size());
  for (std::size_t b = 0; b < bulk.per_batch.size(); ++b) {
    const auto& p = piped.per_batch[b];
    const auto& c = bulk.per_batch[b];
    EXPECT_EQ(p.total, c.total) << "batch " << b;
    EXPECT_EQ(p.compute_phase, c.compute_phase) << "batch " << b;
    EXPECT_EQ(p.comm_phase, c.comm_phase) << "batch " << b;
    EXPECT_EQ(p.unpack_phase, c.unpack_phase) << "batch " << b;
    EXPECT_EQ(p.wire_time, c.wire_time) << "batch " << b;
  }
  EXPECT_EQ(piped.stats.total, bulk.stats.total);
}

// --- Functional mode -------------------------------------------------------

engine::ExperimentConfig functionalConfig(int gpus, int depth, bool cached) {
  engine::ExperimentConfig cfg;
  cfg.num_gpus = gpus;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.pipeline_depth = depth;
  cfg.layer.total_tables = 16;
  cfg.layer.rows_per_table = 256;
  cfg.layer.dim = 8;
  cfg.layer.batch_size = 24;
  cfg.layer.min_pooling = 0;
  cfg.layer.max_pooling = 6;
  cfg.layer.index_space = 1u << 10;
  cfg.layer.zipf_alpha = 0.9;
  cfg.cache_rows = cached ? 32 : 0;
  return cfg;
}

/// Runs `batches` fresh batches through `name`, each destroyed right
/// after runBatch() (as ScenarioRunner's Functional loop does), then
/// finish(); returns the last batch and every GPU's output.
struct LastBatch {
  emb::SparseBatch batch;
  std::vector<std::vector<float>> outputs;
};
LastBatch runFunctional(engine::SystemBuilder& builder,
                        const std::string& name, int batches) {
  const auto& cfg = builder.config();
  auto retriever =
      RetrieverRegistry::instance().create(name, builder.context());
  Rng rng(0x9e11);
  auto last = emb::SparseBatch::statistical(cfg.layer.batchSpec());
  for (int b = 0; b < batches; ++b) {
    const auto batch =
        emb::SparseBatch::generateUniform(cfg.layer.batchSpec(), rng);
    retriever->runBatch(batch);
    last = batch;
  }
  retriever->finish();
  LastBatch out{last, {}};
  for (int g = 0; g < cfg.num_gpus; ++g) {
    const auto n = builder.layer().sharding().outputElements(g, cfg.layer.dim);
    const auto s = retriever->output(g).span();
    out.outputs.emplace_back(s.begin(), s.begin() + n);
  }
  return out;
}

TEST(PipelinedTest, FunctionalOutputsMatchTheSerialReference) {
  // depth + 1 batches in flight before finish(): the last batch reuses
  // the first batch's slot before any kernel body has run.
  for (const int depth : {2, 3}) {
    for (const int gpus : {2, 4, 8}) {
      for (const bool cached : {false, true}) {
        const std::string what = "depth " + std::to_string(depth) + ", " +
                                 std::to_string(gpus) + " GPUs" +
                                 (cached ? ", cached" : "");
        engine::SystemBuilder builder(functionalConfig(gpus, depth, cached));
        ASSERT_EQ(builder.cache() != nullptr, cached) << what;
        const LastBatch run =
            runFunctional(builder, "nccl_pipelined", depth + 1);
        for (int g = 0; g < gpus; ++g) {
          EXPECT_EQ(run.outputs[static_cast<std::size_t>(g)],
                    builder.layer().referenceOutput(run.batch, g))
              << what << ", gpu " << g;
        }
      }
    }
  }
}

TEST(PipelinedTest, FunctionalHierarchicalCompressedMatchesCollective) {
  // 2 nodes x 2 GPUs, hierarchical routing with the codec: the pipeline
  // lands the same transcoded values the blocking exchange does.
  engine::ExperimentConfig cfg = functionalConfig(4, 2, false);
  cfg.num_nodes = 2;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5.0);
  cfg.hierarchical_a2a = true;
  cfg.compress_bound = 1e-2;
  for (const int depth : {2, 3}) {
    cfg.pipeline_depth = depth;
    engine::SystemBuilder bulk_builder(cfg);
    const LastBatch bulk =
        runFunctional(bulk_builder, "nccl_collective", depth + 1);
    engine::SystemBuilder piped_builder(cfg);
    const LastBatch piped =
        runFunctional(piped_builder, "nccl_pipelined", depth + 1);
    ASSERT_NE(piped_builder.context().route, nullptr);
    ASSERT_NE(piped_builder.codec(), nullptr);
    EXPECT_EQ(piped.outputs, bulk.outputs) << "depth " << depth;
  }
}

}  // namespace
}  // namespace pgasemb::core
