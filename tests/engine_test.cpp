// Tests for the engine layer: the retriever registry, the shared
// finish() lifecycle, SystemBuilder reuse, and — most importantly — the
// golden parity between ScenarioRunner and a hand-assembled system
// running the pre-refactor control flow (the simulation is
// deterministic, so the refactor must be byte-identical).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "core/registry.hpp"
#include "engine/scenario_runner.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "util/expect.hpp"

namespace pgasemb {
namespace {

engine::ExperimentConfig quickWeak(int gpus, int batches = 3) {
  auto cfg = engine::weakScalingConfig(gpus);
  cfg.num_batches = batches;
  return cfg;
}

TEST(RegistryTest, BuiltinsAreRegistered) {
  auto& reg = core::RetrieverRegistry::instance();
  EXPECT_TRUE(reg.contains("nccl_collective"));
  EXPECT_TRUE(reg.contains("pgas_fused"));
  EXPECT_TRUE(reg.contains("nccl_pipelined"));
  EXPECT_FALSE(reg.contains("nccl_baseline"));
  const auto names = reg.names();
  // names() lists every registered name, sorted.
  EXPECT_NE(std::find(names.begin(), names.end(), "nccl_collective"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "pgas_fused"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "nccl_pipelined"),
            names.end());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(RegistryTest, CreateRoundTripsEveryBuiltin) {
  engine::SystemBuilder builder(quickWeak(2, 1));
  auto& reg = core::RetrieverRegistry::instance();
  for (const auto& name : reg.names()) {
    builder.reset();
    auto retriever = reg.create(name, builder.context());
    ASSERT_NE(retriever, nullptr) << name;
    EXPECT_EQ(retriever->name(), name);
  }
}

TEST(RegistryTest, EveryBuiltinRejectsAnOutputGpuOutOfRange) {
  engine::SystemBuilder builder(quickWeak(2, 1));
  auto& reg = core::RetrieverRegistry::instance();
  for (const auto& name : reg.names()) {
    builder.reset();
    auto retriever = reg.create(name, builder.context());
    EXPECT_NO_THROW(retriever->output(1)) << name;
    EXPECT_THROW(retriever->output(-1), InvalidArgumentError) << name;
    EXPECT_THROW(retriever->output(2), InvalidArgumentError) << name;
  }
}

TEST(RegistryTest, UnknownNameThrowsListingKnownNames) {
  engine::SystemBuilder builder(quickWeak(2, 1));
  try {
    core::RetrieverRegistry::instance().create("no_such_scheme",
                                               builder.context());
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_scheme"), std::string::npos);
    EXPECT_NE(what.find("nccl_collective"), std::string::npos);
    EXPECT_NE(what.find("pgas_fused"), std::string::npos);
  }
}

TEST(RegistryTest, CustomFactoryRegistersAndResolves) {
  auto& reg = core::RetrieverRegistry::instance();
  const std::string name = "custom_collective_for_test";
  ASSERT_FALSE(reg.contains(name));
  core::RetrieverRegistrar registrar{
      name, [](const core::SystemContext& ctx)
                -> std::unique_ptr<core::EmbeddingRetriever> {
        return std::make_unique<core::CollectiveRetriever>(ctx.layer,
                                                           ctx.comm);
      }};
  EXPECT_TRUE(reg.contains(name));
  // The registered strategy runs through the full ScenarioRunner path.
  const auto custom = engine::ScenarioRunner(quickWeak(2, 1)).run(name);
  const auto builtin =
      engine::ScenarioRunner(quickWeak(2, 1)).run("nccl_collective");
  EXPECT_EQ(custom.stats.total, builtin.stats.total);
}

TEST(FinishLifecycleTest, DefaultFinishIsZero) {
  engine::SystemBuilder builder(quickWeak(2, 1));
  auto& reg = core::RetrieverRegistry::instance();
  for (const std::string name : {"nccl_collective", "pgas_fused"}) {
    builder.reset();
    auto retriever = reg.create(name, builder.context());
    const auto batch =
        emb::SparseBatch::statistical(builder.config().layer.batchSpec());
    retriever->runBatch(batch);
    core::EmbeddingRetriever& base = *retriever;
    EXPECT_EQ(base.finish(), SimTime::zero()) << name;
  }
}

TEST(FinishLifecycleTest, PipelinedFinishDrainsThroughBaseInterface) {
  engine::SystemBuilder builder(quickWeak(2, 1));
  auto retriever = core::RetrieverRegistry::instance().create(
      "nccl_pipelined", builder.context());
  const auto batch =
      emb::SparseBatch::statistical(builder.config().layer.batchSpec());
  SimTime enqueued = SimTime::zero();
  for (int b = 0; b < 3; ++b) enqueued += retriever->runBatch(batch).total;

  // The pipeline still has batches in flight: finish() must advance the
  // clock past the host-side enqueue time...
  core::EmbeddingRetriever& base = *retriever;
  const SimTime drain = base.finish();
  EXPECT_GT(drain, SimTime::zero());
  EXPECT_EQ(builder.system().hostNow(), enqueued + drain);
  // ...and a second finish() finds nothing left to drain.
  EXPECT_EQ(base.finish(), SimTime::zero());
}

TEST(FinishLifecycleTest, ScenarioRunnerFoldsDrainIntoTotal) {
  const auto cfg = quickWeak(2, 3);
  const auto result = engine::ScenarioRunner(cfg).run("nccl_pipelined");
  engine::SystemBuilder builder(cfg);
  auto retriever = core::RetrieverRegistry::instance().create(
      "nccl_pipelined", builder.context());
  const auto batch = emb::SparseBatch::statistical(cfg.layer.batchSpec());
  for (int b = 0; b < cfg.num_batches; ++b) retriever->runBatch(batch);
  retriever->finish();
  // Runner total == host clock after a manual drain of the same run.
  EXPECT_EQ(result.stats.total, builder.system().hostNow());
}

// Pre-refactor control flow, reassembled by hand: build the full system,
// construct the retriever directly (no registry), run the batch loop.
core::RetrieverStats legacyRun(const engine::ExperimentConfig& config,
                               bool pgas) {
  gpu::SystemConfig sys_cfg;
  sys_cfg.num_gpus = config.num_gpus;
  sys_cfg.memory_capacity_bytes = config.device_memory_bytes;
  sys_cfg.mode = config.mode;
  sys_cfg.cost_model = config.cost_model;
  gpu::MultiGpuSystem system(sys_cfg);
  fabric::Fabric fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
      config.num_gpus, config.link),
                        config.counter_bucket);
  collective::Communicator comm(system, fabric);
  pgas::PgasRuntime runtime(system, fabric);
  emb::ShardedEmbeddingLayer layer(system, config.layer, config.sharding);

  std::unique_ptr<core::EmbeddingRetriever> retriever;
  if (pgas) {
    core::PgasRetrieverOptions opts;
    opts.slices = config.pgas_slices;
    retriever = std::make_unique<core::PgasFusedRetriever>(layer, runtime,
                                                           opts);
  } else {
    retriever = std::make_unique<core::CollectiveRetriever>(layer, comm);
  }

  core::RetrieverStats stats;
  const auto batch = emb::SparseBatch::statistical(config.layer.batchSpec());
  for (int b = 0; b < config.num_batches; ++b) {
    stats.add(retriever->runBatch(batch));
  }
  return stats;
}

TEST(GoldenParityTest, RunnerMatchesManualAssemblyByteForByte) {
  for (const int gpus : {2, 4}) {
    const auto cfg = quickWeak(gpus, 2);
    engine::ScenarioRunner runner(cfg);
    for (const bool pgas : {false, true}) {
      const auto legacy = legacyRun(cfg, pgas);
      const auto result =
          runner.run(pgas ? "pgas_fused" : "nccl_collective");
      const auto& stats = result.stats;
      EXPECT_EQ(stats.batches, legacy.batches) << gpus << " gpus";
      EXPECT_EQ(stats.total, legacy.total) << gpus << " gpus";
      EXPECT_EQ(stats.compute_phase, legacy.compute_phase)
          << gpus << " gpus";
      EXPECT_EQ(stats.comm_phase, legacy.comm_phase) << gpus << " gpus";
      EXPECT_EQ(stats.unpack_phase, legacy.unpack_phase)
          << gpus << " gpus";
      EXPECT_EQ(stats.wire_time, legacy.wire_time) << gpus << " gpus";
    }
  }
}

TEST(SystemBuilderTest, ResetRebuildsOnFreshClock) {
  engine::SystemBuilder builder(quickWeak(2, 1));
  auto retriever = core::RetrieverRegistry::instance().create(
      "nccl_collective", builder.context());
  const auto batch =
      emb::SparseBatch::statistical(builder.config().layer.batchSpec());
  retriever->runBatch(batch);
  EXPECT_GT(builder.system().hostNow(), SimTime::zero());
  retriever.reset();  // a retriever must not outlive the assembly
  builder.reset();
  EXPECT_EQ(builder.system().hostNow(), SimTime::zero());
  EXPECT_EQ(builder.fabric().totalPayloadBytes(), 0);
}

}  // namespace
}  // namespace pgasemb
