// google-benchmark microbenchmarks for the substrate hot paths: the
// discrete-event queue, fabric flow injection, sparse-batch generation,
// hashing, pooled lookups, and a full timing-only retrieval batch.
// These guard the *simulator's* own performance (host-side), which
// bounds how large a paper-scale sweep stays interactive.
#include <benchmark/benchmark.h>

#include <memory>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "emb/hashing.hpp"
#include "emb/layer.hpp"
#include "emb/workload.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace pgasemb;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) {
      q.push(SimTime::us(i % 97), [] {});
    }
    while (!q.empty()) {
      benchmark::DoNotOptimize(q.pop());
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_SimulatorNestedEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = static_cast<int>(state.range(0));
    std::function<void()> chain = [&] {
      if (--remaining > 0) sim.scheduleAfter(SimTime::ns(10), chain);
    };
    sim.scheduleAt(SimTime::zero(), chain);
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorNestedEvents)->Arg(10000);

void BM_FabricTransfer(benchmark::State& state) {
  fabric::Fabric fab(std::make_unique<fabric::NvlinkAllToAllTopology>(
      4, fabric::LinkParams{}));
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fab.transfer(static_cast<int>(i % 4),
                     static_cast<int>((i + 1) % 4), 4096, 16,
                     SimTime::us(static_cast<double>(i))));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricTransfer);

void BM_HashIndex(benchmark::State& state) {
  const auto seed = emb::tableSeed(1, 7);
  std::uint64_t raw = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(emb::hashIndex(raw++, seed, 1'000'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndex);

void BM_SparseBatchGeneration(benchmark::State& state) {
  emb::SparseBatchSpec spec{8, state.range(0), 1, 32, 1u << 20, {}};
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(emb::SparseBatch::generateUniform(spec, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_SparseBatchGeneration)->Arg(1024);

void BM_FunctionalPooledLookup(benchmark::State& state) {
  gpu::SystemConfig cfg;
  cfg.num_gpus = 1;
  cfg.memory_capacity_bytes = 64 << 20;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  gpu::MultiGpuSystem sys(cfg);
  auto spec = emb::tinyLayerSpec();
  spec.rows_per_table = 1000;
  spec.dim = 64;
  emb::ShardedEmbeddingLayer layer(sys, spec);
  Rng rng(2);
  const auto batch = emb::SparseBatch::generateUniform(spec.batchSpec(), rng);
  std::int64_t s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        layer.pooledValue(batch, s % spec.total_tables,
                          s % spec.batch_size));
    ++s;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalPooledLookup);

void BM_TimingOnlyBatch(benchmark::State& state) {
  // One full simulated weak-scaling batch (both schemes), 4 GPUs.
  const bool pgas = state.range(0) != 0;
  gpu::SystemConfig sys_cfg;
  sys_cfg.num_gpus = 4;
  sys_cfg.mode = gpu::ExecutionMode::kTimingOnly;
  gpu::MultiGpuSystem sys(sys_cfg);
  fabric::Fabric fab(std::make_unique<fabric::NvlinkAllToAllTopology>(
      4, fabric::LinkParams{}));
  collective::Communicator comm(sys, fab);
  pgas::PgasRuntime runtime(sys, fab);
  const auto spec = emb::weakScalingLayerSpec(4);
  emb::ShardedEmbeddingLayer layer(sys, spec);
  std::unique_ptr<core::EmbeddingRetriever> retriever;
  if (pgas) {
    retriever = std::make_unique<core::PgasFusedRetriever>(
        layer, runtime, core::PgasRetrieverOptions{});
  } else {
    retriever = std::make_unique<core::CollectiveRetriever>(layer, comm);
  }
  const auto batch = emb::SparseBatch::statistical(spec.batchSpec());
  for (auto _ : state) {
    benchmark::DoNotOptimize(retriever->runBatch(batch));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(pgas ? "pgas_fused" : "nccl_collective");
}
BENCHMARK(BM_TimingOnlyBatch)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
