// Tests for the observability layer (kernel/flow observers, Chrome-trace
// export) and the newer fabric topologies.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "trace/chrome_trace.hpp"
#include "util/expect.hpp"

namespace pgasemb {
namespace {

gpu::SystemConfig timingConfig(int gpus) {
  gpu::SystemConfig cfg;
  cfg.num_gpus = gpus;
  cfg.memory_capacity_bytes = 1 << 30;
  cfg.mode = gpu::ExecutionMode::kTimingOnly;
  return cfg;
}

// --- Observers -----------------------------------------------------------------

TEST(ObserverTest, KernelObserverSeesComputeAndQuiet) {
  gpu::MultiGpuSystem system(timingConfig(2));
  fabric::Fabric fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
      2, fabric::LinkParams{}));
  pgas::PgasRuntime runtime(system, fabric);

  int spans = 0;
  SimTime seen_completion;
  system.setKernelObserver([&](int device, const std::string& name,
                               SimTime start, SimTime end,
                               SimTime completion) {
    ++spans;
    EXPECT_EQ(device, 0);
    EXPECT_EQ(name, "k");
    EXPECT_LT(start, end);
    EXPECT_GE(completion, end);
    seen_completion = completion;
  });

  gpu::KernelDesc k;
  k.name = "k";
  k.duration = SimTime::us(10);
  // Big remote payload so quiet extends past compute end.
  auto plan = pgas::makeUniformPlan({0, 64 << 20}, 0, 4, 256);
  runtime.attachMessagePlan(k, 0, std::move(plan));
  system.launchKernel(0, k);
  system.syncAll();
  EXPECT_EQ(spans, 1);
  EXPECT_GT(seen_completion, SimTime::us(10));
}

TEST(ObserverTest, FlowObserverSeesEveryTransfer) {
  fabric::Fabric fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
      2, fabric::LinkParams{}));
  int flows = 0;
  std::int64_t bytes = 0;
  fabric.setFlowObserver([&](int src, int dst, std::int64_t payload,
                             std::int64_t msgs, SimTime start,
                             SimTime end) {
    ++flows;
    bytes += payload;
    EXPECT_EQ(src, 0);
    EXPECT_EQ(dst, 1);
    EXPECT_GT(msgs, 0);
    EXPECT_LT(start, end);
  });
  fabric.transfer(0, 1, 1000, 4, SimTime::zero());
  fabric.transfer(0, 1, 2000, 8, SimTime::zero());
  fabric.transfer(1, 1, 500, 1, SimTime::zero());  // local: not observed
  EXPECT_EQ(flows, 2);
  EXPECT_EQ(bytes, 3000);
}

// --- Chrome trace ---------------------------------------------------------------

TEST(ChromeTraceTest, RecordsAndSerializes) {
  gpu::MultiGpuSystem system(timingConfig(2));
  fabric::Fabric fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
      2, fabric::LinkParams{}));
  collective::Communicator comm(system, fabric);
  pgas::PgasRuntime runtime(system, fabric);
  emb::EmbLayerSpec spec;
  spec.total_tables = 4;
  spec.rows_per_table = 10000;
  spec.dim = 16;
  spec.batch_size = 1024;
  spec.max_pooling = 8;
  emb::ShardedEmbeddingLayer layer(system, spec);

  trace::ChromeTraceRecorder recorder;
  recorder.attach(system, fabric);
  core::CollectiveRetriever baseline(layer, comm);
  const auto batch = emb::SparseBatch::statistical(spec.batchSpec());
  baseline.runBatch(batch);
  recorder.detach();

  // 2 lookup + 2 unpack kernels; 2 a2a directions.
  EXPECT_EQ(recorder.kernelSpanCount(), 4u);
  EXPECT_GE(recorder.flowCount(), 2u);

  const std::string json = recorder.toJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("emb_lookup_baseline.gpu0"), std::string::npos);
  EXPECT_NE(json.find("emb_unpack.gpu1"), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"wire\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(ChromeTraceTest, QuietTailEmittedForPgas) {
  gpu::MultiGpuSystem system(timingConfig(2));
  fabric::Fabric fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
      2, fabric::LinkParams{}));
  pgas::PgasRuntime runtime(system, fabric);
  trace::ChromeTraceRecorder recorder;
  recorder.attach(system, fabric);

  gpu::KernelDesc k;
  k.name = "fused";
  k.duration = SimTime::us(5);
  auto plan = pgas::makeUniformPlan({0, 64 << 20}, 0, 2, 256);
  runtime.attachMessagePlan(k, 0, std::move(plan));
  system.launchKernel(0, k);
  system.syncAll();
  recorder.detach();
  EXPECT_NE(recorder.toJson().find("fused.quiet"), std::string::npos);
}

TEST(ChromeTraceTest, WritesFile) {
  gpu::MultiGpuSystem system(timingConfig(1));
  fabric::Fabric fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
      1, fabric::LinkParams{}));
  trace::ChromeTraceRecorder recorder;
  recorder.attach(system, fabric);
  gpu::KernelDesc k;
  k.name = "solo";
  k.duration = SimTime::us(1);
  system.launchKernel(0, k);
  system.syncAll();
  const std::string path = "/tmp/pgasemb_trace_test.json";
  recorder.writeFile(path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::filesystem::remove(path);
  recorder.detach();
}

// --- New topologies -------------------------------------------------------------

TEST(NvSwitchTest, EgressSharesThePort) {
  fabric::Fabric fabric(std::make_unique<fabric::NvSwitchTopology>(
      4, fabric::LinkParams{}));
  // Two flows from GPU 0 to different destinations contend at 0's up
  // port (unlike the pairwise topology, where they are independent).
  const auto d1 = fabric.transfer(0, 1, 10 << 20, 1, SimTime::zero());
  const auto d2 = fabric.transfer(0, 2, 10 << 20, 1, SimTime::zero());
  EXPECT_GT(d2.delivered, d1.delivered);
}

TEST(NvSwitchTest, IngressSharesThePortToo) {
  fabric::Fabric fabric(std::make_unique<fabric::NvSwitchTopology>(
      4, fabric::LinkParams{}));
  const auto d1 = fabric.transfer(1, 0, 10 << 20, 1, SimTime::zero());
  const auto d2 = fabric.transfer(2, 0, 10 << 20, 1, SimTime::zero());
  EXPECT_GT(d2.delivered, d1.delivered);
}

TEST(RingTest, RouteLengthIsHopDistance) {
  fabric::RingTopology topo(4, fabric::LinkParams{});
  EXPECT_EQ(topo.route(0, 1).size(), 1u);
  EXPECT_EQ(topo.route(0, 3).size(), 3u);
  EXPECT_EQ(topo.route(3, 0).size(), 1u);  // wraps around
  EXPECT_TRUE(topo.route(2, 2).empty());
}

TEST(RingTest, MultiHopIsSlowerThanNeighbor) {
  fabric::Fabric fabric(std::make_unique<fabric::RingTopology>(
      4, fabric::LinkParams{}));
  const auto near = fabric.transfer(0, 1, 1 << 20, 1, SimTime::zero());
  const auto far = fabric.transfer(1, 0, 1 << 20, 1, SimTime::zero());
  // 1 -> 0 takes 3 hops on a unidirectional ring.
  EXPECT_GT(far.delivered - far.injected,
            (near.delivered - near.injected) * 2);
}

}  // namespace
}  // namespace pgasemb
