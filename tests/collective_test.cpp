// Unit tests for the NCCL-like collective library: request semantics,
// stream ordering (comm starts only after prior kernels), timing shapes,
// and functional completion callbacks.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "collective/communicator.hpp"
#include "fabric/fabric.hpp"
#include "gpu/system.hpp"
#include "util/expect.hpp"

namespace pgasemb::collective {
namespace {

struct Rig {
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  Communicator comm;

  explicit Rig(int gpus, fabric::LinkParams link = {})
      : system(makeConfig(gpus)),
        fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(gpus, link)),
        comm(system, fabric) {}

  static gpu::SystemConfig makeConfig(int gpus) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 1 << 30;
    cfg.mode = gpu::ExecutionMode::kTimingOnly;
    return cfg;
  }

  std::vector<std::vector<std::int64_t>> uniformMatrix(std::int64_t bytes) {
    const int n = system.numGpus();
    std::vector<std::vector<std::int64_t>> m(
        static_cast<std::size_t>(n),
        std::vector<std::int64_t>(static_cast<std::size_t>(n), bytes));
    for (int i = 0; i < n; ++i) {
      m[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)] = 0;
    }
    return m;
  }
};

TEST(CollectiveTest, AllToAllCompletesAndMovesBytes) {
  Rig rig(4);
  auto req = rig.comm.allToAllSingle(rig.uniformMatrix(1 << 20));
  EXPECT_TRUE(req.valid());
  req.wait(rig.system);
  EXPECT_TRUE(req.completed());
  // 12 ordered pairs x 1 MiB.
  EXPECT_EQ(rig.fabric.totalPayloadBytes(), 12LL << 20);
}

TEST(CollectiveTest, WaitAdvancesHostPastCompletion) {
  Rig rig(2);
  auto req = rig.comm.allToAllSingle(rig.uniformMatrix(16 << 20));
  const SimTime host = req.wait(rig.system);
  EXPECT_GE(host, req.completionTime());
  EXPECT_EQ(host, rig.system.hostNow());
}

TEST(CollectiveTest, TriggerOverheadChargedPerDevice) {
  Rig rig(4);
  const SimTime before = rig.system.hostNow();
  rig.comm.allToAllSingle(rig.uniformMatrix(0));
  EXPECT_EQ(rig.system.hostNow() - before,
            rig.system.costModel().collective_trigger_overhead * 4);
}

TEST(CollectiveTest, EachNodeHostTriggersItsOwnRanks) {
  // 2 nodes x 2 GPUs: each node's host triggers its 2 ranks, in parallel
  // with the other node's.
  gpu::SystemConfig cfg = Rig::makeConfig(4);
  cfg.num_nodes = 2;
  cfg.node_barrier_latency = SimTime::us(5);
  gpu::MultiGpuSystem system(cfg);
  fabric::Fabric fabric(std::make_unique<fabric::MultiNodeTopology>(
      2, 2, fabric::LinkParams{}, fabric::LinkParams{}));
  Communicator comm(system, fabric);
  std::vector<std::vector<std::int64_t>> matrix(
      4, std::vector<std::int64_t>(4, 1 << 20));
  for (std::size_t i = 0; i < 4; ++i) matrix[i][i] = 0;
  auto req = comm.allToAllSingle(matrix);
  const SimTime two = system.costModel().collective_trigger_overhead * 2;
  for (int g = 0; g < 4; ++g) {
    EXPECT_EQ(system.hostNow(g), two) << "gpu " << g;
  }
  // The wait leaves every host one sync call past the completion.
  const SimTime host = req.wait(system);
  EXPECT_EQ(host,
            req.completionTime() + system.costModel().stream_sync_overhead);
  for (int g = 0; g < 4; ++g) {
    EXPECT_EQ(system.hostNow(g), host) << "gpu " << g;
  }
}

TEST(CollectiveTest, CommWaitsForPriorKernelOnStream) {
  Rig rig(2);
  gpu::KernelDesc k;
  k.name = "compute";
  k.duration = SimTime::ms(5);
  rig.system.launchKernel(0, k);  // only GPU 0 is busy
  auto req = rig.comm.allToAllSingle(rig.uniformMatrix(1024));
  req.wait(rig.system);
  // GPU 1's side may start early, but the collective cannot retire
  // before GPU 0's kernel finished and its data went on the wire.
  EXPECT_GT(req.completionTime(), SimTime::ms(5));
}

TEST(CollectiveTest, LargerPayloadTakesLonger) {
  Rig a(2), b(2);
  auto ra = a.comm.allToAllSingle(a.uniformMatrix(1 << 20));
  ra.wait(a.system);
  auto rb = b.comm.allToAllSingle(b.uniformMatrix(64 << 20));
  rb.wait(b.system);
  EXPECT_GT(rb.completionTime() - rb.startTime(),
            ra.completionTime() - ra.startTime());
}

TEST(CollectiveTest, ChunkingAddsPerChunkOverhead) {
  // Payloads ship in fixed 4 MiB chunks, each injected one proxy
  // overhead after the previous. On a link so fast that no chunk's
  // serialization hides that overhead, one byte past the chunk boundary
  // adds a chunk (one more message per pair) and about one overhead of
  // wire time; one byte short of it adds neither.
  fabric::LinkParams fast;
  fast.bandwidth_bytes_per_sec = 1e15;
  const auto run = [&](std::int64_t bytes) {
    Rig rig(2, fast);
    auto req = rig.comm.allToAllSingle(rig.uniformMatrix(bytes));
    req.wait(rig.system);
    return std::make_pair(req.completionTime() - req.startTime(),
                          rig.fabric.totalMessages());
  };
  const std::int64_t chunk = Communicator::kChunkBytes;
  const auto [below_wire, below_msgs] = run(chunk - 1);
  const auto [at_wire, at_msgs] = run(chunk);
  const auto [past_wire, past_msgs] = run(chunk + 1);
  EXPECT_EQ(below_msgs, 2);
  EXPECT_EQ(at_msgs, 2);
  EXPECT_EQ(past_msgs, 4);
  const SimTime overhead = gpu::CostModel{}.collective_chunk_overhead;
  EXPECT_LT(at_wire - below_wire, overhead * 0.01);
  EXPECT_GT(past_wire - at_wire, overhead * 0.9);
}

TEST(CollectiveTest, OnCompleteRunsExactlyOnceAtWait) {
  Rig rig(2);
  int calls = 0;
  auto req = rig.comm.allToAllSingle(rig.uniformMatrix(1024),
                                     [&] { ++calls; });
  EXPECT_EQ(calls, 0);
  req.wait(rig.system);
  EXPECT_EQ(calls, 1);
  req.wait(rig.system);
  EXPECT_EQ(calls, 1);
}

TEST(CollectiveTest, ProtocolEfficiencySlowsCollectives) {
  Rig rig(2);
  // Compare against a raw PGAS-style transfer of the same volume.
  const std::int64_t bytes = 32 << 20;
  const auto raw = rig.fabric.transfer(0, 1, bytes, 1, rig.system.hostNow());
  auto req = rig.comm.allToAllSingle(rig.uniformMatrix(bytes));
  req.wait(rig.system);
  const SimTime collective_wire =
      req.completionTime() - req.startTime();
  EXPECT_GT(collective_wire, (raw.delivered - raw.injected) * 2);
}

TEST(CollectiveTest, AllReduceTwiceReduceScatter) {
  // Ring all-reduce = reduce-scatter + all-gather: every rank forwards
  // 2(p-1) blocks of total/p bytes, twice a reduce-scatter's p-1.
  const std::int64_t total = 64 << 20;
  Rig a(2), b(4);
  auto two = a.comm.allReduce(total);
  two.wait(a.system);
  auto four = b.comm.allReduce(total);
  four.wait(b.system);
  EXPECT_EQ(a.fabric.totalPayloadBytes(), 2 * 2 * 1 * (total / 2));
  EXPECT_EQ(b.fabric.totalPayloadBytes(), 4 * 2 * 3 * (total / 4));
  // Chained steps: 2(p-1)/p of the buffer per rank, 1.0x at 2 ranks vs
  // 1.5x at 4.
  const double ratio = (four.completionTime() - four.startTime()) /
                       (two.completionTime() - two.startTime());
  EXPECT_NEAR(ratio, 1.5, 0.15);
}

TEST(CollectiveTest, RingShiftRoundsChargePerRoundSync) {
  Rig a(4), b(4);
  auto one = a.comm.ringShiftRounds(1 << 20, 1);
  one.wait(a.system);
  auto three = b.comm.ringShiftRounds(1 << 20, 3);
  three.wait(b.system);
  const SimTime d1 = one.completionTime() - one.startTime();
  const SimTime d3 = three.completionTime() - three.startTime();
  // Three rounds of transfer + per-round sync (the host-side trigger
  // stagger is paid once in both cases, so d3 < 3*d1 but well above 2x).
  EXPECT_GT(d3, d1 * 2);
  EXPECT_LT(d3, d1 * 3);
}

TEST(CollectiveTest, BadMatrixShapeThrows) {
  Rig rig(3);
  std::vector<std::vector<std::int64_t>> wrong(2);
  EXPECT_THROW(rig.comm.allToAllSingle(wrong), InvalidArgumentError);
}

TEST(CollectiveTest, EmptyRequestThrows) {
  Request req;
  EXPECT_FALSE(req.valid());
  EXPECT_THROW(req.completed(), InvalidArgumentError);
}

TEST(CollectiveTest, ZeroByteCollectiveStillSynchronizes) {
  Rig rig(4);
  auto req = rig.comm.allToAllSingle(rig.uniformMatrix(0));
  req.wait(rig.system);
  EXPECT_TRUE(req.completed());
  EXPECT_EQ(rig.fabric.totalPayloadBytes(), 0);
}

}  // namespace
}  // namespace pgasemb::collective
