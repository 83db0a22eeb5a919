// Unit tests for the simulated GPU runtime: device memory accounting,
// cost model shapes, stream FIFO semantics, kernel slicing, events, and
// per-node host-clock bookkeeping.
#include <gtest/gtest.h>

#include <vector>

#include "gpu/cost_model.hpp"
#include "gpu/device.hpp"
#include "gpu/gpu_event.hpp"
#include "gpu/kernel.hpp"
#include "gpu/stream.hpp"
#include "gpu/system.hpp"
#include "util/expect.hpp"

namespace pgasemb::gpu {
namespace {

SystemConfig smallConfig(ExecutionMode mode, int gpus = 2) {
  SystemConfig cfg;
  cfg.num_gpus = gpus;
  cfg.memory_capacity_bytes = 64 * 1024 * 1024;
  cfg.mode = mode;
  return cfg;
}

// --- Device memory -----------------------------------------------------------

TEST(DeviceTest, AllocChargesCapacity) {
  Device dev(0, 1024 * 4, ExecutionMode::kFunctional);
  auto buf = dev.alloc(512);
  EXPECT_EQ(dev.memoryUsedBytes(), 512 * 4);
  EXPECT_EQ(dev.memoryFreeBytes(), 512 * 4);
  EXPECT_TRUE(buf.backed());
  EXPECT_EQ(buf.size(), 512);
}

TEST(DeviceTest, OomThrows) {
  Device dev(0, 1024 * 4, ExecutionMode::kFunctional);
  dev.alloc(1000);
  EXPECT_THROW(dev.alloc(100), OutOfMemoryError);
}

TEST(DeviceTest, VirtualAllocHasNoBackingButChargesCapacity) {
  Device dev(0, 1LL << 40, ExecutionMode::kFunctional);
  // 16 GB of virtual table space must not allocate host memory.
  auto buf = dev.allocVirtual(4LL * 1024 * 1024 * 1024);
  EXPECT_FALSE(buf.backed());
  EXPECT_EQ(dev.memoryUsedBytes(), 16LL * 1024 * 1024 * 1024);
  EXPECT_THROW(buf.span(), InvalidArgumentError);
}

TEST(DeviceTest, TimingOnlyBuffersAreUnbacked) {
  Device dev(0, 1024 * 4, ExecutionMode::kTimingOnly);
  auto buf = dev.alloc(16);
  EXPECT_FALSE(buf.backed());
  EXPECT_THROW(buf.span(), InvalidArgumentError);
}

TEST(DeviceTest, FunctionalBufferIsZeroInitializedAndWritable) {
  Device dev(0, 1024 * 4, ExecutionMode::kFunctional);
  auto buf = dev.alloc(8);
  for (float v : buf.span()) EXPECT_EQ(v, 0.0f);
  buf.span()[3] = 42.0f;
  EXPECT_EQ(buf.span()[3], 42.0f);
}

TEST(DeviceTest, FreeUncharges) {
  Device dev(0, 1024 * 4, ExecutionMode::kFunctional);
  auto buf = dev.alloc(512);
  dev.free(buf);
  EXPECT_EQ(dev.memoryUsedBytes(), 0);
  EXPECT_FALSE(buf.valid());
  // Space is reusable.
  auto buf2 = dev.alloc(1000);
  EXPECT_EQ(buf2.size(), 1000);
}

// --- Cost model -----------------------------------------------------------------

TEST(CostModelTest, GatherKernelIsMemoryBoundForEmbeddings) {
  CostModel cm;
  // Embedding lookups: ~1 flop per 4 bytes — memory-bound by far.
  const double bytes = 1e9;
  const double flops = bytes / 4.0;
  const double rows = 1e9;  // far above saturation
  const SimTime t = cm.gatherKernelTime(flops, bytes, rows);
  const double expect_s = bytes / (cm.hbm_bandwidth * cm.gather_efficiency);
  EXPECT_NEAR(t.toSec(), expect_s, expect_s * 1e-6);
}

TEST(CostModelTest, TinyKernelHitsLatencyFloor) {
  CostModel cm;
  EXPECT_EQ(cm.gatherKernelTime(10.0, 100.0, 1.0),
            cm.kernel_latency_floor);
  EXPECT_EQ(cm.streamKernelTime(16.0), cm.kernel_latency_floor);
}

TEST(CostModelTest, StreamKernelFasterThanGather) {
  CostModel cm;
  const double bytes = 4e9;
  EXPECT_LT(cm.streamKernelTime(bytes),
            cm.gatherKernelTime(0.0, bytes, 1e9));
}

TEST(CostModelTest, ThroughputFractionsMatchNcuStyleReport) {
  CostModel cm;
  const double bytes = 1e9;
  const SimTime t = cm.gatherKernelTime(bytes / 4.0, bytes, 1e9);
  const auto tp = cm.kernelThroughput(bytes / 4.0, bytes, t);
  // Memory fraction equals the gather efficiency; compute is tiny.
  EXPECT_NEAR(tp.memory, cm.gather_efficiency, 1e-6);
  EXPECT_LT(tp.compute, 0.01);
}

// --- Streams and kernels --------------------------------------------------------

TEST(StreamTest, OpsRunInFifoOrder) {
  MultiGpuSystem sys(smallConfig(ExecutionMode::kTimingOnly));
  std::vector<int> order;
  auto& s = sys.stream(0);
  s.enqueueFixed(SimTime::zero(), "a", SimTime::us(5), [&] {
    order.push_back(1);
  });
  s.enqueueFixed(SimTime::zero(), "b", SimTime::us(1), [&] {
    order.push_back(2);
  });
  sys.simulator().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.lastCompletion(), SimTime::us(6));
}

TEST(StreamTest, ReadyTimeDelaysStart) {
  MultiGpuSystem sys(smallConfig(ExecutionMode::kTimingOnly));
  auto& s = sys.stream(0);
  s.enqueueFixed(SimTime::us(100), "late", SimTime::us(5));
  sys.simulator().run();
  EXPECT_EQ(s.lastCompletion(), SimTime::us(105));
}

TEST(StreamTest, KernelOccupiesComputeResource) {
  MultiGpuSystem sys(smallConfig(ExecutionMode::kTimingOnly));
  KernelDesc k;
  k.name = "k";
  k.duration = SimTime::us(50);
  sys.stream(0).enqueueKernel(SimTime::zero(), k);
  sys.simulator().run();
  EXPECT_EQ(sys.device(0).computeResource().busyTime(), SimTime::us(50));
}

TEST(StreamTest, KernelSlicesFireOnSchedule) {
  MultiGpuSystem sys(smallConfig(ExecutionMode::kTimingOnly));
  std::vector<double> slice_times;
  KernelDesc k;
  k.name = "sliced";
  k.duration = SimTime::us(40);
  k.slices = 4;
  k.on_slice = [&](int slice, SimTime at) {
    EXPECT_EQ(slice, static_cast<int>(slice_times.size()));
    slice_times.push_back(at.toUs());
  };
  sys.stream(0).enqueueKernel(SimTime::zero(), k);
  sys.simulator().run();
  ASSERT_EQ(slice_times.size(), 4u);
  EXPECT_DOUBLE_EQ(slice_times[0], 10.0);
  EXPECT_DOUBLE_EQ(slice_times[3], 40.0);
}

TEST(StreamTest, FinalizeExtendsCompletion) {
  MultiGpuSystem sys(smallConfig(ExecutionMode::kTimingOnly));
  KernelDesc k;
  k.name = "quiet";
  k.duration = SimTime::us(10);
  k.finalize = [](SimTime end) { return end + SimTime::us(7); };
  auto& s = sys.stream(0);
  s.enqueueKernel(SimTime::zero(), k);
  sys.simulator().run();
  EXPECT_EQ(s.lastCompletion(), SimTime::us(17));
}

TEST(StreamTest, FunctionalBodyRunsOnce) {
  MultiGpuSystem sys(smallConfig(ExecutionMode::kFunctional));
  int runs = 0;
  KernelDesc k;
  k.name = "body";
  k.duration = SimTime::us(1);
  k.functional_body = [&] { ++runs; };
  sys.stream(0).enqueueKernel(SimTime::zero(), k);
  sys.simulator().run();
  EXPECT_EQ(runs, 1);
}

TEST(StreamTest, TwoStreamsOnOneDeviceSerializeOnCompute) {
  MultiGpuSystem sys(smallConfig(ExecutionMode::kTimingOnly, 1));
  auto& s2 = sys.createStream(0, "side");
  KernelDesc k;
  k.duration = SimTime::us(30);
  k.name = "a";
  sys.stream(0).enqueueKernel(SimTime::zero(), k);
  k.name = "b";
  s2.enqueueKernel(SimTime::zero(), k);
  sys.simulator().run();
  // Second kernel had to wait for the device compute resource.
  EXPECT_EQ(std::max(sys.stream(0).lastCompletion(), s2.lastCompletion()),
            SimTime::us(60));
}

// --- Events -------------------------------------------------------------------

TEST(GpuEventTest, CrossStreamDependency) {
  MultiGpuSystem sys(smallConfig(ExecutionMode::kTimingOnly));
  GpuEvent ev;
  auto& s0 = sys.stream(0);
  auto& s1 = sys.stream(1);
  s0.enqueueFixed(SimTime::zero(), "produce", SimTime::us(25));
  s0.enqueueRecord(SimTime::zero(), ev);
  s1.enqueueWaitEvent(SimTime::zero(), ev);
  s1.enqueueFixed(SimTime::zero(), "consume", SimTime::us(5));
  sys.simulator().run();
  EXPECT_EQ(s1.lastCompletion(), SimTime::us(30));
}

TEST(GpuEventTest, WaitOnRecordedEventIsInstant) {
  GpuEvent ev;
  ev.record(SimTime::us(3));
  SimTime seen;
  ev.onRecorded([&](SimTime t) { seen = t; });
  EXPECT_EQ(seen, SimTime::us(3));
  EXPECT_EQ(ev.time(), SimTime::us(3));
}

TEST(GpuEventTest, ResetAllowsReuse) {
  GpuEvent ev;
  ev.record(SimTime::us(3));
  ev.reset();
  EXPECT_FALSE(ev.recorded());
  ev.record(SimTime::us(9));
  EXPECT_EQ(ev.time(), SimTime::us(9));
}

// --- Host clock --------------------------------------------------------------

TEST(SystemTest, LaunchChargesHostOverhead) {
  auto cfg = smallConfig(ExecutionMode::kTimingOnly);
  MultiGpuSystem sys(cfg);
  KernelDesc k;
  k.name = "k";
  k.duration = SimTime::us(100);
  sys.launchKernel(0, k);
  EXPECT_EQ(sys.hostNow(), cfg.cost_model.kernel_launch_overhead);
  sys.launchKernel(1, k);
  EXPECT_EQ(sys.hostNow(), cfg.cost_model.kernel_launch_overhead * 2);
}

TEST(SystemTest, SyncAllWaitsForAllStreamsAndChargesPerDevice) {
  auto cfg = smallConfig(ExecutionMode::kTimingOnly);
  MultiGpuSystem sys(cfg);
  KernelDesc k;
  k.name = "k";
  k.duration = SimTime::us(100);
  sys.launchKernel(0, k);
  sys.launchKernel(1, k);
  const SimTime t = sys.syncAll();
  // Kernel 0 starts after one launch overhead; kernel 1 after two; both
  // run 100us concurrently on different devices.
  const SimTime k1_end = cfg.cost_model.kernel_launch_overhead * 2 +
                         SimTime::us(100);
  EXPECT_EQ(t, k1_end + cfg.cost_model.stream_sync_overhead * 2);
}

TEST(SystemTest, KernelsOnDifferentDevicesRunConcurrently) {
  auto cfg = smallConfig(ExecutionMode::kTimingOnly, 4);
  cfg.cost_model.kernel_launch_overhead = SimTime::zero();
  cfg.cost_model.stream_sync_overhead = SimTime::zero();
  MultiGpuSystem sys(cfg);
  KernelDesc k;
  k.name = "k";
  k.duration = SimTime::ms(1);
  for (int g = 0; g < 4; ++g) sys.launchKernel(g, k);
  EXPECT_EQ(sys.syncAll(), SimTime::ms(1));
}

TEST(SystemTest, BadDeviceIdThrows) {
  MultiGpuSystem sys(smallConfig(ExecutionMode::kTimingOnly));
  EXPECT_THROW(sys.device(7), InvalidArgumentError);
  EXPECT_THROW(sys.stream(-1), InvalidArgumentError);
  EXPECT_THROW(sys.hostNow(2), InvalidArgumentError);
  EXPECT_THROW(sys.hostAdvance(-1, SimTime::us(1)), InvalidArgumentError);
}

// 2 nodes x 2 GPUs: GPUs 0-1 on node 0's host, GPUs 2-3 on node 1's.
SystemConfig twoNodeConfig() {
  auto cfg = smallConfig(ExecutionMode::kTimingOnly, 4);
  cfg.num_nodes = 2;
  cfg.node_barrier_latency = SimTime::us(5);
  return cfg;
}

TEST(SystemTest, LaunchChargesOnlyTheDevicesNodeHost) {
  const auto cfg = twoNodeConfig();
  MultiGpuSystem sys(cfg);
  KernelDesc k;
  k.name = "k";
  k.duration = SimTime::us(100);
  sys.launchKernel(2, k);
  const SimTime launch = cfg.cost_model.kernel_launch_overhead;
  EXPECT_EQ(sys.hostNow(0), SimTime::zero());
  EXPECT_EQ(sys.hostNow(1), SimTime::zero());
  EXPECT_EQ(sys.hostNow(2), launch);
  EXPECT_EQ(sys.hostNow(3), launch);
  EXPECT_EQ(sys.hostNow(), launch);  // the later host
}

TEST(SystemTest, SyncAllRunsPerNodeThenOneBarrierRound) {
  const auto cfg = twoNodeConfig();
  MultiGpuSystem sys(cfg);
  KernelDesc k;
  k.name = "k";
  k.duration = SimTime::us(100);
  sys.launchKernel(0, k);
  sys.launchKernel(2, k);
  sys.launchKernel(3, k);
  const SimTime t = sys.syncAll();
  // Node 1's host issued two launches, so its last kernel ends one
  // launch overhead after node 0's; each host then pays 2 sync calls,
  // and ceil(log2 2) = 1 barrier round releases both.
  const SimTime launch = cfg.cost_model.kernel_launch_overhead;
  const SimTime sync = cfg.cost_model.stream_sync_overhead;
  EXPECT_EQ(t, launch * 2 + SimTime::us(100) + sync * 2 + SimTime::us(5));
  for (int g = 0; g < 4; ++g) EXPECT_EQ(sys.hostNow(g), t) << "gpu " << g;
}

TEST(SystemTest, UnevenNodeSplitThrows) {
  auto cfg = smallConfig(ExecutionMode::kTimingOnly, 3);
  cfg.num_nodes = 2;
  EXPECT_THROW(MultiGpuSystem{cfg}, InvalidArgumentError);
}

// --- Device free list --------------------------------------------------------

TEST(DeviceFreeListTest, FreedRangeIsReusedFirstFit) {
  Device dev(0, 1 << 20, ExecutionMode::kTimingOnly);
  auto a = dev.alloc(100);
  auto b = dev.alloc(100);
  EXPECT_EQ(dev.addressSpaceEnd(), 200);
  dev.free(a);
  EXPECT_FALSE(a.valid());
  auto c = dev.alloc(60);  // carved from the front of the hole at 0
  EXPECT_EQ(c.offset(), 0);
  auto d = dev.alloc(40);  // remainder of the same hole
  EXPECT_EQ(d.offset(), 60);
  EXPECT_EQ(dev.addressSpaceEnd(), 200);
  dev.free(b);
  dev.free(c);
  dev.free(d);
  EXPECT_EQ(dev.addressSpaceEnd(), 0);
}

TEST(DeviceFreeListTest, FreeingTheTailShrinksAddressSpace) {
  Device dev(0, 1 << 20, ExecutionMode::kTimingOnly);
  auto a = dev.alloc(100);
  auto b = dev.alloc(50);
  EXPECT_EQ(dev.addressSpaceEnd(), 150);
  dev.free(b);
  EXPECT_EQ(dev.addressSpaceEnd(), 100);
  dev.free(a);
  EXPECT_EQ(dev.addressSpaceEnd(), 0);
}

TEST(DeviceFreeListTest, OutOfOrderFreesCoalesceAndReclaim) {
  // The old allocator only ever reclaimed the most recent allocation;
  // interior frees were lost. Coalescing recovers them once the tail
  // block is freed too.
  Device dev(0, 1 << 20, ExecutionMode::kTimingOnly);
  auto a = dev.alloc(100);
  auto b = dev.alloc(100);
  auto c = dev.alloc(100);
  dev.free(b);  // interior hole — nothing shrinks yet
  EXPECT_EQ(dev.addressSpaceEnd(), 300);
  dev.free(c);  // coalesces with b's hole and the tail retreats past both
  EXPECT_EQ(dev.addressSpaceEnd(), 100);
  dev.free(a);
  EXPECT_EQ(dev.addressSpaceEnd(), 0);
}

TEST(DeviceFreeListTest, SteadyStateAllocFreeDoesNotGrowAddressSpace) {
  Device dev(0, 1 << 20, ExecutionMode::kTimingOnly);
  auto hold = dev.alloc(64);
  auto cursor = dev.alloc(256);
  const std::int64_t high = dev.addressSpaceEnd();
  for (int i = 0; i < 100; ++i) {
    dev.free(cursor);
    cursor = dev.alloc(256);
    EXPECT_EQ(cursor.offset(), 64);
    EXPECT_EQ(dev.addressSpaceEnd(), high);
  }
  dev.free(cursor);
  dev.free(hold);
  EXPECT_EQ(dev.addressSpaceEnd(), 0);
  EXPECT_EQ(dev.memoryUsedBytes(), 0);
}

TEST(DeviceFreeListTest, ReusedFunctionalStorageComesUpZeroed) {
  Device dev(0, 1 << 20, ExecutionMode::kFunctional);
  auto hold = dev.alloc(16);
  auto a = dev.alloc(16);
  auto tail = dev.alloc(16);  // keeps a's hole interior (reuse, not shrink)
  for (auto& v : a.span()) v = 7.0f;
  dev.free(a);
  auto b = dev.alloc(16);
  EXPECT_EQ(b.offset(), 16);
  for (const float v : b.span()) EXPECT_EQ(v, 0.0f);
  dev.free(tail);
  dev.free(b);
  dev.free(hold);
}

TEST(DeviceFreeListTest, FreeingInvalidBufferThrows) {
  Device dev(0, 1 << 20, ExecutionMode::kTimingOnly);
  DeviceBuffer stale;
  EXPECT_THROW(dev.free(stale), InvalidArgumentError);
  auto a = dev.alloc(8);
  dev.free(a);  // invalidates a
  EXPECT_THROW(dev.free(a), InvalidArgumentError);
}

}  // namespace
}  // namespace pgasemb::gpu
