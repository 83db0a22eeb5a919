// Unit tests for the PGAS runtime: symmetric heap, message plans,
// in-kernel injection with quiet semantics, and the async aggregator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "gpu/system.hpp"
#include "pgas/aggregator.hpp"
#include "pgas/message_plan.hpp"
#include "pgas/runtime.hpp"
#include "util/expect.hpp"

namespace pgasemb::pgas {
namespace {

struct Rig {
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  PgasRuntime runtime;

  explicit Rig(int gpus,
               gpu::ExecutionMode mode = gpu::ExecutionMode::kTimingOnly,
               fabric::LinkParams link = {})
      : system(makeConfig(gpus, mode)),
        fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(gpus, link)),
        runtime(system, fabric) {}

  static gpu::SystemConfig makeConfig(int gpus, gpu::ExecutionMode mode) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 1 << 30;
    cfg.mode = mode;
    return cfg;
  }
};

// --- Symmetric heap ----------------------------------------------------------

TEST(SymmetricHeapTest, AllocatesOnEveryPe) {
  Rig rig(4, gpu::ExecutionMode::kFunctional);
  auto buf = rig.runtime.heap().alloc(256);
  EXPECT_EQ(buf.numPes(), 4);
  EXPECT_EQ(buf.sizePerPe(), 256);
  for (int pe = 0; pe < 4; ++pe) {
    EXPECT_EQ(buf.on(pe).size(), 256);
    EXPECT_EQ(rig.system.device(pe).memoryUsedBytes(), 256 * 4);
  }
  rig.runtime.heap().free(buf);
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(rig.system.device(0).memoryUsedBytes(), 0);
}

TEST(SymmetricHeapTest, PartitionsAreIndependentStorage) {
  Rig rig(2, gpu::ExecutionMode::kFunctional);
  auto buf = rig.runtime.heap().alloc(8);
  buf.span(0)[3] = 1.0f;
  EXPECT_EQ(buf.span(1)[3], 0.0f);
  rig.runtime.heap().free(buf);
}

TEST(SymmetricHeapTest, BadPeThrows) {
  Rig rig(2);
  auto buf = rig.runtime.heap().alloc(8);
  EXPECT_THROW(buf.on(5), InvalidArgumentError);
  rig.runtime.heap().free(buf);
}

// --- Message plans -----------------------------------------------------------

/// A plan as one flow list per slice: the reference layout the
/// property tests below materialize independently of the builders.
using Slices = std::vector<std::vector<SliceFlow>>;

MessagePlan planFromSlices(const Slices& slices) {
  MessagePlan plan;
  plan.slices = static_cast<int>(slices.size());
  for (const auto& slice : slices) {
    plan.slice_begin.push_back(plan.flows.size());
    plan.flows.insert(plan.flows.end(), slice.begin(), slice.end());
  }
  plan.slice_begin.push_back(plan.flows.size());
  return plan;
}

/// Every slice of `plan`, read in firing order through the cursor the
/// runtime reads it with.
Slices readSlices(const MessagePlan& plan) {
  SliceCursor cursor(plan);
  Slices out;
  for (int s = 0; s < plan.slices; ++s) {
    const auto flows = cursor.slice(s);
    out.emplace_back(flows.begin(), flows.end());
  }
  return out;
}

struct Totals {
  std::int64_t payload_bytes = 0;
  std::int64_t messages = 0;
};

/// Payload and messages summed over every flow of every slice.
Totals totalsOf(const Slices& slices) {
  Totals t;
  for (const auto& slice : slices) {
    for (const auto& f : slice) {
      t.payload_bytes += f.payload_bytes;
      t.messages += f.n_messages;
    }
  }
  return t;
}

/// Reference uniform split: per destination, whole messages are dealt
/// out by largest remainder (slice s ends after floor(T * (s + 1) / S)
/// of T messages), bytes follow the messages, and only the last message
/// may be partial.
Slices referenceUniform(const std::vector<std::int64_t>& payload, int self,
                        int slices, std::int64_t message_bytes) {
  Slices out(static_cast<std::size_t>(slices));
  for (int dst = 0; dst < static_cast<int>(payload.size()); ++dst) {
    const std::int64_t total = payload[static_cast<std::size_t>(dst)];
    if (dst == self || total == 0) continue;
    const std::int64_t total_msgs =
        (total + message_bytes - 1) / message_bytes;
    std::int64_t emitted_msgs = 0;
    std::int64_t emitted_bytes = 0;
    for (int s = 0; s < slices; ++s) {
      const std::int64_t upto = total_msgs * (s + 1) / slices;
      const std::int64_t msgs = upto - emitted_msgs;
      if (msgs == 0) continue;
      emitted_msgs = upto;
      const std::int64_t bytes =
          std::min(msgs * message_bytes, total - emitted_bytes);
      emitted_bytes += bytes;
      out[static_cast<std::size_t>(s)].push_back(SliceFlow{dst, bytes, msgs});
    }
  }
  return out;
}

/// Reference aggregator over the per-slice layout: per-destination
/// buffers flushed by size during a slice, then by age in destination
/// order, and drained at the last slice.
Slices referenceAggregate(const Slices& in, SimTime kernel_duration,
                          const AggregatorParams& params) {
  const int slices = static_cast<int>(in.size());
  const std::int64_t slice_dt =
      std::max<std::int64_t>(1, kernel_duration.count() / slices);
  const std::int64_t max_wait =
      std::max<std::int64_t>(1, params.max_wait.count() / slice_dt);
  struct Buf {
    std::int64_t bytes = 0;
    int oldest = -1;
  };
  std::map<int, Buf> pending;
  Slices out(in.size());
  for (int s = 0; s < slices; ++s) {
    auto& emitted = out[static_cast<std::size_t>(s)];
    for (const auto& f : in[static_cast<std::size_t>(s)]) {
      auto& buf = pending[f.dst];
      if (buf.bytes == 0) buf.oldest = s;
      buf.bytes += f.payload_bytes;
      while (buf.bytes >= params.aggregation_bytes) {
        emitted.push_back(SliceFlow{f.dst, params.aggregation_bytes, 1});
        buf.bytes -= params.aggregation_bytes;
        buf.oldest = buf.bytes > 0 ? s : -1;
      }
    }
    for (auto& [dst, buf] : pending) {
      if (buf.bytes > 0 && s - buf.oldest >= max_wait) {
        emitted.push_back(SliceFlow{dst, buf.bytes, 1});
        buf = Buf{};
      }
    }
  }
  for (auto& [dst, buf] : pending) {
    if (buf.bytes > 0) out.back().push_back(SliceFlow{dst, buf.bytes, 1});
  }
  return out;
}

void expectSameFlows(std::span<const SliceFlow> got,
                     const std::vector<SliceFlow>& want,
                     const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].dst, want[i].dst) << what;
    EXPECT_EQ(got[i].payload_bytes, want[i].payload_bytes) << what;
    EXPECT_EQ(got[i].n_messages, want[i].n_messages) << what;
  }
}

void expectSameSlices(const MessagePlan& plan, const Slices& ref,
                      const std::string& what) {
  ASSERT_TRUE(plan.wellFormed()) << what;
  ASSERT_EQ(plan.slices, static_cast<int>(ref.size())) << what;
  const Slices slices = readSlices(plan);
  for (std::size_t s = 0; s < ref.size(); ++s) {
    expectSameFlows(slices[s], ref[s], what + " slice " + std::to_string(s));
  }
}

TEST(MessagePlanTest, BuildersMatchReferenceSliceBySlice) {
  // Random payload vectors (zeros, sub-slice trickles and bulk flows),
  // 1-128 slices and several message sizes: the flat builders must
  // reproduce the reference materialization flow for flow, uniform and
  // aggregated alike.
  std::mt19937_64 rng(0x9e37'79b9);
  std::uniform_int_distribution<int> n_gpus(1, 16);
  std::uniform_int_distribution<int> n_slices(1, 128);
  std::uniform_int_distribution<int> shape(0, 3);
  const std::int64_t message_sizes[] = {1, 7, 256, 4096};
  for (int trial = 0; trial < 400; ++trial) {
    const int p = n_gpus(rng);
    const int self = std::uniform_int_distribution<int>(0, p - 1)(rng);
    const int slices = n_slices(rng);
    const std::int64_t mb = message_sizes[trial % 4];
    std::vector<std::int64_t> payload(static_cast<std::size_t>(p));
    for (auto& bytes : payload) {
      switch (shape(rng)) {
        case 0: bytes = 0; break;
        case 1: bytes = std::uniform_int_distribution<std::int64_t>(
                    1, mb * slices)(rng); break;
        default: bytes = std::uniform_int_distribution<std::int64_t>(
                     1, std::int64_t{1} << 22)(rng);
      }
    }
    const std::string what = "trial " + std::to_string(trial);
    const auto ref = referenceUniform(payload, self, slices, mb);
    const auto plan = makeUniformPlan(payload, self, slices, mb);
    expectSameSlices(plan, ref, what + " uniform");

    AggregatorParams params;
    params.aggregation_bytes =
        std::uniform_int_distribution<std::int64_t>(1, 1 << 16)(rng);
    params.max_wait = SimTime::us(
        std::uniform_int_distribution<int>(1, 400)(rng));
    const SimTime duration = SimTime::ms(1);
    expectSameSlices(aggregatePlan(plan, duration, params),
                     referenceAggregate(ref, duration, params),
                     what + " aggregated");
  }
}

TEST(MessagePlanTest, UniformPlanConservesBytes) {
  const auto plan = makeUniformPlan({0, 1000, 2000, 3000}, 0, 7, 256);
  EXPECT_EQ(plan.slices, 7);
  EXPECT_EQ(plan.totalPayloadBytes(), 6000);
  const Totals sent = totalsOf(readSlices(plan));
  EXPECT_EQ(sent.payload_bytes, 6000);
  EXPECT_EQ(sent.messages, plan.totalMessages());
  // ceil(per-slice bytes / 256) summed >= 6000/256.
  EXPECT_GE(sent.messages, 24);
}

TEST(MessagePlanTest, SelfTrafficExcluded) {
  const auto plan = makeUniformPlan({500, 500}, 1, 4, 256);
  const Slices slices = readSlices(plan);
  EXPECT_EQ(totalsOf(slices).payload_bytes, 500);
  std::size_t flows = 0;
  for (const auto& slice : slices) {
    for (const auto& f : slice) {
      EXPECT_EQ(f.dst, 0);
      ++flows;
    }
  }
  EXPECT_EQ(flows, 2u);  // 500 B = two 256-byte messages
}

TEST(MessagePlanTest, SpreadIsEven) {
  const auto plan = makeUniformPlan({0, 100000}, 0, 10, 256);
  std::int64_t total = 0;
  for (const auto& slice : readSlices(plan)) {
    ASSERT_EQ(slice.size(), 1u);
    // Whole-message granularity: each slice within one message of even.
    EXPECT_NEAR(static_cast<double>(slice[0].payload_bytes), 10000.0, 256.0);
    total += slice[0].payload_bytes;
  }
  EXPECT_EQ(total, 100000);
}

TEST(MessagePlanTest, TinyPayloadStillDelivered) {
  const auto plan = makeUniformPlan({0, 3}, 0, 8, 256);
  const Totals sent = totalsOf(readSlices(plan));
  EXPECT_EQ(sent.payload_bytes, 3);
  EXPECT_EQ(sent.messages, 1);
}

TEST(MessagePlanTest, ClosedFormSlicesReadOutOfOrderThrow) {
  // A closed-form slice is stepped from the one before it, so the cursor
  // must refuse any read but the next unread slice instead of emitting
  // the wrong flows.
  const auto plan = makeUniformPlan({0, 100000, 3000}, 0, 8, 256);
  ASSERT_TRUE(plan.closedForm());
  const Slices ref = referenceUniform({0, 100000, 3000}, 0, 8, 256);
  const auto expectSlice = [&](SliceCursor& cursor, int s) {
    expectSameFlows(cursor.slice(s), ref[static_cast<std::size_t>(s)],
                    "slice " + std::to_string(s));
  };

  SliceCursor skipped(plan);
  EXPECT_THROW(skipped.slice(1), InvalidArgumentError);  // 1 before 0
  expectSlice(skipped, 0);  // a refused read consumes nothing

  SliceCursor repeated(plan);
  expectSlice(repeated, 0);
  EXPECT_THROW(repeated.slice(0), InvalidArgumentError);  // 0 twice
  for (int s = 1; s < plan.slices; ++s) expectSlice(repeated, s);
  EXPECT_THROW(repeated.slice(plan.slices), InvalidArgumentError);
}

// --- In-kernel injection + quiet ---------------------------------------------

TEST(PgasRuntimeTest, AttachedPlanInjectsDuringKernel) {
  Rig rig(2);
  gpu::KernelDesc desc;
  desc.name = "fused";
  desc.duration = SimTime::ms(1);
  auto plan = makeUniformPlan({0, 1 << 20}, 0, 16, 256);
  rig.runtime.attachMessagePlan(desc, 0, std::move(plan));
  rig.system.launchKernel(0, desc);
  rig.system.syncAll();
  EXPECT_EQ(rig.fabric.totalPayloadBytes(), 1 << 20);
  // Injections spread across the kernel: several non-empty buckets.
  int nonzero = 0;
  const auto& c = rig.fabric.injectionCounter();
  for (std::size_t i = 0; i < c.numBuckets(); ++i) {
    if (c.bucket(i) > 0) ++nonzero;
  }
  EXPECT_GE(nonzero, 8);
}

TEST(PgasRuntimeTest, QuietExtendsKernelWhenCommDominates) {
  // Tiny compute, huge communication: the kernel must end at delivery.
  Rig rig(2);
  gpu::KernelDesc desc;
  desc.name = "comm_bound";
  desc.duration = SimTime::us(10);
  auto plan = makeUniformPlan({0, 256 << 20}, 0, 4, 256);
  rig.runtime.attachMessagePlan(desc, 0, std::move(plan));
  rig.system.launchKernel(0, desc);
  rig.system.syncAll();
  // 256 MiB at ~42 GB/s effective >> 10 us of compute.
  EXPECT_GT(rig.system.stream(0).lastCompletion(), SimTime::ms(5));
}

TEST(PgasRuntimeTest, QuietIsFreeWhenCommHidden) {
  Rig rig(2);
  gpu::KernelDesc desc;
  desc.name = "hidden";
  desc.duration = SimTime::ms(10);
  auto plan = makeUniformPlan({0, 1 << 20}, 0, 64, 256);
  rig.runtime.attachMessagePlan(desc, 0, std::move(plan));
  rig.system.launchKernel(0, desc);
  rig.system.syncAll();
  const SimTime end = rig.system.stream(0).lastCompletion();
  // Completion within a tight bound of compute end (last slice drain).
  EXPECT_LT(end, SimTime::ms(10.2) +
                     rig.system.costModel().kernel_launch_overhead);
}

TEST(PgasRuntimeTest, BadSourcePeThrows) {
  Rig rig(2);
  gpu::KernelDesc desc;
  desc.duration = SimTime::us(1);
  EXPECT_THROW(
      rig.runtime.attachMessagePlan(desc, 7, makeUniformPlan({0, 1}, 0, 1,
                                                             256)),
      InvalidArgumentError);
}

// --- Aggregator ----------------------------------------------------------------

TEST(AggregatorTest, ConservesBytesAndReducesMessages) {
  const auto plan = makeUniformPlan({0, 1 << 20}, 0, 64, 256);
  AggregatorParams params;
  params.aggregation_bytes = 64 * 1024;
  const auto agg = aggregatePlan(plan, SimTime::ms(1), params);
  EXPECT_EQ(agg.totalPayloadBytes(), plan.totalPayloadBytes());
  const Totals sent = totalsOf(readSlices(plan));
  const Totals aggregated = totalsOf(readSlices(agg));
  EXPECT_EQ(sent.payload_bytes, 1 << 20);
  EXPECT_EQ(aggregated.payload_bytes, sent.payload_bytes);
  EXPECT_LT(aggregated.messages, sent.messages / 10);
}

TEST(AggregatorTest, SizeTriggeredFlushesAreFullBuffers) {
  const auto plan = makeUniformPlan({0, 1 << 20}, 0, 64, 256);
  AggregatorParams params;
  params.aggregation_bytes = 64 * 1024;
  params.max_wait = SimTime::sec(1);  // effectively never by time
  const auto agg = aggregatePlan(plan, SimTime::ms(1), params);
  // All but the final quiet flush are exactly aggregation_bytes.
  std::int64_t full = 0, partial = 0;
  for (const auto& slice : readSlices(agg)) {
    for (const auto& f : slice) {
      if (f.payload_bytes == params.aggregation_bytes) {
        ++full;
      } else {
        ++partial;
      }
    }
  }
  EXPECT_EQ(full, (1 << 20) / params.aggregation_bytes);
  EXPECT_EQ(partial, 0);  // 1 MiB divides evenly into 16 KiB buffers
}

TEST(AggregatorTest, MaxWaitFlushesPartialBuffers) {
  // Slow trickle to one destination: without the wait trigger everything
  // would flush only at the end.
  const MessagePlan plan =
      planFromSlices(Slices(100, std::vector<SliceFlow>{{1, 128, 1}}));
  AggregatorParams params;
  params.aggregation_bytes = 1 << 20;      // never by size
  params.max_wait = SimTime::us(100);      // 10 slices of a 1 ms kernel
  const auto agg = aggregatePlan(plan, SimTime::ms(1), params);
  std::int64_t flushes = agg.totalMessages();
  EXPECT_GT(flushes, 5);
  EXPECT_LT(flushes, 20);
  EXPECT_EQ(agg.totalPayloadBytes(), 100 * 128);
}

TEST(AggregatorTest, QuietDrainsRemainder) {
  Slices slices(4);
  slices[0].push_back(SliceFlow{1, 100, 1});
  const MessagePlan plan = planFromSlices(slices);
  AggregatorParams params;  // defaults: large threshold, long wait
  params.aggregation_bytes = 1 << 20;
  params.max_wait = SimTime::sec(10);
  const auto agg = aggregatePlan(plan, SimTime::ms(1), params);
  EXPECT_EQ(agg.totalPayloadBytes(), 100);
  // Drained at the last slice.
  EXPECT_FALSE(readSlices(agg)[3].empty());
}

TEST(AggregatorTest, AggregatedKernelFasterOnMessageRateLimitedLink) {
  fabric::LinkParams nic;
  nic.bandwidth_bytes_per_sec = 25e9;
  nic.latency = SimTime::us(5);
  nic.header_bytes = 64;
  nic.max_messages_per_sec = 10e6;  // IB-like message-rate ceiling

  auto run = [&](const AggregatorParams* agg) {
    Rig rig(2, gpu::ExecutionMode::kTimingOnly, nic);
    gpu::KernelDesc desc;
    desc.name = "k";
    desc.duration = SimTime::ms(1);
    auto plan = makeUniformPlan({0, 64 << 20}, 0, 64, 256);
    rig.runtime.attachMessagePlan(desc, 0, std::move(plan), agg);
    rig.system.launchKernel(0, desc);
    rig.system.syncAll();
    return rig.system.stream(0).lastCompletion();
  };

  AggregatorParams params;
  params.aggregation_bytes = 128 * 1024;
  const SimTime raw = run(nullptr);
  const SimTime aggregated = run(&params);
  // 256 K messages at 10 M msg/s = 26 ms un-aggregated; aggregation
  // collapses that to ~bandwidth time.
  EXPECT_LT(aggregated, raw / 4);
}

TEST(AggregatorTest, InvalidParamsThrow) {
  const auto plan = makeUniformPlan({0, 100}, 0, 2, 256);
  AggregatorParams params;
  params.aggregation_bytes = 0;
  EXPECT_THROW(aggregatePlan(plan, SimTime::ms(1), params),
               InvalidArgumentError);
}

// --- Symmetric heap lifetime -------------------------------------------------

TEST(SymmetricHeapTest, FreeReleasesEveryPartitionAndInvalidates) {
  Rig rig(2);
  const auto used0 = rig.system.device(0).memoryUsedBytes();
  const auto used1 = rig.system.device(1).memoryUsedBytes();
  auto buf = rig.runtime.heap().alloc(256);
  EXPECT_TRUE(buf.valid());
  EXPECT_EQ(buf.numPes(), 2);
  EXPECT_EQ(buf.sizePerPe(), 256);
  EXPECT_EQ(rig.system.device(0).memoryUsedBytes(), used0 + 256 * 4);
  EXPECT_EQ(rig.system.device(1).memoryUsedBytes(), used1 + 256 * 4);
  rig.runtime.heap().free(buf);
  EXPECT_FALSE(buf.valid());
  EXPECT_EQ(buf.numPes(), 0);
  EXPECT_EQ(rig.system.device(0).memoryUsedBytes(), used0);
  EXPECT_EQ(rig.system.device(1).memoryUsedBytes(), used1);
}

TEST(SymmetricHeapTest, FreedHeapSpaceIsReusedSymmetrically) {
  Rig rig(2);
  auto a = rig.runtime.heap().alloc(128);
  const auto offset = a.on(0).offset();
  EXPECT_EQ(a.on(1).offset(), offset);  // symmetric address on every PE
  rig.runtime.heap().free(a);
  auto b = rig.runtime.heap().alloc(128);
  EXPECT_EQ(b.on(0).offset(), offset);
  EXPECT_EQ(b.on(1).offset(), offset);
  rig.runtime.heap().free(b);
}

TEST(SymmetricBufferTest, InvalidPeThrows) {
  Rig rig(2);
  auto buf = rig.runtime.heap().alloc(16);
  EXPECT_THROW(buf.on(-1), InvalidArgumentError);
  EXPECT_THROW(buf.on(2), InvalidArgumentError);
  const auto& cbuf = buf;
  EXPECT_THROW(cbuf.on(2), InvalidArgumentError);
  rig.runtime.heap().free(buf);
  SymmetricBuffer empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.on(0), InvalidArgumentError);
}

}  // namespace
}  // namespace pgasemb::pgas
