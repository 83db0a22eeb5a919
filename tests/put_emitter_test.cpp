// Exact parity of the PGAS put emitter (DESIGN.md §9) with slice-by-slice
// emission.
//
// The reference below is the emission order the emitter replaced, kept
// as an oracle: each slice is read through a SliceCursor, grouped by
// destination node, and sent with plain Fabric::transfer(src, dst, ...)
// calls — intra-node flows first, then per remote node a gather to the
// own leader, one leader -> leader message (encoded when a codec is
// attached) and a scatter per destination. Seeded random small systems
// run the same kernels through both, and every link, fabric counter,
// codec statistic and kernel completion must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fabric/compression.hpp"
#include "fabric/fabric.hpp"
#include "fabric/topology.hpp"
#include "gpu/system.hpp"
#include "pgas/aggregator.hpp"
#include "pgas/comm_counter.hpp"
#include "pgas/message_plan.hpp"
#include "pgas/runtime.hpp"
#include "util/rng.hpp"

namespace pgasemb::pgas {
namespace {

/// One random system: its shape, routing, codec and how kernels drive
/// their slices.
struct Shape {
  int nodes = 1;
  int gpus_per_node = 2;
  bool shared_nic = false;
  bool hierarchical = false;
  enum class Codec { kOff, kFixed, kAdaptive } codec = Codec::kOff;
  bool aggregate = false;
  bool counter = false;
  /// A single NVLink node with every condition for coalesced launches.
  bool coalesced = false;

  int gpus() const { return nodes * gpus_per_node; }
  std::string describe() const {
    return std::to_string(nodes) + "x" + std::to_string(gpus_per_node) +
           (shared_nic ? " shared-nic" : "") + (hierarchical ? " hier" : "") +
           (codec == Codec::kFixed      ? " fixed-codec"
            : codec == Codec::kAdaptive ? " adaptive-codec"
                                        : "") +
           (aggregate ? " aggregated" : " closed-form") +
           (counter ? " counter" : "") +
           (coalesced ? " coalesced" : " per-event");
  }
};

fabric::LinkParams interLink() {
  fabric::LinkParams p;
  p.bandwidth_bytes_per_sec = 25e9;
  p.latency = SimTime::us(5.0);
  p.header_bytes = 64;
  p.max_messages_per_sec = 10e6;
  return p;
}

struct Flow {
  int src = 0;
  int dst = 0;
  std::int64_t payload_bytes = 0;
  std::int64_t n_messages = 0;
  std::int64_t wire_start_ps = 0;
  std::int64_t delivered_ps = 0;
  bool operator==(const Flow&) const = default;
};

struct Rig {
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  PgasRuntime runtime;
  std::unique_ptr<fabric::InterNodeCodec> codec;
  CommCounter counter{SimTime::us(2.0)};
  std::vector<Flow> flows;                ///< in injection order
  std::vector<std::int64_t> completions;  ///< per kernel, in launch order

  explicit Rig(const Shape& shape)
      : system(systemConfig(shape.gpus())),
        fabric(topology(shape), SimTime::us(3.0)),
        runtime(system, fabric) {
    runtime.setHierarchical(shape.hierarchical);
    runtime.setCoalescingEnabled(shape.coalesced);
    if (shape.codec != Shape::Codec::kOff) {
      codec = std::make_unique<fabric::InterNodeCodec>(
          std::vector<double>{1.0, 4.0, 40000.0}, 1e-2,
          shape.codec == Shape::Codec::kAdaptive, shape.nodes,
          interLink().bandwidth_bytes_per_sec, SimTime::us(4.0));
      runtime.setCodec(codec.get());
    }
    // Recording every flow's order re-arms per-event slices, so coalesced
    // systems are compared on link and counter state alone.
    if (!shape.coalesced) {
      fabric.setFlowObserver([this](int src, int dst, std::int64_t payload,
                                    std::int64_t msgs, SimTime wire_start,
                                    SimTime delivered) {
        flows.push_back(Flow{src, dst, payload, msgs, wire_start.count(),
                             delivered.count()});
      });
    }
  }

  static gpu::SystemConfig systemConfig(int gpus) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 1 << 30;
    return cfg;
  }

  static std::unique_ptr<fabric::Topology> topology(const Shape& shape) {
    if (shape.coalesced) {
      return std::make_unique<fabric::NvlinkAllToAllTopology>(
          shape.gpus(), fabric::LinkParams{});
    }
    return std::make_unique<fabric::MultiNodeTopology>(
        shape.nodes, shape.gpus_per_node, fabric::LinkParams{}, interLink(),
        shape.shared_nic);
  }

  /// Launches `desc` on `gpu`'s stream, recording its completion.
  void launch(int gpu, gpu::KernelDesc desc) {
    desc.finalize = [this, inner = std::move(desc.finalize)](SimTime end) {
      const SimTime done = inner ? inner(end) : end;
      completions.push_back(done.count());
      return done;
    };
    system.launchKernel(gpu, std::move(desc));
  }
};

/// The slice-by-slice emission the emitter replaced (fault-free): every
/// slice read through a SliceCursor and sent with Fabric::transfer.
void attachReference(Rig& rig, gpu::KernelDesc& desc, int src,
                     MessagePlan plan, bool hierarchical, bool counter) {
  auto cursor = std::make_shared<SliceCursor>(std::move(plan));
  auto last = std::make_shared<SimTime>(SimTime::zero());
  desc.slices = cursor->plan().slices;
  desc.on_slice = [&rig, src, hierarchical, counter, cursor, last](
                      int s, SimTime at) {
    fabric::Fabric& fabric = rig.fabric;
    fabric::InterNodeCodec* codec = rig.codec.get();
    const int gpn = fabric.topology().gpusPerNode();
    const int nodes = fabric.topology().numNodes();
    const int src_node = src / gpn;
    const auto flows = cursor->slice(s);
    const auto put = [&](const SliceFlow& f, SimTime delivered) {
      *last = std::max(*last, delivered);
      if (counter) rig.counter.record(at, f.payload_bytes);
    };
    const auto encode = [&](std::int64_t payload, SimTime t) {
      const std::int64_t wire = fabric::InterNodeCodec::compressedBytes(
          payload, codec->aggregateBits(src_node, t));
      codec->recordFlow(payload, wire);
      codec->recordEgress(src_node, t, wire);
      return wire;
    };
    const auto direct = [&](const SliceFlow& f) {
      std::int64_t wire = f.payload_bytes;
      if (codec != nullptr && f.payload_bytes > 0 &&
          f.payload_bytes % 4 == 0 && f.dst / gpn != src_node) {
        wire = encode(f.payload_bytes, at);
      }
      put(f, fabric.transfer(src, f.dst, wire, f.n_messages, at).delivered);
    };
    if (!hierarchical || nodes == 1) {
      for (const SliceFlow& f : flows) direct(f);
      return;
    }
    std::vector<std::vector<SliceFlow>> by_node(
        static_cast<std::size_t>(nodes));
    for (const SliceFlow& f : flows) {
      by_node[static_cast<std::size_t>(f.dst / gpn)].push_back(f);
    }
    for (const SliceFlow& f : by_node[static_cast<std::size_t>(src_node)]) {
      direct(f);
    }
    const int leader_s = src_node * gpn;
    for (int node = 0; node < nodes; ++node) {
      const auto& group = by_node[static_cast<std::size_t>(node)];
      if (node == src_node || group.empty()) continue;
      std::int64_t to_node = 0;
      std::int64_t msgs = 0;
      for (const SliceFlow& f : group) {
        to_node += f.payload_bytes;
        msgs += f.n_messages;
      }
      if (to_node == 0) {
        for (const SliceFlow& f : group) put(f, at);
        continue;
      }
      SimTime staged = at;
      if (src != leader_s) {
        staged = fabric.transfer(src, leader_s, to_node, msgs, at).delivered;
      }
      std::int64_t wire = to_node;
      if (codec != nullptr && to_node % 4 == 0) wire = encode(to_node, staged);
      const int leader_d = node * gpn;
      const SimTime landed =
          fabric.transfer(leader_s, leader_d, wire, 1, staged).delivered;
      for (const SliceFlow& f : group) {
        SimTime done = landed;
        if (f.dst != leader_d) {
          done = fabric.transfer(leader_d, f.dst, f.payload_bytes,
                                 f.n_messages, landed)
                     .delivered;
        }
        put(f, done);
      }
    }
  };
  desc.finalize = [last](SimTime compute_end) {
    return std::max(compute_end, *last);
  };
}

/// One kernel of a trial: its source, duration and plan.
struct Kernel {
  int src = 0;
  SimTime duration;
  MessagePlan plan;
};

AggregatorParams aggregatorParams() {
  AggregatorParams p;
  p.aggregation_bytes = 6 * 1024;
  p.max_wait = SimTime::us(7.0);
  return p;
}

void runEmitter(Rig& rig, const Shape& shape,
                const std::vector<Kernel>& kernels) {
  const AggregatorParams agg = aggregatorParams();
  for (const Kernel& k : kernels) {
    gpu::KernelDesc desc;
    desc.name = "fused";
    desc.duration = k.duration;
    rig.runtime.attachMessagePlan(desc, k.src, k.plan,
                                  shape.counter ? &rig.counter : nullptr,
                                  shape.aggregate ? &agg : nullptr);
    // The fast path must engage wherever it is allowed, or the
    // coalesced trials would compare per-event emission twice.
    EXPECT_EQ(static_cast<bool>(desc.on_launch), shape.coalesced)
        << shape.describe();
    rig.launch(k.src, std::move(desc));
  }
  rig.system.drain();
}

void runReference(Rig& rig, const Shape& shape,
                  const std::vector<Kernel>& kernels) {
  const AggregatorParams agg = aggregatorParams();
  for (const Kernel& k : kernels) {
    gpu::KernelDesc desc;
    desc.name = "fused";
    desc.duration = k.duration;
    MessagePlan plan = k.plan;
    if (shape.aggregate) plan = aggregatePlan(plan, k.duration, agg);
    attachReference(rig, desc, k.src, std::move(plan), shape.hierarchical,
                    shape.counter);
    rig.launch(k.src, std::move(desc));
  }
  rig.system.drain();
}

void expectSameSeries(const fabric::TimeSeriesCounter& got,
                      const fabric::TimeSeriesCounter& want,
                      const std::string& what) {
  ASSERT_EQ(got.numBuckets(), want.numBuckets()) << what;
  for (std::size_t i = 0; i < want.numBuckets(); ++i) {
    EXPECT_EQ(got.bucket(i), want.bucket(i)) << what << " bucket " << i;
  }
  EXPECT_EQ(got.total(), want.total()) << what;
}

/// Every observable the two emissions could differ in.
void expectSameRun(Rig& got, Rig& want, const std::string& what) {
  const auto got_links = got.fabric.topology().links();
  const auto want_links = want.fabric.topology().links();
  ASSERT_EQ(got_links.size(), want_links.size()) << what;
  for (std::size_t i = 0; i < want_links.size(); ++i) {
    const fabric::Link& g = *got_links[i];
    const fabric::Link& w = *want_links[i];
    const std::string link = what + " link " + w.name();
    EXPECT_EQ(g.totalPayloadBytes(), w.totalPayloadBytes()) << link;
    EXPECT_EQ(g.totalMessages(), w.totalMessages()) << link;
    EXPECT_EQ(g.wireEquivalentBytes(), w.wireEquivalentBytes()) << link;
    EXPECT_EQ(got_links[i]->fifo().freeAt(), want_links[i]->fifo().freeAt())
        << link;
    EXPECT_EQ(got_links[i]->fifo().busyTime(),
              want_links[i]->fifo().busyTime())
        << link;
  }
  EXPECT_EQ(got.fabric.totalPayloadBytes(), want.fabric.totalPayloadBytes())
      << what;
  EXPECT_EQ(got.fabric.totalMessages(), want.fabric.totalMessages()) << what;
  expectSameSeries(got.fabric.injectionCounter(),
                   want.fabric.injectionCounter(), what + " injected");
  expectSameSeries(got.fabric.deliveryCounter(),
                   want.fabric.deliveryCounter(), what + " delivered");
  expectSameSeries(got.counter.series(), want.counter.series(),
                   what + " comm counter");
  ASSERT_EQ(got.codec != nullptr, want.codec != nullptr) << what;
  if (want.codec != nullptr) {
    EXPECT_EQ(got.codec->rawBytes(), want.codec->rawBytes()) << what;
    EXPECT_EQ(got.codec->wireBytes(), want.codec->wireBytes()) << what;
    EXPECT_EQ(got.codec->hotDecisions(), want.codec->hotDecisions()) << what;
    EXPECT_EQ(got.codec->coolDecisions(), want.codec->coolDecisions())
        << what;
  }
  EXPECT_EQ(got.completions, want.completions) << what;
  EXPECT_EQ(got.flows, want.flows) << what;
}

Shape randomShape(Rng& rng) {
  Shape s;
  s.coalesced = rng.uniformInt(0, 4) == 0;
  s.aggregate = rng.uniformInt(0, 2) == 0;
  if (s.coalesced) {
    s.nodes = 1;
    s.gpus_per_node = static_cast<int>(rng.uniformInt(2, 6));
    return s;
  }
  s.nodes = static_cast<int>(rng.uniformInt(1, 4));
  s.gpus_per_node = static_cast<int>(rng.uniformInt(1, 4));
  if (s.gpus() < 2) s.gpus_per_node = 2;
  s.shared_nic = rng.uniformInt(0, 1) == 1;
  s.hierarchical = rng.uniformInt(0, 3) != 0;
  s.codec = static_cast<Shape::Codec>(rng.uniformInt(0, 2));
  s.counter = rng.uniformInt(0, 2) == 0;
  return s;
}

std::vector<Kernel> randomKernels(Rng& rng, const Shape& shape) {
  const int gpus = shape.gpus();
  const std::int64_t message_bytes = rng.uniformInt(0, 1) ? 256 : 96;
  std::vector<Kernel> kernels;
  const int per_gpu = static_cast<int>(rng.uniformInt(1, 2));
  for (int k = 0; k < per_gpu; ++k) {
    for (int src = 0; src < gpus; ++src) {
      std::vector<std::int64_t> payload(static_cast<std::size_t>(gpus));
      for (auto& p : payload) {
        // Whole fp32 elements (encodable), an occasional odd size
        // (never encoded), and some silent destinations.
        const std::int64_t kind = rng.uniformInt(0, 9);
        p = kind == 0   ? 0
            : kind == 1 ? rng.uniformInt(1, 3000)
                        : 4 * rng.uniformInt(1, 20000);
      }
      const int slices = static_cast<int>(rng.uniformInt(1, 24));
      kernels.push_back(Kernel{
          src, SimTime::us(rng.uniformDouble(2.0, 120.0)),
          makeUniformPlan(payload, src, slices, message_bytes)});
    }
  }
  return kernels;
}

TEST(PutEmitterTest, MatchesSliceBySliceEmissionOnRandomSystems) {
  Rng rng(20261017);
  int coalesced = 0;
  int forwarded = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const Shape shape = randomShape(rng);
    const std::vector<Kernel> kernels = randomKernels(rng, shape);
    const std::string what =
        "trial " + std::to_string(trial) + " (" + shape.describe() + ")";
    Rig emitter(shape);
    Rig reference(shape);
    runEmitter(emitter, shape, kernels);
    runReference(reference, shape, kernels);
    expectSameRun(emitter, reference, what);
    if (HasFailure()) return;
    coalesced += shape.coalesced ? 1 : 0;
    forwarded += shape.hierarchical && shape.nodes > 1 ? 1 : 0;
  }
  // Both fast paths were exercised, not just the plain one.
  EXPECT_GT(coalesced, 20);
  EXPECT_GT(forwarded, 60);
}

TEST(PutEmitterTest, OwnLeaderFlowIsGrantedBeforeTheSlicesGathers) {
  // GPU 1 is node 0's non-leader: its flow to GPU 0 (its own leader) and
  // its gathers toward node 1 share the 1 -> 0 NVLink. The direct flow
  // must take the link first in every slice, exactly as slice-by-slice
  // emission grants it.
  Shape shape;
  shape.nodes = 2;
  shape.gpus_per_node = 2;
  shape.hierarchical = true;
  const std::vector<Kernel> kernels = {
      Kernel{1, SimTime::us(40.0),
             makeUniformPlan({4096, 0, 4096, 8192}, 1, 4, 256)}};
  Rig emitter(shape);
  Rig reference(shape);
  runEmitter(emitter, shape, kernels);
  runReference(reference, shape, kernels);
  expectSameRun(emitter, reference, "own-leader case");

  // Each slice: the direct 1 KiB flow to GPU 0, the 3 KiB gather of node
  // 1's share on the same link, one leader -> leader message, and the
  // scatter to GPU 3 (GPU 2 is node 1's leader).
  const std::vector<Flow> slice0 = {
      {1, 0, 1024, 4}, {1, 0, 3072, 12}, {0, 2, 3072, 1}, {2, 3, 2048, 8}};
  ASSERT_EQ(emitter.flows.size(), 4 * slice0.size());
  for (std::size_t i = 0; i < emitter.flows.size(); ++i) {
    const Flow& f = emitter.flows[i];
    const Flow& want = slice0[i % slice0.size()];
    EXPECT_EQ(std::tie(f.src, f.dst, f.payload_bytes, f.n_messages),
              std::tie(want.src, want.dst, want.payload_bytes,
                       want.n_messages))
        << "flow " << i;
  }
  // The gather queues behind the direct flow on the shared NVLink.
  EXPECT_GT(emitter.flows[1].wire_start_ps, emitter.flows[0].wire_start_ps);
}

}  // namespace
}  // namespace pgasemb::pgas
