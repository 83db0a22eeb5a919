// Exact parity of the PGAS put emitter (DESIGN.md §9) with slice-by-slice
// emission.
//
// The reference below is the emission order the emitter replaced, kept
// as an oracle: each slice is read through a SliceCursor, grouped by
// destination node, and sent with plain Fabric::transfer(src, dst, ...)
// calls — intra-node flows first, then per remote node a gather to the
// own leader into a plain pending list. The list ships as one leader ->
// leader message (encoded when a codec is attached) and one scatter per
// destination GPU once its wire size reaches the NIC's rate floor, or at
// the kernel's last slice (DESIGN.md §12). Seeded random small systems
// run the same kernels through both, and every link, fabric counter,
// codec statistic and kernel completion must agree exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fabric/compression.hpp"
#include "fabric/fabric.hpp"
#include "fabric/topology.hpp"
#include "fault/hier_route.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "gpu/system.hpp"
#include "pgas/aggregator.hpp"
#include "pgas/message_plan.hpp"
#include "pgas/runtime.hpp"
#include "simsan/checker.hpp"
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
  /// A single NVLink node with every condition for coalesced launches.
  bool coalesced = false;
  /// The NIC's message-rate ceiling; without one no leader message is
  /// padded, so every slice ships as it is gathered.
  bool rate_ceiling = true;

  int gpus() const { return nodes * gpus_per_node; }
  std::string describe() const {
    return std::to_string(nodes) + "x" + std::to_string(gpus_per_node) +
           (shared_nic ? " shared-nic" : "") + (hierarchical ? " hier" : "") +
           (codec == Codec::kFixed      ? " fixed-codec"
            : codec == Codec::kAdaptive ? " adaptive-codec"
                                        : "") +
           (aggregate ? " aggregated" : " closed-form") +
           (coalesced ? " coalesced" : " per-event") +
           (rate_ceiling ? "" : " no-rate-ceiling");
  }
};

/// The IB-like NIC: 25 GB/s at 10 M msg/s with 64-byte headers, so a
/// leader message needs 2,500 - 64 wire bytes to clear the rate floor.
fabric::LinkParams interLink(bool rate_ceiling = true) {
  fabric::LinkParams p;
  p.bandwidth_bytes_per_sec = 25e9;
  p.latency = SimTime::us(5.0);
  p.header_bytes = 64;
  p.max_messages_per_sec = rate_ceiling ? 10e6 : 0.0;
  return p;
}
constexpr std::int64_t kIbFloor = 2436;

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
  std::unique_ptr<fault::HierRoute> route;
  std::unique_ptr<fabric::InterNodeCodec> codec;
  std::vector<Flow> flows;                ///< in injection order
  std::vector<std::int64_t> completions;  ///< per kernel, in launch order
  /// Reference only: leader messages that carried more than one slice.
  int multi_slice_ships = 0;

  explicit Rig(const Shape& shape, simsan::Checker* san = nullptr)
      : system(systemConfig(shape.gpus(), san)),
        fabric(topology(shape), SimTime::us(3.0)),
        runtime(system, fabric) {
    if (shape.hierarchical && shape.nodes > 1) {
      route = std::make_unique<fault::HierRoute>(fabric);
      runtime.setRoute(route.get());
    }
    runtime.setCoalescingEnabled(shape.coalesced);
    if (shape.codec != Shape::Codec::kOff) {
      codec = std::make_unique<fabric::InterNodeCodec>(
          std::vector<double>{1.0, 4.0, 40000.0}, 1e-2,
          shape.codec == Shape::Codec::kAdaptive, shape.nodes,
          shape.gpus_per_node, interLink().bandwidth_bytes_per_sec,
          SimTime::us(4.0));
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

  static gpu::SystemConfig systemConfig(int gpus, simsan::Checker* san) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 1 << 30;
    cfg.sanitizer = san;
    return cfg;
  }

  static std::unique_ptr<fabric::Topology> topology(const Shape& shape) {
    if (shape.coalesced) {
      return std::make_unique<fabric::NvlinkAllToAllTopology>(
          shape.gpus(), fabric::LinkParams{});
    }
    return std::make_unique<fabric::MultiNodeTopology>(
        shape.nodes, shape.gpus_per_node, fabric::LinkParams{},
        interLink(shape.rate_ceiling), shape.shared_nic);
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

/// The smallest leader -> leader wire size that no link of the a -> b
/// route pads: a message costs max((wire + header) / bandwidth, 1 / rate).
std::int64_t rateFloor(fabric::Fabric& fabric, int a, int b) {
  std::int64_t floor = 0;
  for (const fabric::Link* link : fabric.topology().route(a, b)) {
    const fabric::LinkParams& p = link->params();
    if (p.max_messages_per_sec <= 0.0) continue;
    const auto per_message = static_cast<std::int64_t>(
        std::ceil(p.bandwidth_bytes_per_sec / p.max_messages_per_sec));
    floor = std::max(floor, per_message - p.header_bytes);
  }
  return floor;
}

/// The slice-by-slice emission the emitter replaced (fault-free): every
/// slice read through a SliceCursor and sent with Fabric::transfer, and
/// per remote node a plain pending list at the source leader.
void attachReference(Rig& rig, gpu::KernelDesc& desc, int src,
                     MessagePlan plan, bool hierarchical) {
  struct Pending {
    std::vector<SliceFlow> puts;
    std::int64_t bytes = 0;
    SimTime staged = SimTime::zero();  ///< its last slice's gather
    int slices = 0;
  };
  auto cursor = std::make_shared<SliceCursor>(std::move(plan));
  auto last = std::make_shared<SimTime>(SimTime::zero());
  auto pending = std::make_shared<std::vector<Pending>>(
      static_cast<std::size_t>(rig.fabric.topology().numNodes()));
  desc.slices = cursor->plan().slices;
  desc.on_slice = [&rig, src, hierarchical, cursor, last, pending](
                      int s, SimTime at) {
    fabric::Fabric& fabric = rig.fabric;
    fabric::InterNodeCodec* codec = rig.codec.get();
    const int gpn = fabric.topology().gpusPerNode();
    const int nodes = fabric.topology().numNodes();
    const int src_node = src / gpn;
    const bool final_slice = s + 1 == cursor->plan().slices;
    const auto flows = cursor->slice(s);
    const auto put = [&](SimTime delivered) {
      *last = std::max(*last, delivered);
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
      put(fabric.transfer(src, f.dst, wire, f.n_messages, at).delivered);
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
      if (node == src_node) continue;
      const auto& group = by_node[static_cast<std::size_t>(node)];
      Pending& held = (*pending)[static_cast<std::size_t>(node)];
      std::int64_t to_node = 0;
      std::int64_t msgs = 0;
      for (const SliceFlow& f : group) {
        to_node += f.payload_bytes;
        msgs += f.n_messages;
      }
      if (!group.empty() && to_node == 0) {
        put(at);
      } else if (!group.empty()) {
        SimTime staged = at;
        if (src != leader_s) {
          staged =
              fabric.transfer(src, leader_s, to_node, msgs, at).delivered;
        }
        held.puts.insert(held.puts.end(), group.begin(), group.end());
        held.bytes += to_node;
        held.staged = std::max(held.staged, staged);
        ++held.slices;
      }
      if (held.puts.empty()) continue;
      const int leader_d = node * gpn;
      const bool encoded = codec != nullptr && held.bytes % 4 == 0;
      const std::int64_t peek =
          encoded ? fabric::InterNodeCodec::compressedBytes(
                        held.bytes, codec->peekBits(src_node, held.staged))
                  : held.bytes;
      if (!final_slice && peek < rateFloor(fabric, leader_s, leader_d)) {
        continue;
      }
      const SimTime ship_at =
          final_slice ? std::max(held.staged, at) : held.staged;
      const std::int64_t wire =
          encoded ? encode(held.bytes, ship_at) : held.bytes;
      const SimTime landed =
          fabric.transfer(leader_s, leader_d, wire, 1, ship_at).delivered;
      std::vector<SimTime> done(static_cast<std::size_t>(gpn), landed);
      for (int d = leader_d + 1; d < leader_d + gpn; ++d) {
        std::int64_t bytes = 0;
        std::int64_t n = 0;
        for (const SliceFlow& h : held.puts) {
          if (h.dst != d) continue;
          bytes += h.payload_bytes;
          n += h.n_messages;
        }
        if (bytes + n == 0) continue;
        done[static_cast<std::size_t>(d - leader_d)] =
            fabric.transfer(leader_d, d, bytes, n, landed).delivered;
      }
      for (const SliceFlow& h : held.puts) {
        put(done[static_cast<std::size_t>(h.dst - leader_d)]);
      }
      if (held.slices > 1) ++rig.multi_slice_ships;
      held = Pending{};
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
                                  shape.aggregate ? &agg : nullptr);
    // The fast path must engage wherever it is allowed, or the
    // coalesced trials would compare per-event emission twice.
    EXPECT_EQ(static_cast<bool>(desc.on_launch), shape.coalesced)
        << shape.describe();
    rig.launch(k.src, std::move(desc));
  }
  rig.system.simulator().run();
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
    attachReference(rig, desc, k.src, std::move(plan), shape.hierarchical);
    rig.launch(k.src, std::move(desc));
  }
  rig.system.simulator().run();
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
  s.rate_ceiling = rng.uniformInt(0, 3) != 0;
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
  int held = 0;
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
    held += reference.multi_slice_ships > 0 ? 1 : 0;
  }
  // Both fast paths were exercised, not just the plain one, and leaders
  // held slices back in many trials.
  EXPECT_GT(coalesced, 20);
  EXPECT_GT(forwarded, 60);
  EXPECT_GT(held, 40);
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

TEST(PutEmitterTest, NicWithoutRateCeilingSendsOneLeaderMessagePerSlice) {
  // GPU 1 sends each of node 1's GPUs two 256-byte messages per slice:
  // 1 KiB per slice for the node, under the IB floor. Without a rate
  // ceiling every slice ships as it is gathered. With one, the leader
  // holds three slices per message and ships the last two with the
  // kernel's last slice, and node 1's leader scatters one combined flow
  // per message to GPU 3.
  const std::vector<Kernel> kernels = {
      Kernel{1, SimTime::us(40.0),
             makeUniformPlan({0, 0, 4096, 4096}, 1, 8, 256)}};
  for (const bool ceiling : {false, true}) {
    Shape shape;
    shape.nodes = 2;
    shape.gpus_per_node = 2;
    shape.hierarchical = true;
    shape.rate_ceiling = ceiling;
    Rig emitter(shape);
    Rig reference(shape);
    EXPECT_EQ(rateFloor(reference.fabric, 0, 2), ceiling ? kIbFloor : 0);
    runEmitter(emitter, shape, kernels);
    runReference(reference, shape, kernels);
    expectSameRun(emitter, reference, shape.describe());

    std::vector<std::int64_t> leader;
    std::vector<std::int64_t> scatter;
    for (const Flow& f : emitter.flows) {
      if (f.src == 0 && f.dst == 2) {
        EXPECT_EQ(f.n_messages, 1) << shape.describe();
        leader.push_back(f.payload_bytes);
      }
      if (f.src == 2 && f.dst == 3) scatter.push_back(f.n_messages);
    }
    using Sizes = std::vector<std::int64_t>;
    const Sizes want_leader =
        ceiling ? Sizes{3072, 3072, 2048} : Sizes(8, 1024);
    const Sizes want_scatter = ceiling ? Sizes{6, 6, 4} : Sizes(8, 2);
    EXPECT_EQ(leader, want_leader) << shape.describe();
    EXPECT_EQ(scatter, want_scatter) << shape.describe();
    EXPECT_EQ(reference.multi_slice_ships, ceiling ? 3 : 0);
  }
}

TEST(PutEmitterTest, RemainderShipsAtTheLastSliceWithNothingForTheNode) {
  // An explicit plan from GPU 1: 600 B to GPU 2 in slice 0 and to GPU 3
  // in slice 1, nothing in slice 2, and only an intra-node flow in the
  // last slice. Node 1's 1,200 B never reach the IB floor, so the leader
  // holds them until the last slice and ships them then, in one message.
  MessagePlan plan;
  plan.slices = 4;
  plan.flows = {{2, 600, 1}, {3, 600, 1}, {0, 400, 1}};
  plan.slice_begin = {0, 1, 2, 2, 3};
  const std::vector<Kernel> kernels = {
      Kernel{1, SimTime::us(40.0), plan}};
  Shape shape;
  shape.nodes = 2;
  shape.gpus_per_node = 2;
  shape.hierarchical = true;
  Rig emitter(shape);
  Rig reference(shape);
  runEmitter(emitter, shape, kernels);
  runReference(reference, shape, kernels);
  expectSameRun(emitter, reference, "remainder case");

  // Two gathers, the last slice's direct flow to GPU 0, then the held
  // message and its scatter to GPU 3 (GPU 2 is node 1's leader).
  const std::vector<Flow> want = {{1, 0, 600, 1},
                                  {1, 0, 600, 1},
                                  {1, 0, 400, 1},
                                  {0, 2, 1200, 1},
                                  {2, 3, 600, 1}};
  ASSERT_EQ(emitter.flows.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Flow& f = emitter.flows[i];
    EXPECT_EQ(std::tie(f.src, f.dst, f.payload_bytes, f.n_messages),
              std::tie(want[i].src, want[i].dst, want[i].payload_bytes,
                       want[i].n_messages))
        << "flow " << i;
  }
  // The message leaves no earlier than the last slice.
  EXPECT_GE(emitter.flows[3].wire_start_ps, emitter.flows[2].wire_start_ps);
  EXPECT_EQ(emitter.runtime.declaredPutBytes(), 1600);
  EXPECT_EQ(emitter.runtime.latchedPutBytes(), 1600);
}

TEST(PutEmitterTest, ArmedInjectorHoldsNoMessageAcrossLeadersOrDegradedPeriods) {
  // 2 nodes x 3 GPUs. GPU 2 sends each of node 1's GPUs one 256-byte
  // message per slice (768 B per slice for the node, under the IB
  // floor), so its leader holds about four slices per message. Inside
  // the kernel node 0's leader fails over from GPU 0 to GPU 1, and later
  // node 1's NIC degrades, sending the pair direct for a while.
  Shape shape;
  shape.nodes = 2;
  shape.gpus_per_node = 3;
  shape.hierarchical = true;
  simsan::Checker checker;
  Rig rig(shape, &checker);
  fault::FaultInjector injector(fault::FaultPlan::parse(
      "leader-fail:0:0.03-0.05,nic-degrade:1:0.5:0.07-0.08", 7));
  injector.arm(rig.system, rig.fabric);
  rig.runtime.setFaultInjector(&injector);
  rig.route = std::make_unique<fault::HierRoute>(rig.fabric, &injector);
  rig.runtime.setRoute(rig.route.get());

  constexpr std::int64_t kBytes = 50 * 256;
  const auto out = simsan::StridedRange::contiguous(0, kBytes);
  std::vector<simsan::MemEffect> writes;
  for (int d = 3; d < 6; ++d) {
    checker.onAlloc(d, 0, kBytes, "out.gpu" + std::to_string(d));
    writes.push_back({d, out, simsan::AccessKind::kRemoteWrite, "fused.put"});
  }
  gpu::KernelDesc desc;
  desc.name = "fused";
  desc.duration = SimTime::us(100.0);
  rig.runtime.attachMessagePlan(
      desc, 2, makeUniformPlan({0, 0, 0, kBytes, kBytes, kBytes}, 2, 50, 256),
      nullptr, std::move(writes));
  rig.launch(2, std::move(desc));
  const SimTime now = rig.system.syncAll();
  for (int d = 3; d < 6; ++d) {
    checker.access(simsan::Checker::kHost, d, out, simsan::AccessKind::kRead,
                   now, now, "host.read.gpu" + std::to_string(d));
  }

  // In injection order: GPU 2's gathers go to node 0's elected leader,
  // each leader message carries exactly what its leader gathered since
  // the last one, and the degraded pair's direct puts go out with
  // nothing held.
  std::int64_t held[2] = {0, 0};
  int gathers[2] = {0, 0};
  int multi_slice = 0;
  int direct = 0;
  for (const Flow& f : rig.flows) {
    if (f.src == 2 && f.dst < 2) {
      EXPECT_EQ(held[1 - f.dst], 0) << "a message spans two source leaders";
      held[f.dst] += f.payload_bytes;
      ++gathers[f.dst];
    } else if (f.src < 2) {
      EXPECT_EQ(f.dst, 3);
      EXPECT_EQ(f.n_messages, 1);
      EXPECT_EQ(f.payload_bytes, held[f.src]);
      multi_slice += f.payload_bytes > 3 * 256 ? 1 : 0;
      held[f.src] = 0;
    } else if (f.src == 2) {
      EXPECT_EQ(held[0] + held[1], 0) << "a message spans a degraded period";
      ++direct;
    }
  }
  EXPECT_EQ(held[0] + held[1], 0);
  // The schedule reached every case it is meant to.
  EXPECT_GT(gathers[0], 0);
  EXPECT_GT(gathers[1], 0);
  EXPECT_GT(direct, 0);
  EXPECT_GT(multi_slice, 2);
  EXPECT_EQ(injector.stats().leader_failovers, 1);
  EXPECT_GT(injector.stats().hier_fallbacks, 0);

  EXPECT_EQ(rig.fabric.injectionCounter().total(),
            rig.fabric.deliveryCounter().total() +
                static_cast<double>(rig.fabric.droppedPayloadBytes()));
  EXPECT_EQ(rig.runtime.declaredPutBytes(), 3 * kBytes);
  EXPECT_EQ(rig.runtime.latchedPutBytes(), 3 * kBytes);
  const simsan::Summary summary = checker.summary();
  EXPECT_TRUE(summary.clean()) << summary.report();
  EXPECT_GT(summary.accesses_logged, 0u);
}

TEST(PutEmitterTest, SimsanSeesEveryHeldPutFromItsInjectionToItsScatter) {
  // 2 nodes x 2 GPUs under the IB rate ceiling: GPU 1 sends each of node
  // 1's GPUs two 256-byte messages per slice, so its leader holds three,
  // three and two slices per message. The host reads GPU 3's output after
  // the launch and with no sync, so every put the engine logs on GPU 3
  // races with that read: the checker counts one race per access call,
  // and each line pins one put's injection and its scatter's delivery.
  Shape shape;
  shape.nodes = 2;
  shape.gpus_per_node = 2;
  shape.hierarchical = true;
  simsan::Checker checker;
  Rig rig(shape, &checker);
  constexpr std::int64_t kBytes = 16 * 256;
  const auto out = simsan::StridedRange::contiguous(0, kBytes);
  std::vector<simsan::MemEffect> writes;
  for (int d = 2; d < 4; ++d) {
    checker.onAlloc(d, 0, kBytes, "out.gpu" + std::to_string(d));
    writes.push_back({d, out, simsan::AccessKind::kRemoteWrite, "fused.put"});
  }
  gpu::KernelDesc desc;
  desc.name = "fused";
  desc.duration = SimTime::us(40.0);
  rig.runtime.attachMessagePlan(
      desc, 1, makeUniformPlan({0, 0, kBytes, kBytes}, 1, 8, 256), nullptr,
      std::move(writes));
  rig.launch(1, std::move(desc));
  checker.access(simsan::Checker::kHost, 3, out, simsan::AccessKind::kRead,
                 SimTime::zero(), SimTime::zero(), "host.read.gpu3");
  rig.system.simulator().run();

  // 16 puts and the read. Each race line holds one put's injection (the
  // slices are 5 us apart) and its message's scatter delivery.
  const simsan::Summary summary = checker.summary();
  EXPECT_EQ(summary.accesses_logged, 17u);
  EXPECT_EQ(summary.races, 8);
  const char* const kPutWindows[][2] = {
      {"12.000 us", "36.111 us"}, {"17.000 us", "36.111 us"},
      {"22.000 us", "36.111 us"}, {"27.000 us", "51.111 us"},
      {"32.000 us", "51.111 us"}, {"37.000 us", "51.111 us"},
      {"42.000 us", "61.048 us"}, {"47.000 us", "61.048 us"}};
  std::vector<std::string> want;
  for (const auto& [at, delivered] : kPutWindows) {
    want.push_back(
        "device 3: read 'host.read.gpu3' by host at [0, 4096) over "
        "[0 ps, 0 ps]  ||  remote_write 'fused.put' by gpu1.pgas_put at "
        "[0, 4096) over [" +
        std::string(at) + ", " + delivered + "] — no happens-before edge");
  }
  std::vector<std::string> lines;
  for (const simsan::Violation& v : summary.violations) {
    lines.push_back(v.message);
  }
  EXPECT_EQ(lines, want);
}

}  // namespace
}  // namespace pgasemb::pgas
