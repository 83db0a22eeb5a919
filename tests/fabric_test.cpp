// Unit tests for the interconnect model: link serialization math, FIFO
// queueing, topology routing, byte conservation, time-series counters,
// and the arrival-ordered merge of a batch of flows.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <vector>

#include "fabric/fabric.hpp"
#include "fabric/link.hpp"
#include "fabric/time_series_counter.hpp"
#include "fabric/topology.hpp"
#include "util/expect.hpp"

namespace pgasemb::fabric {
namespace {

LinkParams testLink() {
  LinkParams p;
  p.bandwidth_bytes_per_sec = 100e9;  // 100 GB/s => 10 ps per byte
  p.latency = SimTime::us(1);
  p.header_bytes = 32;
  return p;
}

// --- Link -----------------------------------------------------------------

TEST(LinkTest, SerializationIncludesHeaders) {
  Link link("l", testLink());
  // 1 message of 1000 bytes: (1000 + 32) / 100e9 s.
  const SimTime t1 = link.serializationTime(1000, 1);
  EXPECT_NEAR(t1.toSec(), 1032.0 / 100e9, 1e-15);
  // Same payload in 10 messages costs 9 more headers.
  const SimTime t10 = link.serializationTime(1000, 10);
  EXPECT_GT(t10, t1);
  EXPECT_NEAR(t10.toSec(), 1320.0 / 100e9, 1e-15);
}

TEST(LinkTest, MessageRateCeilingDominatesForTinyMessages) {
  LinkParams p = testLink();
  p.max_messages_per_sec = 1e6;  // 1 M msg/s
  Link link("l", p);
  // 1000 messages at 1 M msg/s = 1 ms, far above the byte time.
  const SimTime t = link.serializationTime(1000 * 256, 1000);
  EXPECT_NEAR(t.toMs(), 1.0, 1e-9);
}

TEST(LinkTest, OccupyQueuesFifo) {
  Link link("l", testLink());
  const auto g1 = link.occupy(SimTime::zero(), 100'000, 1);
  const auto g2 = link.occupy(SimTime::zero(), 100'000, 1);
  EXPECT_EQ(g2.start, g1.end);
  EXPECT_EQ(link.totalPayloadBytes(), 200'000);
  EXPECT_EQ(link.totalMessages(), 2);
}

TEST(LinkTest, NegativeFlowRejected) {
  Link link("l", testLink());
  EXPECT_THROW(link.serializationTime(-1, 0), InvalidArgumentError);
}

TEST(LinkTest, OccupyMatchesFreshSerializationEveryFlow) {
  // occupy() reuses its last serialization when a flow repeats its shape.
  // Two links that share one NIC wire queue get a seeded sequence of
  // repeated, alternating and fresh (payload, messages, fraction) shapes,
  // then, after a reset(), one shape repeated straight through both edges
  // of a degrade window that changes the fraction mid-sequence. Every
  // grant and the wire-equivalent bytes must equal a reference that
  // serializes every flow afresh through a plain FIFO.
  LinkParams nic = testLink();
  nic.bandwidth_bytes_per_sec = 25e9;
  nic.header_bytes = 64;
  nic.max_messages_per_sec = 50e6;
  Link up("nic.up", nic);
  Link down("nic.down", nic);
  down.setWireQueue(&up.fifo());
  const SimTime degrade_start = SimTime::us(20);
  const SimTime degrade_end = SimTime::us(60);
  up.addFaultWindow({degrade_start, degrade_end, 0.5, SimTime::zero(), false});

  struct Shape {
    std::int64_t payload_bytes;
    std::int64_t n_messages;
    double fraction;
  };
  sim::FifoResource ref_wire("ref.wire");
  double ref_wire_bytes[2] = {0.0, 0.0};
  int degraded = 0;
  int flows = 0;
  const auto step = [&](int which, const Shape& shape, SimTime at) {
    Link& link = which == 0 ? up : down;
    double fraction = shape.fraction;
    const SimTime wire_at = ref_wire.nextFreeTime(at);
    if (which == 0 && wire_at >= degrade_start && wire_at < degrade_end) {
      fraction *= 0.5;
      ++degraded;
    }
    const SimTime wire_time = link.serializationTime(
        shape.payload_bytes, shape.n_messages, fraction);
    const auto want = ref_wire.acquire(at, wire_time);
    ref_wire_bytes[which] += wire_time.toSec() * nic.bandwidth_bytes_per_sec;

    const auto got = link.occupy(at, shape.payload_bytes, shape.n_messages,
                                 shape.fraction);
    ASSERT_EQ(got.start.count(), want.start.count()) << "flow " << flows;
    ASSERT_EQ(got.end.count(), want.end.count()) << "flow " << flows;
    ASSERT_EQ(up.wireEquivalentBytes(), ref_wire_bytes[0]) << "flow " << flows;
    ASSERT_EQ(down.wireEquivalentBytes(), ref_wire_bytes[1])
        << "flow " << flows;
    ++flows;
  };

  std::mt19937_64 rng(0x11'4c'9d);
  const std::int64_t payloads[] = {0, 256, 4096, 65536};
  const std::int64_t messages[] = {0, 1, 16, 256};
  const double fractions[] = {1.0, 0.8, 0.5, 0.37};
  const auto pick = [&rng](const auto& options) {
    return options[std::uniform_int_distribution<std::size_t>(
        0, std::size(options) - 1)(rng)];
  };
  std::vector<Shape> recent = {{4096, 16, 1.0}, {256, 1, 1.0}};
  SimTime at = SimTime::zero();
  for (int i = 0; i < 3000; ++i) {
    Shape shape;
    switch (std::uniform_int_distribution<int>(0, 9)(rng)) {
      case 0: case 1: case 2: case 3: shape = recent.back(); break;
      case 4: case 5: shape = recent[recent.size() - 2]; break;
      default:
        shape = {pick(payloads), pick(messages), pick(fractions)};
        if (shape.payload_bytes > 0 && rng() % 2 == 0) {
          shape.payload_bytes += static_cast<std::int64_t>(rng() % 1000);
        }
    }
    recent.push_back(shape);
    at += SimTime(std::uniform_int_distribution<std::int64_t>(
        0, 40'000)(rng));
    step(static_cast<int>(rng() % 2), shape, at);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(degraded, 0);

  up.reset();
  down.reset();
  ref_wire.reset();
  ref_wire_bytes[0] = ref_wire_bytes[1] = 0.0;
  degraded = 0;
  // 400 flows of one shape, 0.3 us apart: their wire starts sweep from
  // before the window, through it, to after it.
  for (int i = 0; i < 400; ++i) {
    step(0, {4096, 16, 1.0}, SimTime::ns(300.0 * i));
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(degraded, 0);
  EXPECT_LT(degraded, 400);
  EXPECT_GT(up.fifo().freeAt(), degrade_end);
}

// --- Topologies --------------------------------------------------------------

TEST(TopologyTest, NvlinkAllToAllHasDedicatedPairLinks) {
  NvlinkAllToAllTopology topo(4, testLink());
  EXPECT_EQ(topo.numGpus(), 4);
  EXPECT_EQ(topo.links().size(), 12u);  // 4*3 directed pairs
  auto r01 = topo.route(0, 1);
  auto r10 = topo.route(1, 0);
  ASSERT_EQ(r01.size(), 1u);
  ASSERT_EQ(r10.size(), 1u);
  EXPECT_NE(r01[0], r10[0]);  // directions are independent
  EXPECT_TRUE(topo.route(2, 2).empty());
}

TEST(TopologyTest, MultiNodeRoutesThroughNics) {
  MultiNodeTopology topo(2, 2, testLink(), testLink());
  EXPECT_EQ(topo.numGpus(), 4);
  // Same node: one NVLink hop.
  EXPECT_EQ(topo.route(0, 1).size(), 1u);
  // Cross node: up NIC + down NIC.
  auto r = topo.route(0, 3);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NE(r[0]->name().find("nic0.up"), std::string::npos);
  EXPECT_NE(r[1]->name().find("nic1.down"), std::string::npos);
}

TEST(TopologyTest, MultiNodeNicIsSharedAcrossGpus) {
  MultiNodeTopology topo(2, 2, testLink(), testLink());
  auto a = topo.route(0, 2);
  auto b = topo.route(1, 3);
  // Both cross-node routes from node 0 share nic0.up.
  EXPECT_EQ(a[0], b[0]);
}

TEST(TopologyTest, RoutesAreBuiltOnceAndBoundsChecked) {
  MultiNodeTopology topo(2, 2, testLink(), testLink());
  // Every call returns the same table storage: a transfer walks the
  // route built with the topology instead of materializing a new one.
  EXPECT_EQ(topo.route(0, 3).data(), topo.route(0, 3).data());
  EXPECT_THROW(topo.route(0, 4), InvalidArgumentError);
  EXPECT_THROW(topo.route(-1, 0), InvalidArgumentError);
}

// --- TimeSeriesCounter -------------------------------------------------------

TEST(CounterTest, BucketsAccumulate) {
  TimeSeriesCounter c(SimTime::us(10));
  c.add(SimTime::us(1), 5.0);
  c.add(SimTime::us(9), 5.0);
  c.add(SimTime::us(15), 2.0);
  EXPECT_DOUBLE_EQ(c.bucket(0), 10.0);
  EXPECT_DOUBLE_EQ(c.bucket(1), 2.0);
  EXPECT_DOUBLE_EQ(c.bucket(7), 0.0);
  EXPECT_DOUBLE_EQ(c.total(), 12.0);
}

TEST(CounterTest, CumulativePrefixSums) {
  TimeSeriesCounter c(SimTime::us(10));
  c.add(SimTime::us(5), 1.0);
  c.add(SimTime::us(25), 2.0);
  const auto cum = c.cumulative();
  ASSERT_EQ(cum.size(), 3u);
  EXPECT_DOUBLE_EQ(cum[0], 1.0);
  EXPECT_DOUBLE_EQ(cum[1], 1.0);
  EXPECT_DOUBLE_EQ(cum[2], 3.0);
}

TEST(TimeSeriesCounterTest, WindowMatchesDividingReference) {
  // add() divides only when a sample leaves the last bucket it touched.
  // Samples on both sides of bucket edges, far jumps ahead and back, and
  // a reset() must land exactly where dividing every sample puts them.
  const SimTime width = SimTime::us(5);
  const std::int64_t w = width.count();
  TimeSeriesCounter counter(width);
  std::vector<double> ref;
  double ref_total = 0.0;
  const auto add = [&](std::int64_t t, double amount) {
    counter.add(SimTime(t), amount);
    const auto idx = static_cast<std::size_t>(t / w);
    if (idx >= ref.size()) ref.resize(idx + 1, 0.0);
    ref[idx] += amount;
    ref_total += amount;
  };
  const auto expectMatches = [&](const char* when) {
    ASSERT_EQ(counter.numBuckets(), ref.size()) << when;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(counter.bucket(i), ref[i]) << when << " bucket " << i;
    }
    EXPECT_EQ(counter.total(), ref_total) << when;
  };

  std::mt19937_64 rng(0x7e'57);
  std::uniform_real_distribution<double> amount(0.0, 1e6);
  for (std::int64_t k = 1; k <= 6; ++k) {
    add(k * w - 1, amount(rng));
    add(k * w, amount(rng));
    add(k * w, amount(rng));
  }
  add(1000 * w + 3, amount(rng));  // far ahead...
  add(2 * w + 7, amount(rng));      // ...and back
  add(0, amount(rng));
  add(w - 1, amount(rng));
  add(1000 * w - 1, amount(rng));
  for (int i = 0; i < 2000; ++i) {
    add(std::uniform_int_distribution<std::int64_t>(0, 40 * w)(rng),
        amount(rng));
  }
  expectMatches("before reset");

  counter.reset();
  ref.clear();
  ref_total = 0.0;
  EXPECT_EQ(counter.numBuckets(), 0u);
  add(3 * w - 1, amount(rng));
  add(3 * w - 1, amount(rng));
  add(w, amount(rng));
  add(0, amount(rng));
  expectMatches("after reset");
}

TEST(TimeSeriesCounterTest, NegativeTimeThrowsAfterWindowMoves) {
  TimeSeriesCounter counter(SimTime::us(5));
  counter.add(SimTime::us(17), 2.0);  // window on bucket 3
  EXPECT_THROW(counter.add(SimTime(-1), 1.0), InvalidArgumentError);
  counter.add(SimTime::us(1), 1.0);  // window on bucket 0
  EXPECT_THROW(counter.add(SimTime(-1), 1.0), InvalidArgumentError);
  EXPECT_DOUBLE_EQ(counter.total(), 3.0);
}

// --- Fabric -------------------------------------------------------------------

TEST(FabricTest, DeliveryAddsSerializationAndLatency) {
  Fabric fabric(std::make_unique<NvlinkAllToAllTopology>(2, testLink()));
  const auto d = fabric.transfer(0, 1, 100'000, 1, SimTime::zero());
  const double ser_s = 100'032.0 / 100e9;
  EXPECT_NEAR(d.delivered.toSec(), ser_s + 1e-6, 1e-12);
}

TEST(FabricTest, LocalTransferIsFree) {
  Fabric fabric(std::make_unique<NvlinkAllToAllTopology>(2, testLink()));
  const auto d = fabric.transfer(1, 1, 1'000'000, 100, SimTime::us(5));
  EXPECT_EQ(d.delivered, SimTime::us(5));
  EXPECT_EQ(fabric.totalPayloadBytes(), 0);
}

TEST(FabricTest, CountersConserveBytes) {
  Fabric fabric(std::make_unique<NvlinkAllToAllTopology>(4, testLink()));
  std::int64_t sent = 0;
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      if (s == d) continue;
      fabric.transfer(s, d, 1000 * (s + 1), 4, SimTime::zero());
      sent += 1000 * (s + 1);
    }
  }
  EXPECT_EQ(fabric.totalPayloadBytes(), sent);
  EXPECT_DOUBLE_EQ(fabric.injectionCounter().total(),
                   static_cast<double>(sent));
  EXPECT_DOUBLE_EQ(fabric.deliveryCounter().total(),
                   static_cast<double>(sent));
}

TEST(FabricTest, CountersConserveBytesWhenFlapsDrop) {
  // A flap window on 0 -> 1 swallows the flows that overlap it: every
  // injected byte is then either delivered or counted as dropped.
  Fabric fabric(std::make_unique<NvlinkAllToAllTopology>(2, testLink()));
  fabric.topology().route(0, 1)[0]->addFaultWindow(
      {SimTime::us(10), SimTime::us(20), 1.0, SimTime::zero(), true});
  std::int64_t sent = 0;
  for (int i = 0; i < 30; ++i) {
    fabric.transfer(0, 1, 1000 + 100 * i, 4, SimTime::us(i));
    fabric.transfer(1, 0, 500, 1, SimTime::us(i));
    sent += 1000 + 100 * i + 500;
  }
  EXPECT_GT(fabric.droppedFlows(), 0);
  EXPECT_LT(fabric.droppedFlows(), 30);
  EXPECT_EQ(fabric.totalPayloadBytes(), sent);
  EXPECT_DOUBLE_EQ(fabric.injectionCounter().total(),
                   static_cast<double>(sent));
  EXPECT_EQ(fabric.injectionCounter().total(),
            fabric.deliveryCounter().total() +
                static_cast<double>(fabric.droppedPayloadBytes()));
  EXPECT_LT(fabric.deliveryCounter().total(), static_cast<double>(sent));
}

TEST(FabricTest, DisjointPairsDoNotContend) {
  Fabric fabric(std::make_unique<NvlinkAllToAllTopology>(4, testLink()));
  const auto d1 = fabric.transfer(0, 1, 1'000'000, 1, SimTime::zero());
  const auto d2 = fabric.transfer(2, 3, 1'000'000, 1, SimTime::zero());
  EXPECT_EQ(d1.delivered, d2.delivered);  // fully parallel
}

TEST(FabricTest, SamePairFlowsSerialize) {
  Fabric fabric(std::make_unique<NvlinkAllToAllTopology>(2, testLink()));
  const auto d1 = fabric.transfer(0, 1, 1'000'000, 1, SimTime::zero());
  const auto d2 = fabric.transfer(0, 1, 1'000'000, 1, SimTime::zero());
  EXPECT_GT(d2.delivered, d1.delivered);
}

TEST(FabricTest, SharedNicCongests) {
  LinkParams slow = testLink();
  slow.bandwidth_bytes_per_sec = 10e9;
  Fabric fabric(std::make_unique<MultiNodeTopology>(2, 2, testLink(),
                                                         slow));
  // Two different-source cross-node flows share nic0.up.
  const auto d1 = fabric.transfer(0, 2, 1'000'000, 1, SimTime::zero());
  const auto d2 = fabric.transfer(1, 3, 1'000'000, 1, SimTime::zero());
  EXPECT_GT(d2.delivered, d1.delivered);
}

TEST(FabricTest, ArrivalOrderServesEachLinkInTheOrderFlowsReachIt) {
  // Three single-GPU nodes: flows into node 2 share its NIC down-link.
  // Flow 0 is listed first but reaches that link after flow 1, which
  // therefore goes first; flows that reach it together keep list order.
  const LinkParams nic = testLink();
  Fabric fabric(std::make_unique<MultiNodeTopology>(3, 1, testLink(), nic));
  int observed = 0;
  fabric.setFlowObserver(
      [&observed](int, int, std::int64_t, std::int64_t, SimTime, SimTime) {
        ++observed;
      });
  const std::int64_t bytes = 2'000'000;  // 20 us on the wire
  const SimTime hop =
      Link("nic", nic).serializationTime(bytes, 1) + nic.latency;
  const SimTime wait = hop - nic.latency;
  const Fabric::Flow late_first[] = {
      {fabric.route(0, 2), bytes, 1, SimTime::us(10)},
      {fabric.route(1, 2), bytes, 1, SimTime::zero()},
  };
  const auto d = fabric.sendInArrivalOrder(late_first);
  EXPECT_EQ(d[1].delivered, hop * 2);
  EXPECT_EQ(d[0].delivered, hop * 2 + wait);
  // Each flow is accounted like a send(): observer, totals, counters.
  EXPECT_EQ(observed, 2);
  EXPECT_EQ(fabric.totalPayloadBytes(), 2 * bytes);
  EXPECT_EQ(fabric.totalMessages(), 2);
  EXPECT_DOUBLE_EQ(fabric.deliveryCounter().total(), 2.0 * bytes);

  fabric.reset();
  const Fabric::Flow ties[] = {
      {fabric.route(1, 2), bytes, 1, SimTime::zero()},
      {fabric.route(0, 2), bytes, 1, SimTime::zero()},
  };
  const auto t = fabric.sendInArrivalOrder(ties);
  EXPECT_EQ(t[0].delivered, hop * 2);
  EXPECT_EQ(t[1].delivered, hop * 2 + wait);
}

TEST(FabricTest, ArrivalOrderIsPerHopOnASharedNicQueue) {
  // One NIC queue per node serves both directions. Flow 1 leaves node 1
  // at 5 us, before flow 0 from node 0 reaches node 1's queue, so node
  // 1 sends before it receives: the merge orders hops, not whole flows.
  const LinkParams nic = testLink();
  Fabric fabric(std::make_unique<MultiNodeTopology>(
      2, 1, testLink(), nic, /*shared_nic_queue=*/true));
  const std::int64_t bytes = 2'000'000;
  const SimTime wire = Link("nic", nic).serializationTime(bytes, 1);
  const Fabric::Flow flows[] = {
      {fabric.route(0, 1), bytes, 1, SimTime::zero()},
      {fabric.route(1, 0), bytes, 1, SimTime::us(5)},
  };
  const auto d = fabric.sendInArrivalOrder(flows);
  EXPECT_EQ(d[0].delivered, SimTime::us(5) + wire * 2 + nic.latency);
  EXPECT_EQ(d[1].delivered, SimTime::us(5) + (wire + nic.latency) * 2);
}

TEST(FabricTest, ResetClearsCountersAndLinks) {
  Fabric fabric(std::make_unique<NvlinkAllToAllTopology>(2, testLink()));
  fabric.transfer(0, 1, 1000, 1, SimTime::zero());
  fabric.reset();
  EXPECT_EQ(fabric.totalPayloadBytes(), 0);
  EXPECT_DOUBLE_EQ(fabric.injectionCounter().total(), 0.0);
  const auto d = fabric.transfer(0, 1, 1000, 1, SimTime::zero());
  EXPECT_NEAR(d.delivered.toSec(), 1032.0 / 100e9 + 1e-6, 1e-12);
}

}  // namespace
}  // namespace pgasemb::fabric
