// Unit tests for the interconnect model: link serialization math, FIFO
// queueing, topology routing, byte conservation, and time-series
// counters.
#include <gtest/gtest.h>

#include <memory>

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
