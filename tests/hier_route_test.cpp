// HierRoute (DESIGN.md §12-13): the one object both retrievers ask who
// leads a node, whether a node pair runs flat, and which routes and rate
// floors forwarding takes. Built here by
// SystemBuilder on 3 nodes x 2 GPUs over the IB-like NIC, fault-free and
// under a leader failure on node 1 and a NIC degradation on node 2.
#include <gtest/gtest.h>

#include <string>

#include "engine/system_builder.hpp"
#include "fault/hier_route.hpp"
#include "fault/injector.hpp"

namespace pgasemb::engine {
namespace {

constexpr int kNodes = 3;
constexpr int kGpusPerNode = 2;

/// Table-wise hierarchical routing on 3 x 2 GPUs over the IB-like NIC:
/// 25 GB/s, 5 us, 64 B headers and, with a rate ceiling, 10 M msg/s.
ExperimentConfig routeConfig(const std::string& faults = "",
                             bool rate_ceiling = true) {
  ExperimentConfig cfg = weakScalingConfig(kNodes * kGpusPerNode);
  cfg.layer = emb::multinodeServingLayerSpec(kNodes * kGpusPerNode);
  cfg.num_nodes = kNodes;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5.0);
  cfg.inter_node_link.header_bytes = 64;
  cfg.inter_node_link.max_messages_per_sec = rate_ceiling ? 10e6 : 0.0;
  cfg.hierarchical_a2a = true;
  if (!faults.empty()) cfg.faults = fault::FaultPlan::parse(faults, 7);
  return cfg;
}

const SimTime kProbes[] = {SimTime::zero(),    SimTime::ms(0.5),
                           SimTime::ms(1.0),   SimTime::ms(1.5),
                           SimTime::ms(2.0),   SimTime::ms(3.0),
                           SimTime::ms(3.5),   SimTime::ms(4.0),
                           SimTime::ms(100.0)};

bool inside(SimTime t, double start_ms, double end_ms) {
  return t >= SimTime::ms(start_ms) && t < SimTime::ms(end_ms);
}

TEST(HierRouteTest, OnlyHierarchicalMultiNodeAssembliesBuildOne) {
  ExperimentConfig flat = routeConfig();
  flat.hierarchical_a2a = false;
  EXPECT_EQ(SystemBuilder(flat).context().route, nullptr);
  ExperimentConfig one_node = routeConfig();
  one_node.num_nodes = 1;
  EXPECT_EQ(SystemBuilder(one_node).context().route, nullptr);
  EXPECT_NE(SystemBuilder(routeConfig()).context().route, nullptr);
}

TEST(HierRouteTest, FaultFreeAnswersAreTheTopologyDefaults) {
  SystemBuilder builder(routeConfig());
  const fault::HierRoute* route = builder.context().route;
  ASSERT_NE(route, nullptr);
  ASSERT_EQ(route->numNodes(), kNodes);
  ASSERT_EQ(route->gpusPerNode(), kGpusPerNode);
  for (const SimTime t : kProbes) {
    for (int n = 0; n < kNodes; ++n) {
      EXPECT_EQ(route->leader(n, t), n * kGpusPerNode) << n;
      for (int m = 0; m < kNodes; ++m) {
        EXPECT_FALSE(route->degraded(n, m, t)) << n << "->" << m;
      }
    }
  }
  // bandwidth / rate - header = 2,500 - 64 bytes on every leader route.
  for (int a = 0; a < kNodes; ++a) {
    for (int b = 0; b < kNodes; ++b) {
      if (a == b) continue;
      EXPECT_EQ(route->rateFloor(a, b), 2436) << a << "->" << b;
    }
  }
  SystemBuilder uncapped(routeConfig("", /*rate_ceiling=*/false));
  EXPECT_EQ(uncapped.context().route->rateFloor(0, 2), 0);
}

TEST(HierRouteTest, FaultsMoveLeadersAndDegradePairsOnlyInsideTheirWindows) {
  SystemBuilder builder(
      routeConfig("leader-fail:1:1.0-2.0,nic-degrade:2:0.5:3.0-4.0"));
  const fault::HierRoute* route = builder.context().route;
  const fault::FaultInjector* injector = builder.faultInjector();
  ASSERT_NE(route, nullptr);
  ASSERT_NE(injector, nullptr);
  // One failover per node and fail window, however often it is asked.
  EXPECT_EQ(injector->stats().leader_failovers, 0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(route->leader(1, SimTime::ms(1.0 + 0.01 * i)), 3);
  }
  EXPECT_EQ(injector->stats().leader_failovers, 1);

  for (const SimTime t : kProbes) {
    const bool failed = inside(t, 1.0, 2.0);
    // Node 1's leadership moves to its second GPU only inside the
    // leader-fail window.
    EXPECT_EQ(route->leader(1, t), failed ? 3 : 2) << t.toMs();
    for (const int n : {0, 2}) {
      EXPECT_EQ(route->leader(n, t), n * kGpusPerNode) << t.toMs();
    }
    // Node 2's NIC fault degrades every pair it ends, only inside its
    // window; a pair it does not end never is.
    const bool degraded = inside(t, 3.0, 4.0);
    EXPECT_EQ(route->degraded(0, 2, t), degraded) << t.toMs();
    EXPECT_EQ(route->degraded(2, 0, t), degraded) << t.toMs();
    EXPECT_FALSE(route->degraded(0, 1, t)) << t.toMs();
  }
  EXPECT_EQ(injector->stats().leader_failovers, 1);
}

}  // namespace
}  // namespace pgasemb::engine
