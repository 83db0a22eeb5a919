// Multi-node retrieval suite (DESIGN.md §12): hierarchical all-to-all,
// topology-aware routing, and error-bounded inter-node compression.
//
// Layers covered:
//   - InterNodeCodec property tests: randomized round-trip error within
//     the bound, the exact wire-size formula, monotone width selection.
//   - Golden parity: with both features off, a 2-node run's totals are
//     pinned to the pre-§12 numbers — the refactor cannot move defaults.
//   - Modeled wins: at 4 nodes the hierarchical path must cut inter-node
//     wire-equivalent bytes >= 2x and improve ms/batch for all three
//     retrievers; fixed 1e-2 compression must cut codec bytes >= 4x more.
//   - Functional accuracy: cross-node values really pass through the
//     codec, and the measured max error respects the bound.
//   - Pairwise schedule: each node's leader ships to nodes n+1, n+2, ...
//     in turn, and no leader flow waits at its destination NIC.
//   - simsan certification of the hierarchical+compressed paths, plus a
//     seeded scatter-before-interflow-complete bug the checker must name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch_executor.hpp"
#include "engine/scenario_runner.hpp"
#include "fabric/compression.hpp"
#include "fabric/fabric.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "gpu/system.hpp"

namespace pgasemb::engine {
namespace {

const std::vector<std::string> kRetrievers = {
    "nccl_collective", "pgas_fused", "nccl_pipelined"};

/// The IB-like inter-node links every multi-node bench uses (and
/// bench/bench_multinode.cpp pins): 25 GB/s, 5 us, 64 B, 10 M msg/s.
void applyInterNodeLink(ExperimentConfig& cfg, int nodes) {
  cfg.num_nodes = nodes;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5.0);
  cfg.inter_node_link.header_bytes = 64;
  cfg.inter_node_link.max_messages_per_sec = 10e6;
}

/// 4-node x 4-GPU sweep cell on the bench's multi-node workload.
ExperimentConfig sweepConfig(int nodes, int per_node) {
  ExperimentConfig cfg = weakScalingConfig(nodes * per_node);
  cfg.layer = emb::multinodeServingLayerSpec(nodes * per_node);
  cfg.num_batches = 2;
  applyInterNodeLink(cfg, nodes);
  return cfg;
}

/// Hierarchical sweep cell with a parsed fault plan (pinned windows so
/// the schedule is explicit, not seed-drawn).
ExperimentConfig faultedConfig(int nodes, int per_node,
                               const std::string& spec) {
  ExperimentConfig cfg = sweepConfig(nodes, per_node);
  cfg.hierarchical_a2a = true;
  cfg.faults = fault::FaultPlan::parse(spec, 7);
  return cfg;
}

/// Small 2-node layer for Functional runs (real weights, real codec).
ExperimentConfig functionalConfig() {
  ExperimentConfig cfg = weakScalingConfig(4);
  cfg.layer.total_tables = 8;
  cfg.layer.rows_per_table = 4096;
  cfg.layer.dim = 32;
  cfg.layer.batch_size = 64;
  cfg.layer.min_pooling = 1;
  cfg.layer.max_pooling = 8;
  cfg.num_batches = 2;
  applyInterNodeLink(cfg, 2);
  cfg.mode = gpu::ExecutionMode::kFunctional;
  return cfg;
}

bool anyRaceMentions(const simsan::Summary& s, const std::string& one,
                     const std::string& two) {
  for (const auto& v : s.violations) {
    if (v.kind != simsan::Violation::Kind::kRace) continue;
    if (v.message.find(one) != std::string::npos &&
        v.message.find(two) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// InterNodeCodec property tests
// ---------------------------------------------------------------------------

TEST(InterNodeCodecTest, MinBitsMonotoneInBoundAndRange) {
  // Tighter bounds and wider ranges never pick narrower mantissas.
  for (const double range : {0.5, 1.0, 8.0, 100.0}) {
    int prev = fabric::InterNodeCodec::kIncompressibleBits + 1;
    for (const double bound : {1e-6, 1e-4, 1e-2, 1e-1, 0.5}) {
      const int bits = fabric::InterNodeCodec::minBitsFor(range, bound);
      EXPECT_LE(bits, prev) << "range " << range << " bound " << bound;
      prev = bits;
    }
  }
  for (const double bound : {1e-4, 1e-2}) {
    int prev = 0;
    for (const double range : {0.25, 1.0, 4.0, 64.0}) {
      const int bits = fabric::InterNodeCodec::minBitsFor(range, bound);
      EXPECT_GE(bits, prev) << "range " << range << " bound " << bound;
      prev = bits;
    }
  }
  // A bound no 16-bit mantissa can meet ships raw fp32.
  EXPECT_EQ(fabric::InterNodeCodec::minBitsFor(1e6, 1e-6),
            fabric::InterNodeCodec::kIncompressibleBits);
}

TEST(InterNodeCodecTest, RandomizedRoundTripWithinBound) {
  std::mt19937_64 rng(0x5eed'c0de);
  for (const double range : {1.0, 3.0, 42.0}) {
    for (const double bound : {1e-1, 1e-2, 1e-3}) {
      fabric::InterNodeCodec codec({range}, bound, /*adaptive=*/false,
                                   /*num_nodes=*/2, /*gpus_per_node=*/1,
                                   25e9);
      std::uniform_real_distribution<double> dist(-range, range);
      double max_err = 0.0;
      for (int i = 0; i < 2000; ++i) {
        const float v = static_cast<float>(dist(rng));
        const float back = codec.transcode(0, v);
        max_err = std::max(max_err, std::abs(double(back) - double(v)));
      }
      EXPECT_LE(max_err, bound) << "range " << range << " bound " << bound;
      // The codec's own bookkeeping agrees with the oracle above.
      EXPECT_NEAR(codec.tableStats()[0].max_abs_error, max_err, 1e-12);
      EXPECT_EQ(codec.tableStats()[0].samples, 2000);
    }
  }
}

TEST(InterNodeCodecTest, CompressedBytesFormulaExact) {
  using Codec = fabric::InterNodeCodec;
  // bits-per-element packing plus the flow header, rounded up to bytes.
  EXPECT_EQ(Codec::compressedBytes(4096, 7),
            (4096 / 4 * 7 + 7) / 8 + Codec::kFlowHeaderBytes);
  EXPECT_EQ(Codec::compressedBytes(4, 16),
            2 + Codec::kFlowHeaderBytes);
  EXPECT_EQ(Codec::compressedBytes(400, 2),
            (100 * 2 + 7) / 8 + Codec::kFlowHeaderBytes);
  // Incompressible tables pass through without the header.
  EXPECT_EQ(Codec::compressedBytes(4096, Codec::kIncompressibleBits), 4096);
  // No payload, no flow: empty transfers ship nothing, not a header.
  EXPECT_EQ(Codec::compressedBytes(0, 7), 0);
}

TEST(InterNodeCodecTest, MinPayloadForIsTheFewestElementsReachingAWireSize) {
  using Codec = fabric::InterNodeCodec;
  for (const int bits : {2, 7, 10, 16, Codec::kIncompressibleBits}) {
    for (std::int64_t wire = -3; wire <= 3000; ++wire) {
      const std::int64_t payload = Codec::minPayloadFor(wire, bits);
      ASSERT_EQ(payload % 4, 0) << bits << " bits, wire " << wire;
      EXPECT_GE(Codec::compressedBytes(payload, bits), wire)
          << bits << " bits, wire " << wire;
      if (payload > 0) {
        EXPECT_LT(Codec::compressedBytes(payload - 4, bits), wire)
            << bits << " bits, wire " << wire;
      }
    }
  }
  // The IB floor (2,436 wire bytes) at the light and the 10-bit widths.
  EXPECT_EQ(Codec::minPayloadFor(2436, 16), 4856);
  EXPECT_EQ(Codec::minPayloadFor(2436, 10), 7768);
}

TEST(InterNodeCodecTest, AggregateBitsFixedVersusAdaptive) {
  // Two tables: range 1 and range 8 -> the aggregate width is the wider
  // of the two minimal widths.
  const double bound = 1e-2;
  const int wide = fabric::InterNodeCodec::minBitsFor(8.0, bound);
  fabric::InterNodeCodec fixed({1.0, 8.0}, bound, /*adaptive=*/false, 2, 1,
                               25e9);
  EXPECT_EQ(fixed.aggregateBits(0, SimTime::zero()), wide);

  // Adaptive with no observed egress: the NIC is cool, so flows ship at
  // the light width; after saturating egress the width tightens.
  fabric::InterNodeCodec adaptive({1.0, 8.0}, bound, /*adaptive=*/true, 2,
                                  1, 25e9, SimTime::us(20.0));
  EXPECT_EQ(adaptive.aggregateBits(0, SimTime::us(50.0)),
            fabric::InterNodeCodec::kLightBits);
  for (int b = 0; b < 5; ++b) {
    adaptive.recordEgress(0, SimTime::us(20.0 * b + 10.0),
                          std::int64_t(25e9 * 20e-6));  // 100% of a bucket
  }
  EXPECT_EQ(adaptive.aggregateBits(0, SimTime::us(110.0)), wide);
}

// ---------------------------------------------------------------------------
// Golden parity: defaults must not move
// ---------------------------------------------------------------------------

TEST(MultiNodeGoldenTest, DefaultsMatchPreHierarchicalTotals) {
  // weakScalingConfig(8), 3 batches, 2 nodes on the IB-like links: the
  // exact totals recorded before the §12 features landed (times
  // re-recorded when each node got its own host). Any drift here means
  // the flags-off paths changed behavior.
  struct Golden {
    const char* retriever;
    std::int64_t total_ps;
    std::int64_t wire_bytes;
    std::int64_t wire_messages;
  };
  const Golden golden[] = {
      {"nccl_collective", 531872642634, 5637144576, 1344},
      {"pgas_fused", 630467198034, 5637144576, 22020096},
      {"nccl_pipelined", 424529753608, 5637144576, 1344},
  };
  ExperimentConfig cfg = weakScalingConfig(8);
  cfg.num_batches = 3;
  applyInterNodeLink(cfg, 2);
  for (const auto& g : golden) {
    ScenarioRunner runner(cfg);
    const ExperimentResult r = runner.run(g.retriever);
    EXPECT_EQ(r.stats.total.count(), g.total_ps) << g.retriever;
    EXPECT_EQ(r.total_wire_bytes, g.wire_bytes) << g.retriever;
    EXPECT_EQ(r.total_wire_messages, g.wire_messages) << g.retriever;
    // Defaults carry no multi-node extras beyond the traffic split.
    EXPECT_FALSE(r.compression.has_value()) << g.retriever;
    ASSERT_TRUE(r.inter_node.has_value()) << g.retriever;
    EXPECT_GT(r.inter_node->inter_payload_bytes, 0) << g.retriever;
  }
}

TEST(MultiNodeGoldenTest, SingleNodeReportsNoInterNodeSection) {
  ExperimentConfig cfg = weakScalingConfig(2);
  cfg.num_batches = 2;
  ScenarioRunner runner(cfg);
  const ExperimentResult r = runner.run("nccl_collective");
  EXPECT_FALSE(r.inter_node.has_value());
  EXPECT_FALSE(r.compression.has_value());
}

// The hierarchical path, pinned: 4 nodes x 4 GPUs (sweepConfig), all
// three retrievers, hierarchical routing alone, with the adaptive codec,
// and under leader-fail + nic-flap faults. The numbers were recorded
// before PGAS forwarding was regrouped per node and re-recorded when each
// node got its own host (nccl_pipelined's again when it gained the leader
// staging kernels, both collectives' fault pins when the standby's
// rebuild moved before its gather, and both collectives' totals when the
// exchange became pairwise and its pipelined form began routing when it
// starts); every simulated total, byte, message, codec decision and
// resilience counter must stay put.

struct TrafficPin {
  const char* retriever;
  std::int64_t total_ps;
  std::int64_t wire_bytes;
  std::int64_t wire_messages;
  double inter_wire_equivalent_bytes;
};

void expectTrafficPinned(const ExperimentResult& r, const TrafficPin& pin) {
  EXPECT_EQ(r.stats.total.count(), pin.total_ps) << pin.retriever;
  EXPECT_EQ(r.total_wire_bytes, pin.wire_bytes) << pin.retriever;
  EXPECT_EQ(r.total_wire_messages, pin.wire_messages) << pin.retriever;
  ASSERT_TRUE(r.inter_node.has_value()) << pin.retriever;
  EXPECT_DOUBLE_EQ(r.inter_node->inter_wire_equivalent_bytes,
                   pin.inter_wire_equivalent_bytes)
      << pin.retriever;
}

ExperimentConfig hierConfig() {
  ExperimentConfig cfg = sweepConfig(4, 4);
  cfg.hierarchical_a2a = true;
  return cfg;
}

TEST(MultiNodeGoldenTest, HierarchicalTotalsArePinned) {
  const TrafficPin pins[] = {
      {"nccl_collective", 5367017592, 553648128, 288, 402659328.0},
      {"pgas_fused", 2164211130, 553648128, 1388544, 404226048.0},
      {"nccl_pipelined", 4304932677, 553648128, 288, 402659328.0},
  };
  for (const auto& pin : pins) {
    const ExperimentResult r = ScenarioRunner(hierConfig()).run(pin.retriever);
    expectTrafficPinned(r, pin);
    EXPECT_FALSE(r.compression.has_value()) << pin.retriever;
    EXPECT_FALSE(r.resilience.has_value()) << pin.retriever;
  }
}

TEST(MultiNodeGoldenTest, HierarchicalAdaptiveCodecIsPinned) {
  struct Pin {
    TrafficPin traffic;
    std::int64_t raw_bytes, wire_bytes, hot_decisions, cool_decisions;
  };
  const Pin pins[] = {
      {{"nccl_collective", 4688129436, 452985024, 288, 201449664.0},
       201326592, 100663488, 0, 24},
      {{"pgas_fused", 637183290, 401141760, 1388544, 99213312.0},
       201326592, 48820224, 11272, 1016},
      {{"nccl_pipelined", 3626044521, 452985024, 288, 201449664.0},
       201326592, 100663488, 0, 24},
  };
  ExperimentConfig cfg = hierConfig();
  cfg.compress_bound = 1e-2;
  cfg.compress_adaptive = true;
  for (const auto& pin : pins) {
    const char* name = pin.traffic.retriever;
    const ExperimentResult r = ScenarioRunner(cfg).run(name);
    expectTrafficPinned(r, pin.traffic);
    ASSERT_TRUE(r.compression.has_value()) << name;
    EXPECT_EQ(r.compression->raw_bytes, pin.raw_bytes) << name;
    EXPECT_EQ(r.compression->wire_bytes, pin.wire_bytes) << name;
    EXPECT_EQ(r.compression->hot_decisions, pin.hot_decisions) << name;
    EXPECT_EQ(r.compression->cool_decisions, pin.cool_decisions) << name;
  }
}

TEST(MultiNodeGoldenTest, HierarchicalUnderNodeFaultsIsPinned) {
  // Node 1's leader fails for the whole run and node 2's NIC flaps from
  // the first lookup's slices onwards, so every retriever exercises
  // failover, per-pair degraded mode and re-sends. No codec: the pins
  // cover forwarding only.
  struct Pin {
    TrafficPin traffic;
    std::int64_t faults_injected, dropped_flows, dropped_bytes, retransmits,
        retransmitted_bytes, collective_reissues, recovery_ps,
        hier_fallbacks, degraded_ps, leader_failovers, staging_rebuilds;
  };
  const Pin pins[] = {
      {{"nccl_collective", 12039380832, 482869248, 345, 916235406.625},
       11, 9, 4718592, 0, 4718592, 9, 2908666965, 24, 7523946135, 1, 1},
      {{"pgas_fused", 9831219298, 499744768, 1311922, 1017726912.0},
       12, 10, 163840, 10, 163840, 0, 3082507688, 2136, 8657291902, 1, 0},
      {{"nccl_pipelined", 11015343645, 483393536, 346, 922228000.875},
       12, 10, 5242880, 0, 5242880, 10, 3708666965, 24, 7818353675, 1, 1},
  };
  const ExperimentConfig cfg = faultedConfig(
      4, 4, "leader-fail:1:0.0-1000000.0,nic-flap:2:0.04-1.5");
  for (const auto& pin : pins) {
    const char* name = pin.traffic.retriever;
    const ExperimentResult r = ScenarioRunner(cfg).run(name);
    expectTrafficPinned(r, pin.traffic);
    EXPECT_FALSE(r.compression.has_value()) << name;
    ASSERT_TRUE(r.resilience.has_value()) << name;
    const auto& rs = *r.resilience;
    EXPECT_EQ(rs.faults_injected, pin.faults_injected) << name;
    EXPECT_EQ(rs.dropped_flows, pin.dropped_flows) << name;
    EXPECT_EQ(rs.dropped_bytes, pin.dropped_bytes) << name;
    EXPECT_EQ(rs.retransmits, pin.retransmits) << name;
    EXPECT_EQ(rs.retransmitted_bytes, pin.retransmitted_bytes) << name;
    EXPECT_EQ(rs.collective_reissues, pin.collective_reissues) << name;
    EXPECT_EQ(rs.recovery_latency.count(), pin.recovery_ps) << name;
    EXPECT_EQ(rs.hier_fallbacks, pin.hier_fallbacks) << name;
    EXPECT_EQ(rs.degraded_time.count(), pin.degraded_ps) << name;
    EXPECT_EQ(rs.leader_failovers, pin.leader_failovers) << name;
    EXPECT_EQ(rs.staging_rebuilds, pin.staging_rebuilds) << name;
  }
}

// ---------------------------------------------------------------------------
// Modeled wins: hierarchy and compression
// ---------------------------------------------------------------------------

TEST(HierarchicalTest, CutsInterBytesAndImprovesLatencyAt4Nodes) {
  for (const auto& name : kRetrievers) {
    ExperimentConfig flat = sweepConfig(4, 4);
    const ExperimentResult base = ScenarioRunner(flat).run(name);

    ExperimentConfig hier = sweepConfig(4, 4);
    hier.hierarchical_a2a = true;
    const ExperimentResult h = ScenarioRunner(hier).run(name);

    ASSERT_TRUE(base.inter_node.has_value()) << name;
    ASSERT_TRUE(h.inter_node.has_value()) << name;
    // >= 2x fewer wire-equivalent bytes across node boundaries (headers
    // and message-rate padding included) and fewer inter-node messages.
    EXPECT_LE(h.inter_node->inter_wire_equivalent_bytes * 2.0,
              base.inter_node->inter_wire_equivalent_bytes)
        << name;
    EXPECT_LT(h.inter_node->inter_messages,
              base.inter_node->inter_messages)
        << name;
    // And the modeled batch time improves.
    EXPECT_LT(h.avgBatchMs(), base.avgBatchMs()) << name;
  }
}

TEST(CompressionTest, FixedBoundCutsCodecBytesAtLeast4x) {
  // On the multi-node workload (range 1 pooled values) a 1e-2 bound
  // picks 7-bit mantissas: 32/7 with the header is > 4x.
  ExperimentConfig cfg = sweepConfig(4, 4);
  cfg.hierarchical_a2a = true;
  cfg.compress_bound = 1e-2;
  for (const auto& name : kRetrievers) {
    const ExperimentResult r = ScenarioRunner(cfg).run(name);
    ASSERT_TRUE(r.compression.has_value()) << name;
    EXPECT_GE(r.compression->ratio(), 4.0) << name;
    EXPECT_GT(r.compression->raw_bytes, 0) << name;
  }
  // For the chunked collective the win carries through to wire-equivalent
  // inter-node bytes too (one bulk flow per node pair, no rate padding).
  ExperimentConfig off = sweepConfig(4, 4);
  off.hierarchical_a2a = true;
  const ExperimentResult plain = ScenarioRunner(off).run("nccl_collective");
  const ExperimentResult comp = ScenarioRunner(cfg).run("nccl_collective");
  ASSERT_TRUE(plain.inter_node.has_value());
  ASSERT_TRUE(comp.inter_node.has_value());
  EXPECT_LE(comp.inter_node->inter_wire_equivalent_bytes * 4.0,
            plain.inter_node->inter_wire_equivalent_bytes);
}

TEST(CompressionTest, AdaptiveControllerIsSeedDeterministic) {
  ExperimentConfig cfg = sweepConfig(2, 4);
  cfg.hierarchical_a2a = true;
  cfg.compress_bound = 1e-2;
  cfg.compress_adaptive = true;
  const ExperimentResult a = ScenarioRunner(cfg).run("pgas_fused");
  const ExperimentResult b = ScenarioRunner(cfg).run("pgas_fused");
  ASSERT_TRUE(a.compression.has_value());
  ASSERT_TRUE(b.compression.has_value());
  EXPECT_EQ(a.stats.total, b.stats.total);
  EXPECT_EQ(a.compression->wire_bytes, b.compression->wire_bytes);
  EXPECT_EQ(a.compression->hot_decisions, b.compression->hot_decisions);
  EXPECT_EQ(a.compression->cool_decisions, b.compression->cool_decisions);
  // The controller actually exercised both regimes' accounting.
  EXPECT_GT(a.compression->hot_decisions + a.compression->cool_decisions, 0);
}

TEST(CompressionTest, ArmedInjectorKeepsDirectPutsCompressed) {
  // Delivery-tracked direct puts (any armed fault plan) must go through
  // the codec like plain ones: a plan whose only window opens after the
  // run changes nothing, so flat PGAS ships the same compressed traffic.
  ExperimentConfig plain = sweepConfig(2, 4);
  plain.compress_bound = 1e-2;
  ExperimentConfig armed = plain;
  armed.faults = fault::FaultPlan::parse("node-straggle:1:1.01:1000-2000", 7);
  const ExperimentResult a = ScenarioRunner(plain).run("pgas_fused");
  const ExperimentResult b = ScenarioRunner(armed).run("pgas_fused");
  ASSERT_TRUE(a.compression.has_value());
  ASSERT_TRUE(b.compression.has_value());
  EXPECT_GT(a.compression->raw_bytes, 0);
  EXPECT_EQ(b.compression->raw_bytes, a.compression->raw_bytes);
  EXPECT_EQ(b.compression->wire_bytes, a.compression->wire_bytes);
  EXPECT_EQ(b.compression->hot_decisions, a.compression->hot_decisions);
  EXPECT_EQ(b.compression->cool_decisions, a.compression->cool_decisions);
  ASSERT_TRUE(a.inter_node.has_value());
  ASSERT_TRUE(b.inter_node.has_value());
  EXPECT_EQ(b.inter_node->inter_payload_bytes,
            a.inter_node->inter_payload_bytes);
  EXPECT_EQ(b.inter_node->inter_messages, a.inter_node->inter_messages);
  EXPECT_DOUBLE_EQ(b.inter_node->inter_wire_equivalent_bytes,
                   a.inter_node->inter_wire_equivalent_bytes);
  EXPECT_EQ(b.inter_node->intra_payload_bytes,
            a.inter_node->intra_payload_bytes);
  EXPECT_EQ(b.total_wire_bytes, a.total_wire_bytes);
  EXPECT_EQ(b.total_wire_messages, a.total_wire_messages);
}

TEST(CompressionTest, SharedNicQueueNeverFasterThanPerFlowQueues) {
  ExperimentConfig per_flow = sweepConfig(2, 4);
  ExperimentConfig shared = sweepConfig(2, 4);
  shared.nic_shared_queue = true;
  for (const auto& name : kRetrievers) {
    const ExperimentResult a = ScenarioRunner(per_flow).run(name);
    const ExperimentResult b = ScenarioRunner(shared).run(name);
    // Serializing each node's NIC injection can only add queueing delay.
    EXPECT_GE(b.stats.total, a.stats.total) << name;
  }
}

// ---------------------------------------------------------------------------
// Functional accuracy: the error is measured, not estimated
// ---------------------------------------------------------------------------

TEST(CompressionTest, FunctionalErrorStaysWithinBound) {
  for (const double bound : {1e-1, 1e-2}) {
    for (const auto& name : kRetrievers) {
      ExperimentConfig cfg = functionalConfig();
      cfg.hierarchical_a2a = true;
      cfg.compress_bound = bound;
      const ExperimentResult r = ScenarioRunner(cfg).run(name);
      ASSERT_TRUE(r.compression.has_value()) << name;
      EXPECT_GT(r.compression->maxAbsError(), 0.0) << name;
      EXPECT_LE(r.compression->maxAbsError(), bound) << name;
      std::int64_t samples = 0;
      for (const auto& t : r.compression->tables) {
        EXPECT_LE(t.max_abs_error, bound) << name << " table " << t.table;
        samples += t.samples;
      }
      // Cross-node values really passed through the codec.
      EXPECT_GT(samples, 0) << name;
    }
  }
}

TEST(CompressionTest, ValidationRejectsInconsistentFlags) {
  ExperimentConfig adaptive_without_bound = sweepConfig(2, 2);
  adaptive_without_bound.compress_adaptive = true;
  EXPECT_THROW(adaptive_without_bound.validate(), Error);

  ExperimentConfig negative_bound = sweepConfig(2, 2);
  negative_bound.compress_bound = -1e-3;
  EXPECT_THROW(negative_bound.validate(), Error);

  ExperimentConfig row_wise = sweepConfig(2, 2);
  row_wise.sharding = emb::ShardingScheme::kRowWise;
  row_wise.compress_bound = 1e-2;
  EXPECT_THROW(row_wise.validate(), Error);
}

// ---------------------------------------------------------------------------
// simsan certification of the new paths
// ---------------------------------------------------------------------------

TEST(MultiNodeSimsanTest, HierarchicalCompressedPathsAreClean) {
  // (nodes, GPUs per node): at 4 nodes the pairwise order rotates and
  // each NIC carries several staged flows; at 2 it carries one.
  const std::pair<int, int> widths[] = {{2, 2}, {2, 4}, {4, 2}};
  for (const auto& [nodes, per_node] : widths) {
    ExperimentConfig cfg = sweepConfig(nodes, per_node);
    cfg.num_batches = 2;
    cfg.hierarchical_a2a = true;
    cfg.compress_bound = 1e-2;
    cfg.simsan = true;
    for (const auto& name : kRetrievers) {
      const std::string what = name + " @" + std::to_string(nodes) + "x" +
                               std::to_string(per_node) + " GPUs";
      ScenarioRunner runner(cfg);
      const ExperimentResult r = runner.run(name);
      ASSERT_TRUE(r.sanitizer.has_value()) << what;
      EXPECT_TRUE(r.sanitizer->clean()) << what << "\n"
                                        << r.sanitizer->report();
    }
  }
}

TEST(MultiNodeSimsanTest, StrictEffectsHoldUnderHierarchyAndCompression) {
  // Strict mode replays actual simulated-memory touches against the
  // declared footprints; the leader staging kernels and the forwarded
  // hops must stay inside what they declared.
  for (const int nodes : {2, 4}) {
    ExperimentConfig cfg = sweepConfig(nodes, 2);
    cfg.num_batches = 2;
    cfg.hierarchical_a2a = true;
    cfg.compress_bound = 1e-2;
    cfg.simsan = true;
    cfg.simsan_strict = true;
    for (const auto& name : kRetrievers) {
      const std::string what = name + " @" + std::to_string(nodes) + " nodes";
      ScenarioRunner runner(cfg);
      const ExperimentResult r = runner.run(name);
      ASSERT_TRUE(r.sanitizer.has_value()) << what;
      EXPECT_TRUE(r.sanitizer->clean()) << what << "\n"
                                        << r.sanitizer->report();
    }
  }
}

// ---------------------------------------------------------------------------
// Node-level fault domains (DESIGN.md §13)
// ---------------------------------------------------------------------------

TEST(NodeFaultDomainTest, ValidationRejectsIllFormedNodeFaultLayouts) {
  // Node-scoped kinds need a multi-node layout...
  ExperimentConfig single = weakScalingConfig(4);
  single.num_batches = 2;
  single.faults = fault::FaultPlan::parse("nic-degrade:0:0.5", 7);
  EXPECT_THROW(single.validate(), Error);
  // ...leader failover needs a healthy standby GPU on the node...
  ExperimentConfig thin = sweepConfig(2, 1);
  thin.hierarchical_a2a = true;
  thin.faults = fault::FaultPlan::parse("leader-fail:0", 7);
  EXPECT_THROW(thin.validate(), Error);
  // The well-formed variants pass.
  EXPECT_NO_THROW(faultedConfig(2, 2, "leader-fail:0").validate());
}

TEST(NodeFaultDomainTest, LeaderFailoverElectsStandbyAndRebuildsStaging) {
  // A whole-run leader-fail window on node 0: every collective must
  // re-elect the next healthy GPU, and the standby staging is rebuilt
  // exactly once per (node, window).
  for (const auto& name : kRetrievers) {
    ExperimentConfig cfg =
        faultedConfig(2, 2, "leader-fail:0:0.0-1000000.0");
    const ExperimentResult r = ScenarioRunner(cfg).run(name);
    EXPECT_EQ(r.stats.batches, cfg.num_batches) << name;
    ASSERT_TRUE(r.resilience.has_value()) << name;
    EXPECT_EQ(r.resilience->leader_failovers, 1) << name;
    // The PGAS fused path re-routes its puts hop by hop to the elected
    // leader and keeps no staging, so only the collective retrievers
    // rebuild (exactly once per window).
    EXPECT_EQ(r.resilience->staging_rebuilds,
              name == std::string("pgas_fused") ? 0 : 1)
        << name;
  }
}

/// What one run did on the GPUs and on the wire.
struct Timeline {
  struct Kernel {
    int device;
    std::string name;
    SimTime start, end;
  };
  struct Flow {
    int src, dst;
    std::int64_t bytes, messages;
    SimTime start;  ///< on the wire
    SimTime delivered;
  };
  std::vector<Kernel> kernels;  ///< in completion order
  std::vector<Flow> flows;
  std::int64_t staging_rebuilds = 0;

  std::vector<Kernel> named(const std::string& name) const {
    std::vector<Kernel> out;
    for (const auto& k : kernels) {
      if (k.name == name) out.push_back(k);
    }
    return out;
  }
};

/// Runs `retriever` over a SystemBuilder with a kernel and a fabric flow
/// observer installed (ScenarioRunner::run resets the system, which would
/// drop them).
Timeline recordTimeline(const ExperimentConfig& cfg,
                        const std::string& retriever) {
  SystemBuilder builder(cfg);
  Timeline t;
  builder.system().setKernelObserver(
      [&t](int device, const std::string& name, SimTime start, SimTime end,
           SimTime) { t.kernels.push_back({device, name, start, end}); });
  builder.fabric().setFlowObserver(
      [&t](int src, int dst, std::int64_t bytes, std::int64_t messages,
           SimTime start, SimTime delivered) {
        t.flows.push_back({src, dst, bytes, messages, start, delivered});
      });
  BatchExecutor exec(builder, retriever);
  ExperimentResult result;
  const auto batch = emb::SparseBatch::statistical(cfg.layer.batchSpec());
  for (int b = 0; b < cfg.num_batches; ++b) exec.runOne(batch, result);
  exec.finishRun(result);
  if (const auto* injector = builder.faultInjector()) {
    t.staging_rebuilds = injector->stats().staging_rebuilds;
  }
  return t;
}

TEST(PairwiseExchangeTest, LeaderFlowsRotateAndNeverWaitAtTheirDestination) {
  // One fault-free hierarchical collective batch on 4 nodes x 4 GPUs.
  // Node n's leader ships to nodes n+1, n+2 and n+3 in that order, so
  // each step's flows leave for distinct nodes, and every hop is served
  // in arrival order: no leader-to-leader flow waits at its destination
  // NIC, so each lands two hops of serialization plus latency after its
  // wire start.
  ExperimentConfig cfg = hierConfig();
  cfg.num_batches = 1;
  const Timeline t = recordTimeline(cfg, "nccl_collective");
  const fabric::Link nic("nic", cfg.inter_node_link);
  const int gpn = 4;
  const int nodes = 4;
  std::vector<std::vector<Timeline::Flow>> from(nodes);
  for (const auto& f : t.flows) {
    if (f.src / gpn == f.dst / gpn) continue;
    ASSERT_EQ(f.src % gpn, 0) << f.src << "->" << f.dst;
    ASSERT_EQ(f.dst % gpn, 0) << f.src << "->" << f.dst;
    from[static_cast<std::size_t>(f.src / gpn)].push_back(f);
    const SimTime hop = nic.serializationTime(f.bytes, f.messages) +
                        cfg.inter_node_link.latency;
    EXPECT_EQ(f.delivered - f.start, hop * 2)
        << "flow " << f.src << "->" << f.dst << " at " << f.start.toUs()
        << " us waited " << (f.delivered - f.start - hop * 2).toUs()
        << " us at its destination";
  }
  for (int n = 0; n < nodes; ++n) {
    auto flows = from[static_cast<std::size_t>(n)];
    std::stable_sort(flows.begin(), flows.end(),
                     [](const auto& a, const auto& b) {
                       return a.start < b.start;
                     });
    std::vector<int> steps;
    for (const auto& f : flows) {
      const int step = (f.dst / gpn - n + nodes) % nodes;
      if (steps.empty() || steps.back() != step) steps.push_back(step);
    }
    EXPECT_EQ(steps, (std::vector<int>{1, 2, 3})) << "node " << n;
  }
}

TEST(NodeFaultDomainTest, StandbyStagingIsRebuiltBeforeAnythingWritesIt) {
  // Node 1's leader fails for the whole run, so GPU 5 leads node 1 from
  // the first batch, at every depth: its staging is rebuilt once, before
  // that batch's gather, every node-1 gather and demux runs on it, and no
  // flow into GPU 5 goes on the wire before the rebuild ends.
  const ExperimentConfig cfg =
      faultedConfig(4, 4, "leader-fail:1:0.0-1000000.0");
  for (const std::string name : {"nccl_collective", "nccl_pipelined"}) {
    const Timeline t = recordTimeline(cfg, name);
    EXPECT_EQ(t.staging_rebuilds, 1) << name;
    const auto rebuilds = t.named("emb_hier_rebuild.node1");
    ASSERT_EQ(rebuilds.size(), 1u) << name;
    const Timeline::Kernel& rebuild = rebuilds.front();
    EXPECT_EQ(rebuild.device, 5) << name;
    const auto gathers = t.named("emb_hier_gather.node1");
    const auto scatters = t.named("emb_hier_scatter.node1");
    ASSERT_EQ(gathers.size(), 2u) << name;
    ASSERT_EQ(scatters.size(), 2u) << name;
    for (const auto* kernels : {&gathers, &scatters}) {
      for (const auto& k : *kernels) {
        EXPECT_EQ(k.device, 5) << name << " " << k.name;
      }
    }
    EXPECT_LE(rebuild.end, gathers.front().start)
        << name << ": rebuild " << rebuild.start.toUs() << "-"
        << rebuild.end.toUs() << " us, gather "
        << gathers.front().start.toUs() << " us";
    for (const auto& f : t.flows) {
      if (f.dst != 5) continue;
      EXPECT_GE(f.start, rebuild.end)
          << name << ": flow from GPU " << f.src << " at "
          << f.start.toUs() << " us, rebuild ends at "
          << rebuild.end.toUs() << " us";
    }
  }
}

TEST(NodeFaultDomainTest, EachBatchKeepsTheLeaderItsGatherPicked) {
  // Node 1's leader fails at 0.12 ms: after batch 0's gather launch,
  // before its exchange. Batch 0 keeps the leader its gather picked
  // (GPU 4) for its exchange and its demux; batch 1 picks the standby,
  // GPU 5, whose staging is rebuilt before that batch's gather.
  const ExperimentConfig cfg =
      faultedConfig(4, 4, "leader-fail:1:0.12-1000000.0");
  for (const std::string name : {"nccl_collective", "nccl_pipelined"}) {
    const Timeline t = recordTimeline(cfg, name);
    const auto gathers = t.named("emb_hier_gather.node1");
    const auto scatters = t.named("emb_hier_scatter.node1");
    ASSERT_EQ(gathers.size(), 2u) << name;
    ASSERT_EQ(scatters.size(), 2u) << name;
    for (std::size_t b = 0; b < gathers.size(); ++b) {
      EXPECT_EQ(gathers[b].device, b == 0 ? 4 : 5) << name << " batch " << b;
      EXPECT_EQ(scatters[b].device, gathers[b].device)
          << name << " batch " << b;
    }
    // The exchange ships node 1's inter-node hops from and to the same
    // leader. Batch 0's flows start before batch 1's gather, and batch
    // 1's start after it (behind the host sync or the comm streams' wait
    // on the rebuilt staging).
    for (const auto& f : t.flows) {
      const bool from = f.src / 4 == 1;
      if (from == (f.dst / 4 == 1)) continue;  // not between node 1 and another
      EXPECT_EQ(from ? f.src : f.dst, f.start < gathers[1].start ? 4 : 5)
          << name << ": flow " << f.src << "->" << f.dst << " at "
          << f.start.toUs() << " us";
    }
    EXPECT_EQ(t.staging_rebuilds, 1) << name;
    for (const auto& rebuild : t.named("emb_hier_rebuild.node1")) {
      EXPECT_EQ(rebuild.device, 5) << name;
      EXPECT_LE(rebuild.end, gathers[1].start)
          << name << ": rebuild " << rebuild.start.toUs() << "-"
          << rebuild.end.toUs() << " us, batch 1 gather "
          << gathers[1].start.toUs() << " us";
    }
  }
}

TEST(NodeFaultDomainTest, PipelinedExchangeIsRoutedWhenItStarts) {
  // The pinned fault plan: node 2's NIC flaps from 0.04 to 1.5 ms. The
  // pipelined retriever launches batch 1's exchange inside that window,
  // but the exchange starts on the comm streams only after batch 0's
  // re-sent exchange, long after the window closed. It is routed when it
  // starts, so node 2 keeps the hierarchy: every flow between node 2 and
  // another node from batch 1's gather on goes leader to leader (node
  // 1's standby, GPU 5, leads node 1).
  const ExperimentConfig cfg = faultedConfig(
      4, 4, "leader-fail:1:0.0-1000000.0,nic-flap:2:0.04-1.5");
  const Timeline t = recordTimeline(cfg, "nccl_pipelined");
  const auto gathers = t.named("emb_hier_gather.node2");
  ASSERT_EQ(gathers.size(), 2u);
  EXPECT_GT(gathers[1].start, SimTime::ms(1.5));
  const auto leader = [](int node) { return node == 1 ? 5 : node * 4; };
  int shipped = 0;
  for (const auto& f : t.flows) {
    const int a = f.src / 4;
    const int b = f.dst / 4;
    if (a == b || (a != 2 && b != 2) || f.start < gathers[1].start) continue;
    EXPECT_EQ(f.src, leader(a)) << "flow " << f.src << "->" << f.dst
                                << " at " << f.start.toUs() << " us";
    EXPECT_EQ(f.dst, leader(b)) << "flow " << f.src << "->" << f.dst
                                << " at " << f.start.toUs() << " us";
    ++shipped;
  }
  EXPECT_GT(shipped, 0);
}

TEST(NodeFaultDomainTest, PerPairFallbackConfinedAndBeatsGlobalFlat) {
  // One node's NIC degraded for the whole run at 4 nodes: only pairs
  // touching that node fall back to flat routing; the other pairs keep
  // the hierarchy, so the run must beat the same fault on a fully flat
  // (hierarchy-off) configuration — the PR 9 behaviour this replaces.
  const std::string spec = "nic-degrade:0:0.5:0.0-1000000.0";
  for (const auto& name : kRetrievers) {
    ExperimentConfig one = faultedConfig(4, 2, spec);
    const ExperimentResult scoped = ScenarioRunner(one).run(name);
    ASSERT_TRUE(scoped.resilience.has_value()) << name;
    EXPECT_GT(scoped.resilience->hier_fallbacks, 0) << name;
    EXPECT_GT(scoped.resilience->degraded_time, SimTime::zero()) << name;

    // Confinement: degrading every node's NIC must fall back on more
    // pairs than degrading node 0 alone.
    ExperimentConfig all =
        faultedConfig(4, 2, "nic-degrade:*:0.5:0.0-1000000.0");
    const ExperimentResult global = ScenarioRunner(all).run(name);
    ASSERT_TRUE(global.resilience.has_value()) << name;
    EXPECT_GT(global.resilience->hier_fallbacks,
              scoped.resilience->hier_fallbacks)
        << name;

    // And the scoped degraded mode strictly beats running the whole
    // exchange flat under the same fault.
    ExperimentConfig flat = sweepConfig(4, 2);
    flat.faults = fault::FaultPlan::parse(spec, 7);
    const ExperimentResult f = ScenarioRunner(flat).run(name);
    EXPECT_LT(scoped.avgBatchMs(), f.avgBatchMs()) << name;
  }
}

TEST(NodeFaultDomainTest, NicFlapDropsRecoverWithConservedCounters) {
  // Calibrate a flap window inside the run from a clean pass, then
  // check every dropped inter-node flow is recovered by exactly one
  // retransmit or collective reissue.
  for (const auto& name : kRetrievers) {
    ExperimentConfig clean_cfg = sweepConfig(2, 2);
    clean_cfg.hierarchical_a2a = true;
    const ExperimentResult clean = ScenarioRunner(clean_cfg).run(name);
    const double batch_ms = clean.avgBatchMs();
    char spec[64];
    snprintf(spec, sizeof(spec), "nic-flap:0:%.4f-%.4f", batch_ms * 0.2,
             batch_ms * 1.2);
    const ExperimentResult r =
        ScenarioRunner(faultedConfig(2, 2, spec)).run(name);
    EXPECT_EQ(r.stats.batches, clean_cfg.num_batches) << name;
    ASSERT_TRUE(r.resilience.has_value()) << name;
    const auto& rs = *r.resilience;
    EXPECT_GT(rs.dropped_flows, 0) << name;
    EXPECT_EQ(rs.dropped_flows, rs.retransmits + rs.collective_reissues)
        << name;
    EXPECT_GT(rs.recovery_latency, SimTime::zero()) << name;
    // Faults cost time, never correctness: the run is slower, not wrong.
    EXPECT_GE(r.stats.total, clean.stats.total) << name;
  }
}

/// The leader-fail plans the failover certifications run on 2 nodes x
/// `per_node` GPUs: node 0's leader fails for the whole run, or, over 3
/// batches, in a window that opens after the first batch picked its
/// leader and closes before the last one picks. That window spans the
/// midpoints of the first two batches of `retriever`'s fault-free run
/// (a pipeline's batch time is its submit time), so the standby is
/// rebuilt mid-run and the default staging serves the last batch again.
std::vector<ExperimentConfig> leaderFailPlans(int per_node,
                                              const std::string& retriever) {
  ExperimentConfig clean = sweepConfig(2, per_node);
  clean.hierarchical_a2a = true;
  clean.num_batches = 3;
  const ExperimentResult r = ScenarioRunner(clean).run(retriever);
  const double first = r.per_batch[0].total.toMs();
  const double second = r.per_batch[1].total.toMs();
  char spec[64];
  snprintf(spec, sizeof(spec), "leader-fail:0:%.4f-%.4f", 0.5 * first,
           first + 0.5 * second);
  ExperimentConfig closing = faultedConfig(2, per_node, spec);
  closing.num_batches = clean.num_batches;
  return {faultedConfig(2, per_node, "leader-fail:0:0.0-1000000.0"),
          closing};
}

TEST(MultiNodeSimsanTest, FailoverStagingCertifiedCleanAcrossWidths) {
  // The failover path (standby election, staging rebuild before the
  // gather, the exchange ordered after it) must be race-free at 2 and 4
  // GPUs per node for every retriever, under a whole-run window and
  // under one that closes.
  for (const int per_node : {2, 4}) {
    for (const auto& name : kRetrievers) {
      for (ExperimentConfig cfg : leaderFailPlans(per_node, name)) {
        cfg.simsan = true;
        const std::string what = name + " @" + std::to_string(per_node) +
                                 " GPUs/node, " + cfg.faults.describe();
        const ExperimentResult r = ScenarioRunner(cfg).run(name);
        ASSERT_TRUE(r.sanitizer.has_value()) << what;
        EXPECT_TRUE(r.sanitizer->clean()) << what << "\n"
                                          << r.sanitizer->report();
        ASSERT_TRUE(r.resilience.has_value()) << what;
        EXPECT_EQ(r.resilience->leader_failovers, 1) << what;
        EXPECT_EQ(r.resilience->staging_rebuilds,
                  name == std::string("pgas_fused") ? 0 : 1)
            << what;
      }
    }
  }
}

TEST(MultiNodeSimsanTest, FailoverStagingHoldsUnderStrictEffects) {
  // Strict mode replays simulated-memory touches against declared
  // footprints: the rebuild kernel and the re-routed gathers must stay
  // inside theirs, under a whole-run window and under one that closes.
  for (const auto& name : kRetrievers) {
    for (ExperimentConfig cfg : leaderFailPlans(2, name)) {
      cfg.simsan = true;
      cfg.simsan_strict = true;
      const std::string what = name + ", " + cfg.faults.describe();
      const ExperimentResult r = ScenarioRunner(cfg).run(name);
      ASSERT_TRUE(r.sanitizer.has_value()) << what;
      EXPECT_TRUE(r.sanitizer->clean()) << what << "\n"
                                        << r.sanitizer->report();
    }
  }
}

TEST(MultiNodeSimsanTest, SeededRebuildWithoutRequietIsCaughtByName) {
  // The seeded bug runs the rebuild's staging writes under a forked,
  // never-joined rogue actor, and nothing orders the exchange after them:
  // member gathers into the standby race it, and the report names the
  // rebuild.
  ExperimentConfig cfg =
      faultedConfig(2, 2, "leader-fail:0:0.0-1000000.0");
  cfg.simsan = true;

  const ExperimentResult fixed = ScenarioRunner(cfg).run("nccl_collective");
  ASSERT_TRUE(fixed.sanitizer.has_value());
  ASSERT_TRUE(fixed.resilience.has_value());
  ASSERT_GT(fixed.resilience->staging_rebuilds, 0);  // the bug path ran
  EXPECT_TRUE(fixed.sanitizer->clean()) << fixed.sanitizer->report();

  ScenarioRunner seeded(cfg);
  seeded.builder().seedBug(simsan::SeededBug::kRebuildWithoutRequiet);
  const ExperimentResult buggy = seeded.run("nccl_collective");
  ASSERT_TRUE(buggy.sanitizer.has_value());
  const auto& s = *buggy.sanitizer;
  EXPECT_FALSE(s.clean());
  bool named = false;
  for (const auto& v : s.violations) {
    if (v.message.find("emb_hier_rebuild") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << s.report();
}

TEST(MultiNodeSimsanTest, SeededScatterBeforeInterFlowIsFlagged) {
  // The seeded bug launches each leader's scatter at the moment its
  // gather staging is ready instead of waiting for the aggregated
  // inter-node flow to land: the scatter's staging read races the
  // inter-flow's remote write, and the report names both sides. The
  // same run without the seeded bug is clean, at 2 nodes and at 4.
  for (const int nodes : {2, 4}) {
    ExperimentConfig cfg = sweepConfig(nodes, 2);
    cfg.num_batches = 1;
    cfg.hierarchical_a2a = true;
    cfg.simsan = true;
    ScenarioRunner runner(cfg);
    const ExperimentResult fixed = runner.run("nccl_collective");
    ASSERT_TRUE(fixed.sanitizer.has_value()) << nodes << " nodes";
    EXPECT_TRUE(fixed.sanitizer->clean())
        << nodes << " nodes\n" << fixed.sanitizer->report();

    runner.builder().seedBug(simsan::SeededBug::kScatterBeforeInterFlow);
    const ExperimentResult r = runner.run("nccl_collective");
    ASSERT_TRUE(r.sanitizer.has_value()) << nodes << " nodes";
    const auto& s = *r.sanitizer;
    EXPECT_GT(s.races, 0) << nodes << " nodes\n" << s.report();
    EXPECT_TRUE(anyRaceMentions(s, "hier_inter", "hier_scatter"))
        << nodes << " nodes\n" << s.report();
    EXPECT_EQ(s.out_of_bounds, 0) << nodes << " nodes\n" << s.report();
    EXPECT_EQ(s.lifetime_errors, 0) << nodes << " nodes\n" << s.report();
  }
}

}  // namespace
}  // namespace pgasemb::engine
