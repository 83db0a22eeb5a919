// Seeded chaos suite (DESIGN.md §13): randomized FaultPlans over the
// full grammar — link/NIC degradation, flaps, stragglers, launch
// failures, leader failures — crossed with every retriever and node
// count. The plans are drawn from a fixed seed, so a failure here is a
// deterministic repro, not flake.
//
// Invariants checked for every (plan, retriever, nodes) cell:
//   - no hang / no throw: the run completes all scheduled batches;
//   - counter conservation: every dropped flow is accounted for by
//     exactly one retransmit or one collective reissue;
//   - determinism: re-running the identical config reproduces the
//     simulated totals and every resilience counter bit-for-bit;
//   - Functional mode stays bit-exact against the serial reference,
//     faults or not (timing faults must never corrupt payloads).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/retriever.hpp"
#include "engine/batch_executor.hpp"
#include "engine/scenario_runner.hpp"
#include "fault/plan.hpp"
#include "util/rng.hpp"

namespace pgasemb::engine {
namespace {

const std::vector<std::string> kRetrievers = {
    "nccl_collective", "pgas_fused", "nccl_pipelined"};

/// The IB-like inter-node links every multi-node bench pins.
void applyInterNodeLink(ExperimentConfig& cfg, int nodes) {
  cfg.num_nodes = nodes;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5.0);
  cfg.inter_node_link.header_bytes = 64;
  cfg.inter_node_link.max_messages_per_sec = 10e6;
}

/// One random spec token. Node-scoped kinds only appear when the
/// layout actually has multiple nodes (validate() rejects them
/// otherwise). Windows are left seeded: parse() draws them inside the
/// horizon and clamps flap widths to the retry budget, which keeps
/// every generated plan runnable by construction.
std::string randomSpecToken(Rng& rng, int nodes, int gpus) {
  const auto gpu_or_star = [&]() {
    return rng.uniformDouble() < 0.3
               ? std::string("*")
               : std::to_string(rng.uniformInt(0, gpus - 1));
  };
  const auto node_id = [&]() {
    return std::to_string(rng.uniformInt(0, nodes - 1));
  };
  const int kinds = nodes > 1 ? 9 : 5;
  switch (rng.uniformInt(0, kinds - 1)) {
    case 0:
      return "link-degrade:" + gpu_or_star() + "-*:" +
             std::to_string(0.3 + 0.6 * rng.uniformDouble());
    case 1:
      return "latency-spike:*-" + gpu_or_star() + ":" +
             std::to_string(rng.uniformInt(5, 50));
    case 2:
      return "link-flap:" + gpu_or_star() + "-*";
    case 3:
      return "straggler:" + std::to_string(rng.uniformInt(0, gpus - 1)) +
             ":" + std::to_string(1.0 + 2.0 * rng.uniformDouble());
    case 4:
      return "launch-fail:*:" +
             std::to_string(0.05 + 0.3 * rng.uniformDouble());
    case 5:
      return "nic-degrade:" + node_id() + ":" +
             std::to_string(0.3 + 0.6 * rng.uniformDouble());
    case 6:
      return "nic-flap:" + node_id();
    case 7:
      return "leader-fail:" + node_id();
    default:
      return "node-straggle:" + node_id() + ":" +
             std::to_string(1.0 + 2.0 * rng.uniformDouble());
  }
}

std::string randomPlan(Rng& rng, int nodes, int gpus) {
  const int n = static_cast<int>(rng.uniformInt(1, 3));
  std::string plan;
  for (int i = 0; i < n; ++i) {
    if (i > 0) plan += ",";
    plan += randomSpecToken(rng, nodes, gpus);
  }
  return plan;
}

ExperimentConfig chaosConfig(int nodes, const std::string& spec,
                             std::uint64_t seed) {
  const int gpus = 2 * nodes;
  ExperimentConfig cfg = weakScalingConfig(gpus);
  cfg.num_batches = 2;
  if (nodes > 1) {
    cfg.layer = emb::multinodeServingLayerSpec(gpus);
    applyInterNodeLink(cfg, nodes);
    cfg.hierarchical_a2a = true;
  }
  cfg.faults = fault::FaultPlan::parse(spec, seed);
  return cfg;
}

void expectConserved(const ExperimentResult& r, const std::string& what) {
  ASSERT_TRUE(r.resilience.has_value()) << what;
  const auto& rs = *r.resilience;
  EXPECT_EQ(rs.dropped_flows, rs.retransmits + rs.collective_reissues)
      << what << ": every dropped flow needs exactly one recovery";
  EXPECT_GE(rs.recovery_latency, SimTime::zero()) << what;
}

TEST(ChaosTest, RandomPlansCompleteConserveAndRepeatAcrossNodeCounts) {
  Rng rng(0xc4405);
  for (const int nodes : {1, 2, 4}) {
    for (int trial = 0; trial < 5; ++trial) {
      const std::uint64_t seed = 1000 + 10 * nodes + trial;
      const std::string plan = randomPlan(rng, nodes, 2 * nodes);
      const ExperimentConfig cfg = chaosConfig(nodes, plan, seed);
      for (const auto& name : kRetrievers) {
        const std::string what = name + " nodes=" + std::to_string(nodes) +
                                 " plan='" + plan + "'";
        const ExperimentResult a = ScenarioRunner(cfg).run(name);
        EXPECT_EQ(a.stats.batches, cfg.num_batches) << what;
        EXPECT_GT(a.stats.total, SimTime::zero()) << what;
        expectConserved(a, what);
        // Determinism: the identical config replays bit-for-bit.
        const ExperimentResult b = ScenarioRunner(cfg).run(name);
        EXPECT_EQ(a.stats.total, b.stats.total) << what;
        ASSERT_TRUE(b.resilience.has_value()) << what;
        const auto& ra = *a.resilience;
        const auto& rb = *b.resilience;
        EXPECT_EQ(ra.faults_injected, rb.faults_injected) << what;
        EXPECT_EQ(ra.dropped_flows, rb.dropped_flows) << what;
        EXPECT_EQ(ra.retransmits, rb.retransmits) << what;
        EXPECT_EQ(ra.collective_reissues, rb.collective_reissues) << what;
        EXPECT_EQ(ra.launch_retries, rb.launch_retries) << what;
        EXPECT_EQ(ra.hier_fallbacks, rb.hier_fallbacks) << what;
        EXPECT_EQ(ra.leader_failovers, rb.leader_failovers) << what;
        EXPECT_EQ(ra.staging_rebuilds, rb.staging_rebuilds) << what;
        EXPECT_EQ(ra.recovery_latency, rb.recovery_latency) << what;
        EXPECT_EQ(ra.degraded_time, rb.degraded_time) << what;
      }
    }
  }
}

/// Small layer with real weights for the bit-exactness leg.
ExperimentConfig functionalChaosConfig(int nodes, const std::string& spec,
                                       std::uint64_t seed) {
  ExperimentConfig cfg = chaosConfig(nodes, spec, seed);
  cfg.layer.total_tables = 8;
  cfg.layer.rows_per_table = 4096;
  cfg.layer.dim = 32;
  cfg.layer.batch_size = 64;
  cfg.layer.min_pooling = 1;
  cfg.layer.max_pooling = 8;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  return cfg;
}

TEST(ChaosTest, FunctionalOutputsStayBitExactUnderRandomFaults) {
  // Timing faults reshape schedules, retries, and routing — never
  // payloads. Outputs must match the serial reference exactly.
  Rng rng(0xfacade);
  for (const int nodes : {1, 2}) {
    for (int trial = 0; trial < 3; ++trial) {
      const std::uint64_t seed = 2000 + 10 * nodes + trial;
      const std::string plan = randomPlan(rng, nodes, 2 * nodes);
      const ExperimentConfig cfg = functionalChaosConfig(nodes, plan, seed);
      for (const std::string& name : kRetrievers) {
        const std::string what = name + " nodes=" + std::to_string(nodes) +
                                 " plan='" + plan + "'";
        SystemBuilder builder(cfg);
        auto retriever = core::RetrieverRegistry::instance().create(
            name, builder.context());
        Rng batch_rng(cfg.batch_seed);
        for (int b = 0; b < cfg.num_batches; ++b) {
          const auto batch = emb::SparseBatch::generateUniform(
              cfg.layer.batchSpec(), batch_rng);
          retriever->runBatch(batch);
          retriever->finish();
          for (int g = 0; g < cfg.num_gpus; ++g) {
            const auto n =
                builder.layer().sharding().outputElements(g, cfg.layer.dim);
            const auto ref = builder.layer().referenceOutput(batch, g);
            const auto s = retriever->output(g).span();
            const std::vector<float> out(s.begin(), s.begin() + n);
            EXPECT_EQ(out, ref)
                << what << " batch " << b << " gpu " << g;
          }
        }
      }
    }
  }
}

TEST(ChaosTest, AcceptanceLeaderFailPlusNicFlapAtFourNodesByFourGpus) {
  // ISSUE 10 acceptance scenario: a seeded leader-fail + nic-flap plan
  // at 4 nodes x 4 GPUs. Every retriever completes, counters conserve,
  // the collective path observes the failover + staging rebuild and
  // recovers its flap drops, and Functional outputs stay bit-exact.
  const int nodes = 4;
  const int gpus = 16;
  const auto assemble = [&](const std::string& spec, std::uint64_t seed) {
    ExperimentConfig cfg = weakScalingConfig(gpus);
    cfg.layer = emb::multinodeServingLayerSpec(gpus);
    cfg.num_batches = 2;
    applyInterNodeLink(cfg, nodes);
    cfg.hierarchical_a2a = true;
    if (!spec.empty()) cfg.faults = fault::FaultPlan::parse(spec, seed);
    return cfg;
  };
  // Calibrate the flap window off a clean run so it provably overlaps
  // the faulted runs' communication phases (a pinned window also keeps
  // this test independent of the seeded-window draw).
  const ExperimentResult base =
      ScenarioRunner(assemble("", 7)).run("nccl_collective");
  const double batch_ms =
      base.stats.total.toMs() / static_cast<double>(base.stats.batches);
  char spec[192];
  std::snprintf(spec, sizeof spec,
                "leader-fail:0:0.0-1000000.0,nic-flap:1:%.3f-%.3f,"
                "nic-degrade:2:0.3:0.0-1000000.0",
                0.2 * batch_ms, 1.0 * batch_ms);

  for (const auto& name : kRetrievers) {
    const ExperimentConfig cfg = assemble(spec, 7);
    const ExperimentResult r = ScenarioRunner(cfg).run(name);
    EXPECT_EQ(r.stats.batches, cfg.num_batches) << name;
    expectConserved(r, name);
    ASSERT_TRUE(r.resilience.has_value()) << name;
    EXPECT_EQ(r.resilience->leader_failovers, 1) << name;
    if (name == "nccl_collective") {
      EXPECT_EQ(r.resilience->staging_rebuilds, 1) << name;
      EXPECT_GT(r.resilience->dropped_flows, 0) << name;
      EXPECT_GT(r.resilience->hier_fallbacks, 0) << name;
      EXPECT_GT(r.resilience->degraded_time, SimTime::zero()) << name;
    }
  }

  // Functional bit-exactness under the same plan (small real-weight
  // layer).
  ExperimentConfig fcfg = assemble(spec, 7);
  fcfg.layer.total_tables = 32;
  fcfg.layer.rows_per_table = 4096;
  fcfg.layer.dim = 32;
  fcfg.layer.batch_size = 64;
  fcfg.layer.min_pooling = 1;
  fcfg.layer.max_pooling = 8;
  fcfg.mode = gpu::ExecutionMode::kFunctional;
  for (const std::string& name : kRetrievers) {
    SystemBuilder builder(fcfg);
    auto retriever =
        core::RetrieverRegistry::instance().create(name, builder.context());
    Rng batch_rng(fcfg.batch_seed);
    for (int b = 0; b < fcfg.num_batches; ++b) {
      const auto batch = emb::SparseBatch::generateUniform(
          fcfg.layer.batchSpec(), batch_rng);
      retriever->runBatch(batch);
      retriever->finish();
      for (int g = 0; g < gpus; ++g) {
        const auto n =
            builder.layer().sharding().outputElements(g, fcfg.layer.dim);
        const auto ref = builder.layer().referenceOutput(batch, g);
        const auto s = retriever->output(g).span();
        const std::vector<float> out(s.begin(), s.begin() + n);
        EXPECT_EQ(out, ref) << name << " batch " << b << " gpu " << g;
      }
    }
  }
}

}  // namespace
}  // namespace pgasemb::engine
