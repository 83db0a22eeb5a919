// Tests for deterministic fault injection and the resilience machinery:
//
//  * PLAN GRAMMAR: --faults specs parse (and malformed ones fail with
//    pointed messages).
//  * DETERMINISM: the same --fault-seed materializes the same fault
//    schedule and reproduces the run byte-for-byte; a different seed
//    yields a different schedule.
//  * ZERO-COST OFF: an empty plan builds no injector; an armed window
//    that never overlaps the run leaves every timing bit-identical.
//  * RESILIENCE: flap-dropped puts are retransmitted and dropped
//    collective chunks reissued, functional outputs stay bit-exact under
//    mid-run faults, stragglers/launch failures slow the run but never
//    break it, and the SLO degradation policy swaps the retriever.
//  * SIMSAN CERTIFICATION: the recovery paths are race-free at 2/4/8
//    GPUs for every retriever, and a seeded "retransmit without
//    re-arming quiet" bug is caught by name.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/fallback.hpp"
#include "core/pgas_retriever.hpp"
#include "engine/scenario_runner.hpp"
#include "fabric/fabric.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "pgas/runtime.hpp"
#include "util/expect.hpp"

namespace pgasemb {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultSpec;

// --- Plan grammar ------------------------------------------------------------

TEST(FaultPlanTest, ParsesTheQuickStartSpec) {
  const auto plan = FaultPlan::parse("link-degrade:0-1:0.5", 7);
  ASSERT_EQ(plan.specs.size(), 1u);
  const FaultSpec& s = plan.specs[0];
  EXPECT_EQ(s.kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(s.a, 0);
  EXPECT_EQ(s.b, 1);
  EXPECT_DOUBLE_EQ(s.magnitude, 0.5);
  EXPECT_FALSE(s.windowed());  // window drawn from the seed at arm time
  EXPECT_EQ(plan.seed, 7u);
}

TEST(FaultPlanTest, ParsesEveryKindWildcardsAndWindows) {
  const auto plan = FaultPlan::parse(
      "link-degrade:*:0.5,latency-spike:0-1:5:0.5-1.0,link-flap:1-0:1.0-2.0,"
      "straggler:2:3:1.0-2.5,launch-fail:*:0.25",
      42);
  ASSERT_EQ(plan.specs.size(), 5u);
  EXPECT_EQ(plan.specs[0].kind, FaultKind::kLinkDegrade);
  EXPECT_EQ(plan.specs[0].a, -1);  // wildcard
  EXPECT_EQ(plan.specs[0].b, -1);
  EXPECT_EQ(plan.specs[1].extra_latency, SimTime::us(5.0));
  EXPECT_TRUE(plan.specs[1].windowed());
  EXPECT_EQ(plan.specs[2].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(plan.specs[2].start, SimTime::ms(1.0));
  EXPECT_EQ(plan.specs[2].end, SimTime::ms(2.0));
  EXPECT_EQ(plan.specs[3].kind, FaultKind::kStraggler);
  EXPECT_EQ(plan.specs[3].a, 2);
  EXPECT_DOUBLE_EQ(plan.specs[3].magnitude, 3.0);
  EXPECT_EQ(plan.specs[4].kind, FaultKind::kLaunchFail);
  EXPECT_EQ(plan.specs[4].a, -1);
}

TEST(FaultPlanTest, MalformedSpecsFailWithPointedMessages) {
  // Unknown kind names the known ones.
  try {
    FaultPlan::parse("link-melt:0-1:0.5", 0);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("link-melt"), std::string::npos);
    EXPECT_NE(what.find("link-degrade"), std::string::npos);
  }
  // Out-of-range magnitudes.
  EXPECT_THROW(FaultPlan::parse("link-degrade:0-1:0", 0),
               InvalidArgumentError);
  EXPECT_THROW(FaultPlan::parse("link-degrade:0-1:1.5", 0),
               InvalidArgumentError);
  EXPECT_THROW(FaultPlan::parse("straggler:0:0.5", 0), InvalidArgumentError);
  EXPECT_THROW(FaultPlan::parse("launch-fail:0:1.0", 0),
               InvalidArgumentError);
  // Junk numbers (strict parsing: no silent prefixes).
  EXPECT_THROW(FaultPlan::parse("link-degrade:0-1:0.5x", 0),
               InvalidArgumentError);
  EXPECT_THROW(FaultPlan::parse("straggler:two:3", 0), InvalidArgumentError);
  // Inverted / degenerate windows.
  EXPECT_THROW(FaultPlan::parse("link-flap:0-1:2.0-1.0", 0),
               InvalidArgumentError);
  EXPECT_THROW(FaultPlan::parse("straggler:0:3:1.0-1.0", 0),
               InvalidArgumentError);
  // Missing fields.
  EXPECT_THROW(FaultPlan::parse("link-degrade:0-1", 0),
               InvalidArgumentError);
}

TEST(FaultPlanTest, DescribeMentionsSeededWindows) {
  const auto plan = FaultPlan::parse("link-degrade:0-1:0.5", 7);
  EXPECT_NE(plan.describe().find("seeded window"), std::string::npos);
  EXPECT_NE(plan.describe().find("seed 7"), std::string::npos);
}

TEST(FaultPlanTest, ParsesNodeScopedKindsWildcardsAndWindows) {
  const auto plan = FaultPlan::parse(
      "nic-degrade:0:0.5,nic-flap:*:1.0-2.0,leader-fail:1,"
      "node-straggle:2:3:0.5-4.5",
      11);
  ASSERT_EQ(plan.specs.size(), 4u);
  EXPECT_EQ(plan.specs[0].kind, FaultKind::kNicDegrade);
  EXPECT_EQ(plan.specs[0].a, 0);
  EXPECT_DOUBLE_EQ(plan.specs[0].magnitude, 0.5);
  EXPECT_FALSE(plan.specs[0].windowed());
  EXPECT_EQ(plan.specs[1].kind, FaultKind::kNicFlap);
  EXPECT_EQ(plan.specs[1].a, -1);  // wildcard node
  EXPECT_EQ(plan.specs[1].start, SimTime::ms(1.0));
  EXPECT_EQ(plan.specs[1].end, SimTime::ms(2.0));
  EXPECT_EQ(plan.specs[2].kind, FaultKind::kLeaderFail);
  EXPECT_EQ(plan.specs[2].a, 1);
  EXPECT_EQ(plan.specs[3].kind, FaultKind::kNodeStraggle);
  EXPECT_EQ(plan.specs[3].a, 2);
  EXPECT_DOUBLE_EQ(plan.specs[3].magnitude, 3.0);
  EXPECT_TRUE(plan.specs[3].windowed());
  // Only the four node-scoped kinds report as such.
  for (const auto& s : plan.specs) EXPECT_TRUE(fault::nodeScoped(s.kind));
  EXPECT_FALSE(fault::nodeScoped(FaultKind::kLinkDegrade));
  EXPECT_FALSE(fault::nodeScoped(FaultKind::kStraggler));
}

TEST(FaultPlanTest, MalformedNodeScopedSpecsFail) {
  // Out-of-range factors/slowdowns.
  EXPECT_THROW(FaultPlan::parse("nic-degrade:0:0", 0), InvalidArgumentError);
  EXPECT_THROW(FaultPlan::parse("nic-degrade:0:1.5", 0),
               InvalidArgumentError);
  EXPECT_THROW(FaultPlan::parse("node-straggle:0:0.5", 0),
               InvalidArgumentError);
  // Missing / extra fields.
  EXPECT_THROW(FaultPlan::parse("nic-degrade:0", 0), InvalidArgumentError);
  EXPECT_THROW(FaultPlan::parse("leader-fail", 0), InvalidArgumentError);
  EXPECT_THROW(FaultPlan::parse("nic-flap:0:1.0-2.0:extra", 0),
               InvalidArgumentError);
  // Junk node ids parse strictly.
  EXPECT_THROW(FaultPlan::parse("leader-fail:one", 0), InvalidArgumentError);
  // The unknown-kind message names the node-scoped kinds too.
  try {
    FaultPlan::parse("nic-melt:0:0.5", 0);
    FAIL() << "expected InvalidArgumentError";
  } catch (const InvalidArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nic-degrade"), std::string::npos);
    EXPECT_NE(what.find("leader-fail"), std::string::npos);
    EXPECT_NE(what.find("node-straggle"), std::string::npos);
  }
}

// --- Determinism -------------------------------------------------------------

// Small assembly for injector-level tests (mirrors core_test's Rig).
struct Rig {
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  collective::Communicator comm;
  pgas::PgasRuntime runtime;

  explicit Rig(int gpus,
               gpu::ExecutionMode mode = gpu::ExecutionMode::kTimingOnly)
      : system(makeConfig(gpus, mode)),
        fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
            gpus, fabric::LinkParams{})),
        comm(system, fabric),
        runtime(system, fabric) {}

  static gpu::SystemConfig makeConfig(int gpus, gpu::ExecutionMode mode) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 1 << 30;
    cfg.mode = mode;
    return cfg;
  }

  /// Wires `injector` into every resilient path of this assembly.
  void attach(fault::FaultInjector& injector) {
    injector.arm(system, fabric);
    runtime.setFaultInjector(&injector);
    comm.setFaultInjector(&injector);
  }
};

TEST(FaultDeterminismTest, SameSeedMaterializesTheSameSchedule) {
  const auto plan =
      FaultPlan::parse("link-degrade:0-1:0.5,link-flap:*,straggler:0:2", 7);
  Rig rig_a(2), rig_b(2);
  fault::FaultInjector inj_a(plan), inj_b(plan);
  inj_a.arm(rig_a.system, rig_a.fabric);
  inj_b.arm(rig_b.system, rig_b.fabric);
  ASSERT_EQ(inj_a.materialized().size(), 3u);
  ASSERT_EQ(inj_a.materialized().size(), inj_b.materialized().size());
  for (std::size_t i = 0; i < inj_a.materialized().size(); ++i) {
    const FaultSpec& a = inj_a.materialized()[i];
    const FaultSpec& b = inj_b.materialized()[i];
    EXPECT_EQ(a.start, b.start) << "spec " << i;
    EXPECT_EQ(a.end, b.end) << "spec " << i;
    EXPECT_TRUE(a.windowed()) << "spec " << i;  // the draw resolved it
  }
}

TEST(FaultDeterminismTest, DifferentSeedMaterializesADifferentSchedule) {
  Rig rig_a(2), rig_b(2);
  fault::FaultInjector inj_a(FaultPlan::parse("link-flap:*", 7));
  fault::FaultInjector inj_b(FaultPlan::parse("link-flap:*", 8));
  inj_a.arm(rig_a.system, rig_a.fabric);
  inj_b.arm(rig_b.system, rig_b.fabric);
  EXPECT_NE(inj_a.materialized()[0].start, inj_b.materialized()[0].start);
}

engine::ExperimentConfig quickWeak(int gpus, int batches) {
  auto cfg = engine::weakScalingConfig(gpus);
  cfg.num_batches = batches;
  return cfg;
}

TEST(FaultDeterminismTest, SameSeedReproducesTheRunByteForByte) {
  auto cfg = quickWeak(2, 3);
  cfg.faults = FaultPlan::parse("link-degrade:*:0.5,straggler:0:2", 7,
                                SimTime::ms(200.0));
  const auto a = engine::ScenarioRunner(cfg).run("pgas_fused");
  const auto b = engine::ScenarioRunner(cfg).run("pgas_fused");
  EXPECT_EQ(a.stats.total, b.stats.total);
  ASSERT_EQ(a.per_batch.size(), b.per_batch.size());
  for (std::size_t i = 0; i < a.per_batch.size(); ++i) {
    EXPECT_EQ(a.per_batch[i].total, b.per_batch[i].total) << "batch " << i;
  }
  EXPECT_EQ(a.wire_bytes_over_time, b.wire_bytes_over_time);
  ASSERT_TRUE(a.resilience && b.resilience);
  EXPECT_EQ(a.resilience->dropped_flows, b.resilience->dropped_flows);
  EXPECT_EQ(a.resilience->retransmits, b.resilience->retransmits);
  EXPECT_EQ(a.resilience->retransmitted_bytes,
            b.resilience->retransmitted_bytes);
  EXPECT_EQ(a.resilience->recovery_latency, b.resilience->recovery_latency);
}

// --- Zero-cost off -----------------------------------------------------------

TEST(FaultZeroCostTest, EmptyPlanBuildsNoInjectorAndNoResilience) {
  const auto result =
      engine::ScenarioRunner(quickWeak(2, 2)).run("nccl_collective");
  EXPECT_FALSE(result.resilience.has_value());
}

TEST(FaultZeroCostTest, NonOverlappingWindowLeavesTimingBitIdentical) {
  // The resilient code paths are active (an injector is armed), but the
  // window never overlaps the run: every delivery, phase, and wire
  // bucket must match the fault-free run exactly.
  const auto cfg_clean = quickWeak(2, 2);
  auto cfg_armed = cfg_clean;
  cfg_armed.faults =
      FaultPlan::parse("link-degrade:*:0.3:100000-200000,"
                       "link-flap:*:100000-200000",
                       0);
  for (const char* name : {"nccl_collective", "pgas_fused"}) {
    const auto clean = engine::ScenarioRunner(cfg_clean).run(name);
    const auto armed = engine::ScenarioRunner(cfg_armed).run(name);
    EXPECT_EQ(clean.stats.total, armed.stats.total) << name;
    EXPECT_EQ(clean.stats.compute_phase, armed.stats.compute_phase) << name;
    EXPECT_EQ(clean.stats.comm_phase, armed.stats.comm_phase) << name;
    EXPECT_EQ(clean.wire_bytes_over_time, armed.wire_bytes_over_time)
        << name;
    EXPECT_EQ(clean.total_wire_bytes, armed.total_wire_bytes) << name;
    // The armed (but untriggered) plan still reports itself.
    EXPECT_FALSE(clean.resilience.has_value()) << name;
    ASSERT_TRUE(armed.resilience.has_value()) << name;
    EXPECT_EQ(armed.resilience->dropped_flows, 0) << name;
    EXPECT_EQ(armed.resilience->retransmits, 0) << name;
  }
}

// --- Fault effects on timing -------------------------------------------------

/// Whole-run window: wide enough to cover any test run.
FaultSpec wholeRun(FaultKind kind, int dev, double magnitude) {
  FaultSpec spec;
  spec.kind = kind;
  spec.a = dev;
  spec.magnitude = magnitude;
  spec.start = SimTime::zero();
  spec.end = SimTime::ms(10000.0);
  return spec;
}

TEST(FaultEffectTest, LinkDegradationSlowsTheCollectiveBaseline) {
  const auto cfg_clean = quickWeak(2, 2);
  auto cfg_degraded = cfg_clean;
  cfg_degraded.faults.specs.push_back(
      wholeRun(FaultKind::kLinkDegrade, -1, 0.3));
  cfg_degraded.faults.specs.back().b = -1;
  const auto clean = engine::ScenarioRunner(cfg_clean).run("nccl_collective");
  const auto degraded =
      engine::ScenarioRunner(cfg_degraded).run("nccl_collective");
  EXPECT_GT(degraded.stats.comm_phase, clean.stats.comm_phase);
  EXPECT_GT(degraded.stats.total, clean.stats.total);
  // Degradation stretches deliveries but drops nothing.
  ASSERT_TRUE(degraded.resilience.has_value());
  EXPECT_EQ(degraded.resilience->dropped_flows, 0);
}

TEST(FaultEffectTest, StragglerSlowsTheRun) {
  const auto cfg_clean = quickWeak(2, 2);
  auto cfg_slow = cfg_clean;
  cfg_slow.faults.specs.push_back(wholeRun(FaultKind::kStraggler, 0, 3.0));
  const auto clean = engine::ScenarioRunner(cfg_clean).run("pgas_fused");
  const auto slow = engine::ScenarioRunner(cfg_slow).run("pgas_fused");
  EXPECT_GT(slow.stats.total, clean.stats.total);
}

TEST(FaultEffectTest, DeviceSpecBeyondSystemSizeIsBenign) {
  // A scaling sweep re-arms the same plan at 1..N GPUs; a straggler (or
  // launch-fail) pinned to a device absent at the small points must
  // match nothing, not abort the sweep.
  const auto cfg_clean = quickWeak(2, 2);
  auto cfg_absent = cfg_clean;
  cfg_absent.faults.specs.push_back(wholeRun(FaultKind::kStraggler, 7, 3.0));
  cfg_absent.faults.specs.push_back(wholeRun(FaultKind::kLaunchFail, 7, 0.9));
  const auto clean = engine::ScenarioRunner(cfg_clean).run("pgas_fused");
  const auto absent = engine::ScenarioRunner(cfg_absent).run("pgas_fused");
  EXPECT_EQ(absent.stats.total, clean.stats.total);
  ASSERT_TRUE(absent.resilience.has_value());
  EXPECT_EQ(absent.resilience->launch_retries, 0);
}

TEST(FaultEffectTest, LaunchFailuresAreRetriedAndCharged) {
  const auto cfg_clean = quickWeak(2, 2);
  auto cfg_flaky = cfg_clean;
  cfg_flaky.faults.specs.push_back(wholeRun(FaultKind::kLaunchFail, 0, 0.9));
  const auto clean = engine::ScenarioRunner(cfg_clean).run("nccl_collective");
  const auto flaky =
      engine::ScenarioRunner(cfg_flaky).run("nccl_collective");
  ASSERT_TRUE(flaky.resilience.has_value());
  EXPECT_GT(flaky.resilience->launch_retries, 0);
  EXPECT_GT(flaky.stats.total, clean.stats.total);
  EXPECT_EQ(flaky.stats.batches, clean.stats.batches);  // still completes
}

// --- Flap recovery -----------------------------------------------------------

/// Places a link flap inside batch `b` of a clean run: for the fused
/// strategy puts fly throughout the compute phase, for the baseline the
/// chunks burst in the comm phase. Width is capped at 8 ms so every
/// dropped flow recovers within the default retry budget (~27 ms).
FaultSpec flapInsideBatch(const engine::ExperimentResult& clean, int b,
                          bool in_comm_phase) {
  SimTime batch_start = SimTime::zero();
  for (int i = 0; i < b; ++i) batch_start += clean.per_batch[i].total;
  const auto& t = clean.per_batch[static_cast<std::size_t>(b)];
  const SimTime phase_start =
      in_comm_phase ? batch_start + t.compute_phase : batch_start;
  const SimTime phase =
      in_comm_phase ? t.comm_phase : t.compute_phase;
  FaultSpec spec;
  spec.kind = FaultKind::kLinkFlap;
  spec.start = phase_start + phase * 0.25;
  spec.end = spec.start + std::min(SimTime::ms(8.0), phase * 0.5);
  return spec;
}

TEST(FlapRecoveryTest, DroppedPutsAreRetransmittedUntilDelivered) {
  const auto cfg_clean = quickWeak(2, 3);
  const auto clean = engine::ScenarioRunner(cfg_clean).run("pgas_fused");
  auto cfg_flap = cfg_clean;
  cfg_flap.faults.specs.push_back(
      flapInsideBatch(clean, 1, /*in_comm_phase=*/false));
  const auto flapped = engine::ScenarioRunner(cfg_flap).run("pgas_fused");
  ASSERT_TRUE(flapped.resilience.has_value());
  const auto& rs = *flapped.resilience;
  EXPECT_GT(rs.dropped_flows, 0);
  EXPECT_GT(rs.retransmits, 0);
  EXPECT_GT(rs.retransmitted_bytes, 0);
  EXPECT_EQ(rs.collective_reissues, 0);  // no collectives in this strategy
  EXPECT_GT(rs.recovery_latency, SimTime::zero());
  // The fused strategy can hide the whole recovery inside the compute
  // phase's slack (quiet only stalls if the retransmit outlives the
  // kernel), so the run is never *faster* — and never wrong.
  EXPECT_GE(flapped.stats.total, clean.stats.total);
  EXPECT_EQ(flapped.stats.batches, clean.stats.batches);
}

TEST(FlapRecoveryTest, DroppedCollectiveChunksAreReissued) {
  const auto cfg_clean = quickWeak(2, 3);
  const auto clean = engine::ScenarioRunner(cfg_clean).run("nccl_collective");
  auto cfg_flap = cfg_clean;
  cfg_flap.faults.specs.push_back(
      flapInsideBatch(clean, 1, /*in_comm_phase=*/true));
  const auto flapped =
      engine::ScenarioRunner(cfg_flap).run("nccl_collective");
  ASSERT_TRUE(flapped.resilience.has_value());
  const auto& rs = *flapped.resilience;
  EXPECT_GT(rs.dropped_flows, 0);
  EXPECT_GT(rs.collective_reissues, 0);
  EXPECT_EQ(rs.retransmits, 0);  // no one-sided puts in this strategy
  EXPECT_GT(flapped.stats.total, clean.stats.total);
}

TEST(FlapRecoveryTest, FlapWiderThanTheRetryBudgetThrows) {
  Rig rig(2);
  FaultPlan plan;
  FaultSpec flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.start = SimTime::zero();
  flap.end = SimTime::ms(100.0);  // the retry budget covers ~27 ms
  plan.specs.push_back(flap);
  fault::FaultInjector injector(plan);
  rig.attach(injector);
  EXPECT_THROW(
      injector.reliablePut(0, 1, 1 << 20, 16, SimTime::zero()),
      Error);
}

TEST(FlapRecoveryTest, SeededFlapWindowsAreClampedToTheRetryBudget) {
  // An unwindowed flap draws its window from the horizon; with a
  // run-length horizon the raw draw (10-30% of it) would dwarf the
  // ~27 ms retry budget. The seeded draw clamps flap width to half the
  // budget, so any horizon yields a survivable outage.
  Rig rig(2);
  FaultPlan plan;
  plan.seed = 3;
  plan.horizon = SimTime::ms(400.0);
  FaultSpec flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.a = 0;
  flap.b = 1;
  plan.specs.push_back(flap);
  fault::FaultInjector injector(plan);
  rig.attach(injector);
  const auto& m = injector.materialized();
  ASSERT_EQ(m.size(), 1u);
  EXPECT_LE(m[0].end - m[0].start, SimTime::ms(14.0));  // ~half of ~27.5
}

// --- Functional correctness under faults -------------------------------------

std::vector<float> snapshot(gpu::DeviceBuffer& buf, std::int64_t n) {
  const auto s = buf.span();
  return std::vector<float>(s.begin(), s.begin() + n);
}

emb::EmbLayerSpec functionalSpec() {
  emb::EmbLayerSpec spec;
  spec.total_tables = 8;
  spec.rows_per_table = 64;
  spec.dim = 8;
  spec.batch_size = 16;
  spec.min_pooling = 0;
  spec.max_pooling = 6;
  spec.seed = 0xfa;
  spec.index_space = 1u << 16;
  return spec;
}

/// Runs `batches` functional batches and asserts every GPU's output
/// matches the serial reference, returning the cumulative batch timings
/// (used to calibrate fault windows for the perturbed runs).
template <typename Retriever>
std::vector<core::BatchTiming> runFunctional(emb::ShardedEmbeddingLayer& layer,
                                             Retriever& retriever, int gpus,
                                             int batches) {
  const auto spec = functionalSpec();
  std::vector<core::BatchTiming> timings;
  Rng rng(0xfb);
  for (int b = 0; b < batches; ++b) {
    const auto batch =
        emb::SparseBatch::generateUniform(spec.batchSpec(), rng);
    timings.push_back(retriever.runBatch(batch));
    for (int g = 0; g < gpus; ++g) {
      const auto n = layer.sharding().outputElements(g, spec.dim);
      const auto ref = layer.referenceOutput(batch, g);
      EXPECT_EQ(snapshot(retriever.output(g), n), ref)
          << "batch " << b << " gpu " << g;
    }
  }
  return timings;
}

TEST(FunctionalUnderFaultsTest, BaselineOutputsStayExactThroughMidRunFaults) {
  const int gpus = 3;
  // Calibration: clean functional run records the batch timeline.
  Rig clean_rig(gpus, gpu::ExecutionMode::kFunctional);
  emb::ShardedEmbeddingLayer clean_layer(clean_rig.system, functionalSpec());
  core::CollectiveRetriever clean(clean_layer, clean_rig.comm);
  const auto timings = runFunctional(clean_layer, clean, gpus, 3);

  // Perturbed run: degrade all links for the whole run, and flap inside
  // batch 1's comm phase so chunks are provably in flight when it dies.
  SimTime b1 = timings[0].total;
  FaultPlan plan;
  FaultSpec degrade;
  degrade.kind = FaultKind::kLinkDegrade;
  degrade.magnitude = 0.5;
  degrade.start = SimTime::zero();
  degrade.end = SimTime::ms(10000.0);
  plan.specs.push_back(degrade);
  FaultSpec flap;
  flap.kind = FaultKind::kLinkFlap;
  // Degradation doubles wire time, so scale the comm-phase placement.
  flap.start = b1 + timings[1].compute_phase + timings[1].comm_phase * 0.5;
  flap.end = flap.start + timings[1].comm_phase * 2.0;
  plan.specs.push_back(flap);

  Rig rig(gpus, gpu::ExecutionMode::kFunctional);
  emb::ShardedEmbeddingLayer layer(rig.system, functionalSpec());
  fault::FaultInjector injector(plan);
  rig.attach(injector);
  core::CollectiveRetriever baseline(layer, rig.comm);
  runFunctional(layer, baseline, gpus, 3);  // asserts outputs == reference
  EXPECT_GT(injector.stats().dropped_flows, 0);
  EXPECT_GT(injector.stats().collective_reissues, 0);
}

TEST(FunctionalUnderFaultsTest, PgasOutputsStayExactThroughMidRunFaults) {
  const int gpus = 3;
  Rig clean_rig(gpus, gpu::ExecutionMode::kFunctional);
  emb::ShardedEmbeddingLayer clean_layer(clean_rig.system, functionalSpec());
  core::PgasFusedRetriever clean(clean_layer, clean_rig.runtime, {});
  const auto timings = runFunctional(clean_layer, clean, gpus, 3);

  // Puts fly throughout the fused kernel: flap the middle of batch 1's
  // compute span (stretched 2x by a whole-run straggler for margin).
  SimTime b1 = timings[0].total;
  FaultPlan plan;
  FaultSpec straggle;
  straggle.kind = FaultKind::kStraggler;
  straggle.magnitude = 2.0;
  straggle.start = SimTime::zero();
  straggle.end = SimTime::ms(10000.0);
  plan.specs.push_back(straggle);
  FaultSpec flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.start = b1 * 2.0 + timings[1].compute_phase * 0.5;
  flap.end = flap.start + timings[1].compute_phase * 2.0;
  plan.specs.push_back(flap);

  Rig rig(gpus, gpu::ExecutionMode::kFunctional);
  emb::ShardedEmbeddingLayer layer(rig.system, functionalSpec());
  fault::FaultInjector injector(plan);
  rig.attach(injector);
  core::PgasFusedRetriever pgas(layer, rig.runtime, {});
  runFunctional(layer, pgas, gpus, 3);  // asserts outputs == reference
  EXPECT_GT(injector.stats().dropped_flows, 0);
  EXPECT_GT(injector.stats().retransmits, 0);
}

// --- SLO fallback policy -----------------------------------------------------

TEST(SloTrackerTest, FiresAfterPatienceConsecutiveOverSloBatches) {
  core::FallbackPolicy policy;
  policy.slo_ms = 1.0;
  policy.patience = 3;
  core::SloTracker tracker(policy);
  EXPECT_FALSE(tracker.record(SimTime::ms(2.0)));
  EXPECT_FALSE(tracker.record(SimTime::ms(2.0)));
  EXPECT_FALSE(tracker.record(SimTime::ms(0.5)));  // resets the streak
  EXPECT_FALSE(tracker.record(SimTime::ms(2.0)));
  EXPECT_FALSE(tracker.record(SimTime::ms(2.0)));
  EXPECT_TRUE(tracker.record(SimTime::ms(2.0)));
  EXPECT_FALSE(tracker.record(SimTime::ms(9.0)));  // fires at most once
}

TEST(SloFallbackTest, DegradedPgasRunFallsBackToTheCollectiveBaseline) {
  auto cfg = quickWeak(2, 6);
  cfg.fallback.slo_ms = 0.001;  // everything is over-SLO
  cfg.fallback.patience = 2;
  const auto result = engine::ScenarioRunner(cfg).run("pgas_fused");
  ASSERT_TRUE(result.resilience.has_value());
  EXPECT_EQ(result.resilience->fallback_switches, 1);
  EXPECT_EQ(result.resilience->fallback_retriever, "nccl_collective");
  EXPECT_EQ(result.stats.batches, 6);  // the run still completes
}

TEST(SloFallbackTest, NoSwitchWhenTheFallbackIsAlreadyActive) {
  auto cfg = quickWeak(2, 4);
  cfg.fallback.slo_ms = 0.001;
  cfg.fallback.patience = 2;
  const auto result = engine::ScenarioRunner(cfg).run("nccl_collective");
  EXPECT_FALSE(result.resilience.has_value());
}

TEST(SloFallbackTest, StragglerOnsetTriggersTheCalibratedPolicy) {
  // The realistic story: the SLO is calibrated from a healthy run's first
  // batch, then a straggler sets in and the policy degrades the
  // strategy. The straggler keeps slowing the fallback too, but the
  // switch itself must have happened.
  const auto clean = engine::ScenarioRunner(quickWeak(2, 5)).run("pgas_fused");
  SimTime onset = clean.per_batch[0].total + clean.per_batch[1].total * 0.5;
  auto cfg = quickWeak(2, 5);
  cfg.fallback.slo_ms = clean.per_batch[0].total.toMs() * 1.2;
  cfg.fallback.patience = 2;
  FaultSpec straggle;
  straggle.kind = FaultKind::kStraggler;
  straggle.magnitude = 4.0;
  straggle.start = onset;
  straggle.end = SimTime::ms(10000.0);
  cfg.faults.specs.push_back(straggle);
  const auto result = engine::ScenarioRunner(cfg).run("pgas_fused");
  ASSERT_TRUE(result.resilience.has_value());
  EXPECT_EQ(result.resilience->fallback_switches, 1);
  EXPECT_EQ(result.resilience->fallback_retriever, "nccl_collective");
}

// --- simsan certification ----------------------------------------------------

/// Faulted config for the certification matrix: a flap inside batch 1
/// (placed from the clean run's own timeline) plus degradation and a
/// straggler from batch 2 on (after the flap, so its placement holds).
engine::ExperimentConfig certifiedConfig(
    int gpus, const std::string& retriever,
    const engine::ExperimentResult& clean) {
  auto cfg = quickWeak(gpus, 3);
  cfg.simsan = true;
  const bool fused = retriever == "pgas_fused";
  cfg.faults.specs.push_back(
      flapInsideBatch(clean, 1, /*in_comm_phase=*/!fused));
  const SimTime late = clean.per_batch[0].total + clean.per_batch[1].total;
  FaultSpec degrade;
  degrade.kind = FaultKind::kLinkDegrade;
  degrade.magnitude = 0.5;
  degrade.start = late;
  degrade.end = SimTime::ms(10000.0);
  cfg.faults.specs.push_back(degrade);
  FaultSpec straggle;
  straggle.kind = FaultKind::kStraggler;
  straggle.a = 0;
  straggle.magnitude = 2.0;
  straggle.start = late;
  straggle.end = SimTime::ms(10000.0);
  cfg.faults.specs.push_back(straggle);
  return cfg;
}

// The retriever is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which would put a per-run value in the name.
using CertParams = std::tuple<int /*gpus*/, std::string /*retriever*/>;
class RecoveryCertification : public ::testing::TestWithParam<CertParams> {};

TEST_P(RecoveryCertification, RetransmitAndReissuePathsAreRaceFree) {
  const auto [gpus, retriever] = GetParam();
  const auto clean =
      engine::ScenarioRunner(quickWeak(gpus, 3)).run(retriever);
  const auto cfg = certifiedConfig(gpus, retriever, clean);
  const auto result = engine::ScenarioRunner(cfg).run(retriever);
  ASSERT_TRUE(result.sanitizer.has_value());
  EXPECT_TRUE(result.sanitizer->clean()) << result.sanitizer->report();
  ASSERT_TRUE(result.resilience.has_value());
  EXPECT_EQ(result.stats.batches, 3);
  // The flap was placed inside the strategy's own traffic phase, so the
  // recovery path demonstrably ran (the pipelined strategy overlaps its
  // phases, so only the two phase-separable strategies guarantee drops).
  if (retriever != "nccl_pipelined") {
    EXPECT_GT(result.resilience->dropped_flows, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RecoveryCertification,
    ::testing::Combine(::testing::Values(2, 4, 8),
                       ::testing::Values(std::string("nccl_collective"),
                                         std::string("pgas_fused"),
                                         std::string("nccl_pipelined"))));

TEST(SimsanBugSeedTest, RetransmitWithoutRequietIsCaughtByName) {
  // The seeded bug: the retransmit path lands the recovered put without
  // re-arming quiet, so the kernel can "complete" before the write is
  // visible. simsan must flag it — and the identical plan without the
  // seeded bug must stay clean (the pair is the certification).
  const int gpus = 2;
  const auto clean = engine::ScenarioRunner(quickWeak(gpus, 3)).run("pgas_fused");
  auto cfg = quickWeak(gpus, 3);
  cfg.simsan = true;
  cfg.faults.specs.push_back(
      flapInsideBatch(clean, 1, /*in_comm_phase=*/false));

  const auto fixed = engine::ScenarioRunner(cfg).run("pgas_fused");
  ASSERT_TRUE(fixed.sanitizer.has_value());
  ASSERT_TRUE(fixed.resilience.has_value());
  ASSERT_GT(fixed.resilience->retransmits, 0);  // the bug path would run
  EXPECT_TRUE(fixed.sanitizer->clean()) << fixed.sanitizer->report();

  engine::ScenarioRunner seeded(cfg);
  seeded.builder().seedBug(simsan::SeededBug::kRetransmitWithoutQuiet);
  const auto buggy = seeded.run("pgas_fused");
  ASSERT_TRUE(buggy.sanitizer.has_value());
  EXPECT_FALSE(buggy.sanitizer->clean());
  bool named = false;
  for (const auto& v : buggy.sanitizer->violations) {
    if (v.message.find("retransmit") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << buggy.sanitizer->report();
}

}  // namespace
}  // namespace pgasemb
