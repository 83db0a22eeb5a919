// Tests for simsan strict-effects mode (--simsan-strict): observed
// simulated-memory touches checked against declared MemEffect
// footprints.
//
// Four layers of coverage:
//   1. Randomized property tests of the range primitives strict mode
//      leans on: StridedRange overlap / totalElements / envelopeEnd
//      against a naive expand-to-byte-set reference.
//   2. Unit tests of the three shadow recorders (kernel scopes, put
//      trackers, collective trackers) and mergeInto.
//   3. Certification: the shipped retrievers — plain, cached, faulted,
//      and serving — run strict-clean at 2, 4, and 8 GPUs, in
//      timing-only and (plain) functional mode.
//   4. Seeded under-declared bugs: a kernel whose functional body
//      touches an undeclared buffer, and a fused PGAS kernel that omits
//      one destination's put declaration, must each fail with a report
//      naming the kernel and the escaped range/destination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/retriever.hpp"
#include "emb/lookup_kernel.hpp"
#include "emb/workload.hpp"
#include "engine/scenario_runner.hpp"
#include "engine/serving_runner.hpp"
#include "fault/plan.hpp"
#include "gpu/kernel.hpp"
#include "gpu/system.hpp"
#include "pgas/runtime.hpp"
#include "simsan/checker.hpp"
#include "simsan/strict.hpp"

namespace pgasemb {
namespace {

using simsan::AccessKind;
using simsan::MemEffect;
using simsan::StridedRange;
using simsan::StrictEffects;

// ---------------------------------------------------------------------------
// 1. Property tests: StridedRange vs a naive element-set reference
// ---------------------------------------------------------------------------

/// Naive reference: the exact element set a range covers.
std::vector<std::int64_t> expand(const StridedRange& r) {
  std::vector<std::int64_t> out;
  if (r.empty()) return out;
  for (std::int64_t k = 0; k < r.count; ++k) {
    const std::int64_t run = r.begin + (r.count > 1 ? k * r.stride : 0);
    for (std::int64_t j = 0; j < r.len; ++j) out.push_back(run + j);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool setsIntersect(const std::vector<std::int64_t>& a,
                   const std::vector<std::int64_t>& b) {
  std::vector<std::int64_t> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  return !both.empty();
}

/// A random well-formed range (runs never overlap: stride >= len when
/// count > 1), occasionally degenerate (empty).
StridedRange randomRange(std::mt19937& rng) {
  std::uniform_int_distribution<std::int64_t> begin_d(0, 40);
  std::uniform_int_distribution<std::int64_t> len_d(0, 6);  // 0 => empty
  std::uniform_int_distribution<std::int64_t> count_d(1, 5);
  std::uniform_int_distribution<std::int64_t> pad_d(0, 6);
  StridedRange r;
  r.begin = begin_d(rng);
  r.len = len_d(rng);
  r.count = count_d(rng);
  r.stride = r.count > 1 ? r.len + pad_d(rng) : 0;
  return r;
}

TEST(StridedRangePropertyTest, OverlapMatchesByteSetReference) {
  std::mt19937 rng(0x5ee1);
  for (int iter = 0; iter < 4000; ++iter) {
    const StridedRange a = randomRange(rng);
    const StridedRange b = randomRange(rng);
    const auto ea = expand(a);
    const auto eb = expand(b);
    const bool expected = setsIntersect(ea, eb);
    EXPECT_EQ(overlaps(a, b), expected)
        << a.toString() << " vs " << b.toString();
    // Overlap is symmetric.
    EXPECT_EQ(overlaps(b, a), overlaps(a, b))
        << a.toString() << " vs " << b.toString();
  }
}

TEST(StridedRangePropertyTest, TotalElementsMatchesByteSetReference) {
  std::mt19937 rng(0xfeed);
  for (int iter = 0; iter < 2000; ++iter) {
    const StridedRange r = randomRange(rng);
    auto elems = expand(r);
    // Well-formed runs are disjoint, so the expansion has no duplicates
    // and totalElements is an exact element count (the byte-budget
    // arithmetic in the put/collective trackers depends on this).
    EXPECT_TRUE(std::adjacent_find(elems.begin(), elems.end()) ==
                elems.end())
        << r.toString();
    EXPECT_EQ(r.totalElements(), static_cast<std::int64_t>(elems.size()))
        << r.toString();
    if (!elems.empty()) {
      EXPECT_EQ(r.envelopeEnd(), elems.back() + 1) << r.toString();
    }
  }
}

TEST(StridedRangePropertyTest, ContiguousIsTheSingleRunSpecialCase) {
  std::mt19937 rng(0xabcd);
  for (int iter = 0; iter < 500; ++iter) {
    std::uniform_int_distribution<std::int64_t> d(0, 64);
    const std::int64_t begin = d(rng);
    const std::int64_t len = d(rng);
    const StridedRange c = StridedRange::contiguous(begin, len);
    EXPECT_EQ(c.count, 1);
    EXPECT_EQ(c.totalElements(), len > 0 ? len : 0);
    if (len > 0) {
      EXPECT_EQ(c.envelopeEnd(), begin + len);
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Unit tests of the shadow recorders
// ---------------------------------------------------------------------------

std::string allMessages(const simsan::Summary& s) {
  std::string out;
  for (const auto& v : s.violations) out += v.message + "\n";
  return out;
}

simsan::Summary merged(const StrictEffects& strict) {
  simsan::Summary s;
  strict.mergeInto(s);
  return s;
}

TEST(StrictKernelScopeTest, CoveredTouchIsClean) {
  StrictEffects strict;
  const std::vector<MemEffect> effects = {
      {0, StridedRange::contiguous(0, 32), AccessKind::kWrite, ""}};
  const std::vector<MemEffect> puts;
  strict.beginKernel("k", effects, puts);
  strict.touch(0, 8, 4);
  strict.touch(0, 0, 32);
  strict.endKernel();
  EXPECT_EQ(strict.findings(), 0);
}

TEST(StrictKernelScopeTest, OverlapCoverageIsKindInsensitive) {
  // A read-declared effect covers a mutable-span touch: touches carry
  // no kind (span() materialization), so coverage is overlap-only.
  StrictEffects strict;
  const std::vector<MemEffect> effects = {
      {0, StridedRange::contiguous(0, 32), AccessKind::kRead, ""}};
  const std::vector<MemEffect> puts;
  strict.beginKernel("k", effects, puts);
  strict.touch(0, 16, 8);
  strict.endKernel();
  EXPECT_EQ(strict.findings(), 0);
}

TEST(StrictKernelScopeTest, EscapedTouchNamesKernelAndRange) {
  StrictEffects strict;
  const std::vector<MemEffect> effects = {
      {0, StridedRange::contiguous(0, 32), AccessKind::kWrite, ""}};
  const std::vector<MemEffect> puts;
  strict.beginKernel("emb_rogue", effects, puts);
  strict.touch(0, 64, 16);  // disjoint from the declared [0, 32)
  strict.endKernel();
  EXPECT_EQ(strict.findings(), 1);
  const auto s = merged(strict);
  EXPECT_EQ(s.undeclared_effects, 1);
  EXPECT_FALSE(s.clean());
  const std::string msgs = allMessages(s);
  EXPECT_NE(msgs.find("kernel emb_rogue"), std::string::npos) << msgs;
  EXPECT_NE(msgs.find("[64, 80)"), std::string::npos) << msgs;
  EXPECT_NE(msgs.find("no declared mem_effect"), std::string::npos) << msgs;
}

TEST(StrictKernelScopeTest, WrongDeviceIsAnEscape) {
  StrictEffects strict;
  const std::vector<MemEffect> effects = {
      {0, StridedRange::contiguous(0, 32), AccessKind::kWrite, ""}};
  const std::vector<MemEffect> puts;
  strict.beginKernel("k", effects, puts);
  strict.touch(1, 0, 32);  // right range, wrong device
  strict.endKernel();
  EXPECT_EQ(strict.findings(), 1);
}

TEST(StrictKernelScopeTest, PutEffectsAlsoCover) {
  StrictEffects strict;
  const std::vector<MemEffect> effects;
  const std::vector<MemEffect> puts = {
      {2, StridedRange::contiguous(100, 50), AccessKind::kRemoteWrite, ""}};
  strict.beginKernel("k", effects, puts);
  strict.touch(2, 120, 10);
  strict.endKernel();
  EXPECT_EQ(strict.findings(), 0);
}

TEST(StrictKernelScopeTest, RepeatedEscapeReportedOncePerRange) {
  StrictEffects strict;
  const std::vector<MemEffect> none;
  for (int batch = 0; batch < 3; ++batch) {
    strict.beginKernel("k", none, none);
    strict.touch(0, 0, 8);
    strict.endKernel();
  }
  EXPECT_EQ(strict.findings(), 1);
}

TEST(StrictKernelScopeTest, TouchOutsideAKernelScopeIsIgnored) {
  // Host-side staging/verification reads materialize spans too; only
  // in-kernel touches are checked.
  StrictEffects strict;
  strict.touch(0, 0, 128);
  EXPECT_EQ(strict.findings(), 0);
}

TEST(StrictPutTrackerTest, WithinBudgetIsClean) {
  StrictEffects strict;
  const std::vector<MemEffect> declared = {
      {1, StridedRange::contiguous(0, 16), AccessKind::kRemoteWrite, ""}};
  auto tracker = strict.trackPuts("emb_fused", declared);
  tracker->flow(1, 32);  // 8 of the declared 16 elements
  tracker->flow(1, 32);  // exactly at the 64 B budget now
  EXPECT_EQ(strict.findings(), 0);
}

TEST(StrictPutTrackerTest, UndeclaredDestinationNamesKernel) {
  StrictEffects strict;
  const std::vector<MemEffect> declared = {
      {1, StridedRange::contiguous(0, 16), AccessKind::kRemoteWrite, ""}};
  auto tracker = strict.trackPuts("emb_fused", declared);
  tracker->flow(3, 64);
  EXPECT_EQ(strict.findings(), 1);
  const std::string msgs = allMessages(merged(strict));
  EXPECT_NE(msgs.find("kernel emb_fused"), std::string::npos) << msgs;
  EXPECT_NE(msgs.find("gpu3"), std::string::npos) << msgs;
  EXPECT_NE(msgs.find("no declared put effect"), std::string::npos) << msgs;
}

TEST(StrictPutTrackerTest, BudgetOverrunNamesDeclaredFootprint) {
  StrictEffects strict;
  const std::vector<MemEffect> declared = {
      {1, StridedRange::contiguous(0, 16), AccessKind::kRemoteWrite, ""}};
  auto tracker = strict.trackPuts("emb_fused", declared);
  tracker->flow(1, 65);  // one byte past the 16 * 4 B budget
  EXPECT_EQ(strict.findings(), 1);
  const std::string msgs = allMessages(merged(strict));
  EXPECT_NE(msgs.find("escaping the declared footprint"), std::string::npos)
      << msgs;
  EXPECT_NE(msgs.find("[0, 16)"), std::string::npos) << msgs;
  // Reported once, not once per further flow.
  tracker->flow(1, 1000);
  EXPECT_EQ(strict.findings(), 1);
}

TEST(StrictCollectiveTrackerTest, ControlPlaneTransfersAreExempt) {
  StrictEffects strict;
  auto tracker = strict.trackCollective("barrier", {}, {});
  tracker->transfer(0, 1, StrictEffects::kControlPlaneBytes);
  EXPECT_EQ(strict.findings(), 0);
}

TEST(StrictCollectiveTrackerTest, PayloadWithoutDeclaredMemoryIsFlagged) {
  StrictEffects strict;
  auto tracker = strict.trackCollective("all_to_all_single", {}, {});
  tracker->transfer(0, 1, 1024);
  EXPECT_EQ(strict.findings(), 1);
  const std::string msgs = allMessages(merged(strict));
  EXPECT_NE(msgs.find("collective all_to_all_single"), std::string::npos)
      << msgs;
  EXPECT_NE(msgs.find("no declared CollectiveMemory"), std::string::npos)
      << msgs;
}

TEST(StrictCollectiveTrackerTest, PerRankBudgetOverrunIsFlagged) {
  StrictEffects strict;
  // Rank 0 may send 16 elements (64 B); rank 1 may receive the same.
  std::vector<MemEffect> send = {
      {0, StridedRange::contiguous(0, 16), AccessKind::kRead, ""}};
  std::vector<MemEffect> recv = {
      {1, StridedRange::contiguous(0, 16), AccessKind::kWrite, ""}};
  auto tracker = strict.trackCollective("all_to_all_single", std::move(send),
                                        std::move(recv));
  tracker->transfer(0, 1, 64);
  EXPECT_EQ(strict.findings(), 0);
  tracker->transfer(0, 1, 64);  // double the declared staging budget
  EXPECT_GT(strict.findings(), 0);
  const std::string msgs = allMessages(merged(strict));
  EXPECT_NE(msgs.find("escaping the declared"), std::string::npos) << msgs;
}

TEST(StrictMergeTest, FindingsFoldIntoTheCheckerSummary) {
  StrictEffects strict;
  const std::vector<MemEffect> none;
  strict.beginKernel("k", none, none);
  strict.touch(0, 0, 8);
  strict.endKernel();

  simsan::Checker checker;
  auto summary = checker.summary();
  EXPECT_TRUE(summary.clean());
  strict.mergeInto(summary);
  EXPECT_FALSE(summary.clean());
  EXPECT_EQ(summary.undeclared_effects, 1);
  EXPECT_EQ(summary.violations_total, 1u);
  EXPECT_NE(summary.report().find("1 undeclared effect(s)"),
            std::string::npos)
      << summary.report();
}

// ---------------------------------------------------------------------------
// 3. System-level: mutable span() inside a kernel body is recorded
// ---------------------------------------------------------------------------

TEST(StrictSystemTest, UndeclaredFunctionalTouchIsFlagged) {
  simsan::Checker checker;
  StrictEffects strict;
  gpu::SystemConfig cfg;
  cfg.num_gpus = 1;
  cfg.memory_capacity_bytes = 1024 * 4;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.sanitizer = &checker;
  cfg.strict_effects = &strict;
  gpu::MultiGpuSystem sys(cfg);
  auto buf = sys.device(0).alloc(16);

  gpu::KernelDesc desc;
  desc.name = "rogue_touch";
  desc.duration = SimTime::us(1.0);
  desc.functional_body = [&buf] { buf.span()[0] = 1.0f; };
  // BUG: no mem_effects declared for the buffer the body writes.
  sys.launchKernel(0, std::move(desc));
  sys.syncAll();

  EXPECT_EQ(strict.findings(), 1);
  const std::string msgs = allMessages(merged(strict));
  EXPECT_NE(msgs.find("kernel rogue_touch"), std::string::npos) << msgs;
  sys.device(0).free(buf);
}

TEST(StrictSystemTest, DeclaredFunctionalTouchIsClean) {
  simsan::Checker checker;
  StrictEffects strict;
  gpu::SystemConfig cfg;
  cfg.num_gpus = 1;
  cfg.memory_capacity_bytes = 1024 * 4;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.sanitizer = &checker;
  cfg.strict_effects = &strict;
  gpu::MultiGpuSystem sys(cfg);
  auto buf = sys.device(0).alloc(16);

  gpu::KernelDesc desc;
  desc.name = "declared_touch";
  desc.duration = SimTime::us(1.0);
  desc.mem_effects.push_back(
      {0, StridedRange::contiguous(buf.offset(), buf.size()),
       AccessKind::kWrite, ""});
  desc.functional_body = [&buf] { buf.span()[0] = 1.0f; };
  sys.launchKernel(0, std::move(desc));
  sys.syncAll();

  EXPECT_EQ(strict.findings(), 0);
  sys.device(0).free(buf);
}

// ---------------------------------------------------------------------------
// 4. Certification: shipped retrievers are strict-clean at 2/4/8 GPUs
// ---------------------------------------------------------------------------

engine::ExperimentConfig tinyStrictConfig(int gpus) {
  engine::ExperimentConfig cfg;
  cfg.layer = emb::tinyLayerSpec();
  cfg.num_gpus = gpus;
  cfg.num_batches = 3;
  cfg.pgas_slices = 6;
  cfg.simsan_strict = true;  // implies simsan
  return cfg;
}

void expectStrictClean(const engine::ExperimentConfig& cfg,
                       const std::string& retriever) {
  engine::ScenarioRunner runner(cfg);
  const auto result = runner.run(retriever);
  ASSERT_TRUE(result.sanitizer.has_value());
  EXPECT_TRUE(result.sanitizer->clean()) << result.sanitizer->report();
  EXPECT_EQ(result.sanitizer->undeclared_effects, 0)
      << result.sanitizer->report();
}

class StrictCertificationTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(StrictCertificationTest, PlainTimingOnly) {
  const auto& [name, gpus] = GetParam();
  expectStrictClean(tinyStrictConfig(gpus), name);
}

TEST_P(StrictCertificationTest, PlainFunctional) {
  const auto& [name, gpus] = GetParam();
  auto cfg = tinyStrictConfig(gpus);
  cfg.mode = gpu::ExecutionMode::kFunctional;
  expectStrictClean(cfg, name);
}

TEST_P(StrictCertificationTest, Cached) {
  const auto& [name, gpus] = GetParam();
  auto cfg = tinyStrictConfig(gpus);
  cfg.cache_rows = 12;
  cfg.layer.zipf_alpha = 0.9;
  expectStrictClean(cfg, name);
}

TEST_P(StrictCertificationTest, Faulted) {
  const auto& [name, gpus] = GetParam();
  auto cfg = tinyStrictConfig(gpus);
  cfg.faults = fault::FaultPlan::parse("link-degrade:*:0.5,straggler:0:2", 7);
  expectStrictClean(cfg, name);
}

TEST_P(StrictCertificationTest, Serving) {
  const auto& [name, gpus] = GetParam();
  auto cfg = tinyStrictConfig(gpus);
  cfg.serving.num_queries = 80;
  cfg.serving.qps = 50000.0;
  cfg.serving.query_size = emb::parseQuerySizeSpec("uniform:1-16");
  cfg.serving.max_wait_ms = 0.2;
  engine::ServingRunner runner(cfg);
  const auto result = runner.run(name);
  ASSERT_TRUE(result.serving.has_value());
  ASSERT_TRUE(result.sanitizer.has_value());
  EXPECT_TRUE(result.sanitizer->clean()) << result.sanitizer->report();
  EXPECT_EQ(result.sanitizer->undeclared_effects, 0)
      << result.sanitizer->report();
}

INSTANTIATE_TEST_SUITE_P(
    AllRetrievers, StrictCertificationTest,
    ::testing::Combine(::testing::Values("nccl_collective", "pgas_fused",
                                         "nccl_pipelined"),
                       ::testing::Values(2, 4, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "gpus";
    });

TEST(StrictCertificationTest, StrictImpliesSimsan) {
  // simsan_strict alone must still attach the checker and produce a
  // summary (the flag implies --simsan).
  auto cfg = tinyStrictConfig(2);
  EXPECT_FALSE(cfg.simsan);
  engine::ScenarioRunner runner(cfg);
  const auto result = runner.run("nccl_collective");
  ASSERT_TRUE(result.sanitizer.has_value());
  EXPECT_GT(result.sanitizer->accesses_logged, 0u);
}

// ---------------------------------------------------------------------------
// 5. Seeded under-declared bugs the strict mode must catch by name
// ---------------------------------------------------------------------------

/// Retriever whose kernel body writes the output tensor while declaring
/// only its send-staging effect — the output write is hidden from
/// simsan, exactly the under-declaration strict mode exists to catch.
class BrokenUndeclaredTouch final : public core::EmbeddingRetriever {
 public:
  explicit BrokenUndeclaredTouch(emb::ShardedEmbeddingLayer& layer)
      : layer_(layer) {
    auto& system = layer.system();
    const auto& sh = layer.sharding();
    const int dim = layer.dim();
    for (int g = 0; g < system.numGpus(); ++g) {
      auto& dev = system.device(g);
      send_.push_back(dev.alloc(emb::sendBufferElements(sh, g, dim)));
      out_.push_back(dev.alloc(sh.outputElements(g, dim)));
    }
  }

  ~BrokenUndeclaredTouch() override {
    auto& system = layer_.system();
    for (int g = system.numGpus() - 1; g >= 0; --g) {
      system.device(g).free(out_[static_cast<std::size_t>(g)]);
      system.device(g).free(send_[static_cast<std::size_t>(g)]);
    }
  }

  std::string name() const override { return "broken_undeclared_touch"; }
  gpu::DeviceBuffer& output(int gpu) override {
    return out_[static_cast<std::size_t>(gpu)];
  }

  core::BatchTiming runBatch(const emb::SparseBatch& batch) override {
    (void)batch;
    auto& system = layer_.system();
    const int p = system.numGpus();
    const SimTime t0 = system.hostNow();
    for (int g = 0; g < p; ++g) {
      auto& out = out_[static_cast<std::size_t>(g)];
      gpu::KernelDesc desc;
      desc.name = "emb_rogue_lookup";
      desc.duration = SimTime::us(2.0);
      // Declares the staging write only...
      desc.mem_effects.push_back(
          {g,
           StridedRange::contiguous(send_[static_cast<std::size_t>(g)].offset(),
                                    send_[static_cast<std::size_t>(g)].size()),
           AccessKind::kWrite, ""});
      // ...but the body also writes the (undeclared) output tensor.
      if (out.backed()) {
        desc.functional_body = [&out] { out.span()[0] = 1.0f; };
      }
      system.launchKernel(g, std::move(desc));
    }
    core::BatchTiming timing;
    timing.total = system.syncAll() - t0;
    return timing;
  }

 private:
  emb::ShardedEmbeddingLayer& layer_;
  std::vector<gpu::DeviceBuffer> send_, out_;
};

const core::RetrieverRegistrar kBrokenTouchRegistrar{
    "broken_undeclared_touch",
    [](const core::SystemContext& ctx)
        -> std::unique_ptr<core::EmbeddingRetriever> {
      return std::make_unique<BrokenUndeclaredTouch>(ctx.layer);
    }};

TEST(StrictSeededBugTest, UndeclaredKernelTouchFailsNamingKernelAndRange) {
  auto cfg = tinyStrictConfig(2);
  cfg.mode = gpu::ExecutionMode::kFunctional;
  engine::ScenarioRunner runner(cfg);
  const auto result = runner.run("broken_undeclared_touch");
  ASSERT_TRUE(result.sanitizer.has_value());
  const auto& s = *result.sanitizer;
  EXPECT_FALSE(s.clean());
  EXPECT_GT(s.undeclared_effects, 0) << s.report();
  const std::string msgs = allMessages(s);
  EXPECT_NE(msgs.find("kernel emb_rogue_lookup"), std::string::npos) << msgs;
  EXPECT_NE(msgs.find("no declared mem_effect covering that range"),
            std::string::npos)
      << msgs;
  // The report carries the concrete escaped range: "touched gpuN [a, b)".
  EXPECT_NE(msgs.find("touched gpu"), std::string::npos) << msgs;
}

/// Fused PGAS retriever that declares its remote put footprint for every
/// destination except the last one — flows to that GPU escape the
/// declaration.
class BrokenUnderdeclaredPut final : public core::EmbeddingRetriever {
 public:
  BrokenUnderdeclaredPut(emb::ShardedEmbeddingLayer& layer,
                         pgas::PgasRuntime& runtime, int slices)
      : layer_(layer), runtime_(runtime), slices_(slices) {
    auto& system = layer.system();
    const auto& sh = layer.sharding();
    const int dim = layer.dim();
    std::int64_t max_elements = 0;
    for (int g = 0; g < system.numGpus(); ++g) {
      max_elements = std::max(max_elements, sh.outputElements(g, dim));
    }
    outputs_sym_ = runtime.heap().alloc(max_elements);
    for (int g = 0; g < system.numGpus(); ++g) {
      outputs_view_.push_back(outputs_sym_.on(g));
    }
  }

  ~BrokenUnderdeclaredPut() override { runtime_.heap().free(outputs_sym_); }

  std::string name() const override { return "broken_underdeclared_put"; }
  gpu::DeviceBuffer& output(int gpu) override {
    return outputs_view_[static_cast<std::size_t>(gpu)];
  }

  core::BatchTiming runBatch(const emb::SparseBatch& batch) override {
    auto& system = layer_.system();
    const int p = system.numGpus();
    const SimTime t0 = system.hostNow();
    for (int g = 0; g < p; ++g) {
      auto fused =
          emb::buildFusedLookupKernel(layer_, batch, g, nullptr, slices_);
      std::vector<simsan::MemEffect> remote_writes;
      fused.desc.mem_effects.push_back(
          {g, footprint(g, g), AccessKind::kWrite, ""});
      for (int d = 0; d < p; ++d) {
        if (d == g) continue;
        // BUG: the highest-numbered peer's put footprint is omitted.
        if (d == p - 1) continue;
        remote_writes.push_back({d, footprint(g, d),
                                 AccessKind::kRemoteWrite,
                                 fused.desc.name + ".put"});
      }
      runtime_.attachMessagePlan(fused.desc, g, std::move(fused.plan),
                                 nullptr, std::move(remote_writes));
      system.launchKernel(g, std::move(fused.desc));
    }
    core::BatchTiming timing;
    timing.total = system.syncAll() - t0;
    return timing;
  }

 private:
  simsan::StridedRange footprint(int src, int dst) const {
    auto range = emb::fusedWriteFootprint(layer_.sharding(), src, dst,
                                          layer_.dim());
    range.begin += outputs_view_[static_cast<std::size_t>(dst)].offset();
    return range;
  }

  emb::ShardedEmbeddingLayer& layer_;
  pgas::PgasRuntime& runtime_;
  int slices_;
  pgas::SymmetricBuffer outputs_sym_;
  std::vector<gpu::DeviceBuffer> outputs_view_;
};

const core::RetrieverRegistrar kBrokenPutRegistrar{
    "broken_underdeclared_put",
    [](const core::SystemContext& ctx)
        -> std::unique_ptr<core::EmbeddingRetriever> {
      return std::make_unique<BrokenUnderdeclaredPut>(ctx.layer, ctx.runtime,
                                                      ctx.pgas_slices);
    }};

TEST(StrictSeededBugTest, UnderdeclaredPutFailsNamingKernelAndDestination) {
  auto cfg = tinyStrictConfig(4);
  engine::ScenarioRunner runner(cfg);
  const auto result = runner.run("broken_underdeclared_put");
  ASSERT_TRUE(result.sanitizer.has_value());
  const auto& s = *result.sanitizer;
  EXPECT_FALSE(s.clean());
  EXPECT_GT(s.undeclared_effects, 0) << s.report();
  const std::string msgs = allMessages(s);
  // The omitted destination is gpu3 (p - 1 at 4 GPUs).
  EXPECT_NE(msgs.find("gpu3"), std::string::npos) << msgs;
  EXPECT_NE(msgs.find("no declared put effect"), std::string::npos) << msgs;
}

TEST(StrictSeededBugTest, SameBugPassesWithoutStrictMode) {
  // Plain simsan cannot see the under-declaration (that is the
  // soundness gap strict mode closes): with races absent the run looks
  // clean. Guards that the seeded bug is strict-specific.
  auto cfg = tinyStrictConfig(4);
  cfg.simsan_strict = false;
  cfg.simsan = true;
  engine::ScenarioRunner runner(cfg);
  const auto result = runner.run("broken_underdeclared_put");
  ASSERT_TRUE(result.sanitizer.has_value());
  EXPECT_EQ(result.sanitizer->undeclared_effects, 0)
      << result.sanitizer->report();
}

}  // namespace
}  // namespace pgasemb
