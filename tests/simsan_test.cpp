// Tests for simsan — the happens-before race, bounds, and lifetime
// checker for simulated device memory.
//
// Three layers of coverage:
//   1. Unit tests of the primitives: StridedRange overlap, the
//      vector-clock happens-before engine, and allocation tracking.
//   2. Certification: all three shipped retrievers run race-free under
//      the checker at 2, 4, and 8 GPUs.
//   3. Seeded bugs: two deliberately broken retrievers — an unpack that
//      skips the wait on its all-to-all, and a fused PGAS kernel whose
//      quiet (finalize) is stripped — must each be flagged, with the
//      report naming both conflicting accesses.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collective/communicator.hpp"
#include "core/registry.hpp"
#include "core/retriever.hpp"
#include "emb/lookup_kernel.hpp"
#include "emb/replica_cache.hpp"
#include "emb/unpack_kernel.hpp"
#include "emb/workload.hpp"
#include "engine/scenario_runner.hpp"
#include "gpu/gpu_event.hpp"
#include "pgas/runtime.hpp"
#include "simsan/checker.hpp"

namespace pgasemb {
namespace {

using simsan::AccessKind;
using simsan::Checker;
using simsan::StridedRange;

const SimTime kT = SimTime::us(1.0);

StridedRange contiguous(std::int64_t begin, std::int64_t len) {
  return StridedRange::contiguous(begin, len);
}

// ---------------------------------------------------------------------------
// StridedRange overlap
// ---------------------------------------------------------------------------

TEST(StridedRangeTest, ContiguousPairs) {
  EXPECT_TRUE(simsan::overlaps(contiguous(0, 10), contiguous(5, 10)));
  EXPECT_TRUE(simsan::overlaps(contiguous(5, 10), contiguous(0, 10)));
  EXPECT_FALSE(simsan::overlaps(contiguous(0, 10), contiguous(10, 10)));
  EXPECT_FALSE(simsan::overlaps(contiguous(0, 0), contiguous(0, 10)));
  EXPECT_TRUE(simsan::overlaps(contiguous(3, 1), contiguous(0, 10)));
}

TEST(StridedRangeTest, ContiguousVersusStrided) {
  // Runs [0,2), [10,12), [20,22).
  const StridedRange s{0, 2, 10, 3};
  EXPECT_TRUE(simsan::overlaps(contiguous(0, 1), s));
  EXPECT_TRUE(simsan::overlaps(contiguous(11, 1), s));
  EXPECT_TRUE(simsan::overlaps(contiguous(21, 1), s));
  EXPECT_FALSE(simsan::overlaps(contiguous(2, 8), s));
  EXPECT_FALSE(simsan::overlaps(contiguous(5, 4), s));
  EXPECT_FALSE(simsan::overlaps(contiguous(22, 100), s));
  // A full-period interval necessarily covers a run.
  EXPECT_TRUE(simsan::overlaps(contiguous(1, 10), s));
}

TEST(StridedRangeTest, SameStridePhases) {
  // Runs of a: 0-2, 10-12, ...; runs of b: 4-6, 14-16, ...
  const StridedRange a{0, 2, 10, 5};
  const StridedRange b{4, 2, 10, 7};
  EXPECT_FALSE(simsan::overlaps(a, b));
  EXPECT_FALSE(simsan::overlaps(b, a));
  // Shift b to phase 1: runs 1-3 intersect 0-2.
  const StridedRange c{1, 2, 10, 7};
  EXPECT_TRUE(simsan::overlaps(a, c));
  EXPECT_TRUE(simsan::overlaps(c, a));
}

TEST(StridedRangeTest, DifferentStrides) {
  // a: {0, 6, 12, 18}; b: {2, 6, 10, 14, 18} — meet at 6 (and 18).
  const StridedRange a{0, 1, 6, 4};
  const StridedRange b{2, 1, 4, 5};
  EXPECT_TRUE(simsan::overlaps(a, b));
  // b': {1, 5, 9, 13, 17} — misses every run of a.
  const StridedRange b2{1, 1, 4, 5};
  EXPECT_FALSE(simsan::overlaps(a, b2));
  EXPECT_FALSE(simsan::overlaps(b2, a));
}

TEST(StridedRangeTest, FusedFootprintsOfDistinctSourcesAreDisjoint) {
  // Table-wise sharding: each source's footprint into one destination
  // covers only that source's table block — sources never collide.
  const emb::Sharding sh(/*total_tables=*/8, /*batch_size=*/12,
                         /*num_gpus=*/4);
  const int dim = 8;
  for (int dst = 0; dst < 4; ++dst) {
    for (int s1 = 0; s1 < 4; ++s1) {
      for (int s2 = 0; s2 < 4; ++s2) {
        const auto f1 = emb::fusedWriteFootprint(sh, s1, dst, dim);
        const auto f2 = emb::fusedWriteFootprint(sh, s2, dst, dim);
        EXPECT_EQ(s1 == s2, simsan::overlaps(f1, f2))
            << "src " << s1 << " vs " << s2 << " into " << dst;
      }
    }
  }
  // All sources together tile the whole output tensor.
  std::int64_t covered = 0;
  for (int src = 0; src < 4; ++src) {
    const auto f = emb::fusedWriteFootprint(sh, src, 0, dim);
    covered += f.len * f.count;
  }
  EXPECT_EQ(covered, sh.outputElements(0, dim));
}

// ---------------------------------------------------------------------------
// Vector-clock happens-before engine
// ---------------------------------------------------------------------------

TEST(CheckerHbTest, SameActorIsProgramOrder) {
  Checker c;
  const auto a = c.newActor("a");
  c.onAlloc(0, 0, 100, "buf");
  c.access(a, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w1");
  c.access(a, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w2");
  EXPECT_TRUE(c.clean());
}

TEST(CheckerHbTest, UnorderedConflictingWritesRace) {
  Checker c;
  const auto a = c.newActor("a");
  const auto b = c.newActor("b");
  c.onAlloc(0, 0, 100, "buf");
  c.access(a, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w1");
  c.access(b, 0, contiguous(5, 10), AccessKind::kWrite, kT, kT, "w2");
  const auto s = c.summary();
  EXPECT_EQ(s.races, 1);
  ASSERT_EQ(s.violations.size(), 1u);
  EXPECT_NE(s.violations[0].message.find("w1"), std::string::npos);
  EXPECT_NE(s.violations[0].message.find("w2"), std::string::npos);
  EXPECT_NE(s.violations[0].message.find("no happens-before"),
            std::string::npos);
}

TEST(CheckerHbTest, DisjointOrCompatibleAccessesDoNotRace) {
  Checker c;
  const auto a = c.newActor("a");
  const auto b = c.newActor("b");
  c.onAlloc(0, 0, 100, "buf");
  // Disjoint writes.
  c.access(a, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w1");
  c.access(b, 0, contiguous(10, 10), AccessKind::kWrite, kT, kT, "w2");
  // Concurrent reads.
  c.access(a, 0, contiguous(50, 10), AccessKind::kRead, kT, kT, "r1");
  c.access(b, 0, contiguous(50, 10), AccessKind::kRead, kT, kT, "r2");
  // Concurrent atomic adds.
  c.access(a, 0, contiguous(80, 10), AccessKind::kAtomicAdd, kT, kT, "a1");
  c.access(b, 0, contiguous(80, 10), AccessKind::kAtomicAdd, kT, kT, "a2");
  EXPECT_TRUE(c.clean());
}

TEST(CheckerHbTest, ReleaseAcquireOrders) {
  Checker c;
  const auto a = c.newActor("a");
  const auto b = c.newActor("b");
  c.onAlloc(0, 0, 100, "buf");
  int sync = 0;
  c.access(a, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w1");
  c.release(a, &sync);
  c.acquire(b, &sync);
  c.access(b, 0, contiguous(0, 10), AccessKind::kRead, kT, kT, "r1");
  EXPECT_TRUE(c.clean());
  // An acquire on a never-released object adds no edge...
  int other = 0;
  const auto d = c.newActor("d");
  c.acquire(d, &other);
  c.access(d, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w2");
  EXPECT_EQ(c.summary().races, 2);  // vs both w1 and r1
}

TEST(CheckerHbTest, SnapshotJoinClockOrders) {
  Checker c;
  const auto a = c.newActor("a");
  const auto b = c.newActor("b");
  c.onAlloc(0, 0, 100, "buf");
  c.access(a, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w1");
  const auto snap = c.snapshot(a);
  c.joinClock(b, snap);
  c.access(b, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w2");
  EXPECT_TRUE(c.clean());
  // The snapshot does NOT cover a's later accesses.
  c.access(a, 0, contiguous(20, 10), AccessKind::kWrite, kT, kT, "w3");
  const auto e = c.newActor("e");
  c.joinClock(e, snap);
  c.access(e, 0, contiguous(20, 10), AccessKind::kWrite, kT, kT, "w4");
  EXPECT_EQ(c.summary().races, 1);
}

TEST(CheckerHbTest, ForkAndJoinActor) {
  Checker c;
  const auto parent = c.newActor("stream");
  c.onAlloc(0, 0, 100, "buf");
  c.access(parent, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w1");
  // Fork: the child observes everything the parent did.
  const auto child = c.forkActor("put", parent);
  c.access(child, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w2");
  EXPECT_TRUE(c.clean());
  // Join: the parent observes the child (quiet).
  c.joinActor(parent, child);
  c.access(parent, 0, contiguous(0, 10), AccessKind::kRead, kT, kT, "r1");
  EXPECT_TRUE(c.clean());
  // Without the join the read would race the child's write.
  const auto child2 = c.forkActor("put2", parent);
  c.access(child2, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w3");
  c.access(parent, 0, contiguous(0, 10), AccessKind::kRead, kT, kT, "r2");
  EXPECT_EQ(c.summary().races, 1);
}

// ---------------------------------------------------------------------------
// Bounds and lifetime
// ---------------------------------------------------------------------------

TEST(CheckerMemTest, OutOfBounds) {
  Checker c;
  const auto a = c.newActor("a");
  c.onAlloc(0, 0, 100, "buf");
  c.access(a, 0, contiguous(50, 100), AccessKind::kWrite, kT, kT, "oob");
  const auto s = c.summary();
  EXPECT_EQ(s.out_of_bounds, 1);
  ASSERT_FALSE(s.violations.empty());
  EXPECT_NE(s.violations[0].message.find("unallocated"), std::string::npos);
  // A strided access is bounded by its envelope.
  c.access(a, 0, StridedRange{0, 10, 50, 3}, AccessKind::kWrite, kT, kT,
           "strided_oob");
  EXPECT_EQ(c.summary().out_of_bounds, 2);
}

TEST(CheckerMemTest, UseAfterFreeAndDoubleFree) {
  Checker c;
  const auto a = c.newActor("a");
  c.onAlloc(0, 0, 100, "buf");
  c.onFree(0, 0, 100);
  c.access(a, 0, contiguous(0, 10), AccessKind::kRead, kT, kT, "uaf");
  auto s = c.summary();
  EXPECT_EQ(s.lifetime_errors, 1);
  ASSERT_FALSE(s.violations.empty());
  EXPECT_NE(s.violations[0].message.find("freed"), std::string::npos);
  c.onFree(0, 0, 100);  // double free
  EXPECT_EQ(c.summary().lifetime_errors, 2);
  c.onFree(0, 400, 10);  // never allocated
  EXPECT_EQ(c.summary().lifetime_errors, 3);
}

TEST(CheckerMemTest, AddressReuseResolvesToNewestAllocation) {
  Checker c;
  const auto a = c.newActor("a");
  c.onAlloc(0, 0, 100, "first");
  c.onFree(0, 0, 100);
  c.onAlloc(0, 0, 100, "second");  // allocator reused the range
  c.access(a, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w");
  EXPECT_TRUE(c.clean());
  c.onFree(0, 0, 100);
  EXPECT_TRUE(c.clean());
}

TEST(CheckerMemTest, LeakCheckRespectsBaseline) {
  Checker c;
  c.onAlloc(0, 0, 100, "table_shard");
  c.setBaseline();
  c.onAlloc(0, 100, 50, "working_buf");
  c.leakCheck();
  const auto s = c.summary();
  EXPECT_EQ(s.leaks, 1);
  ASSERT_FALSE(s.violations.empty());
  EXPECT_NE(s.violations[0].message.find("working_buf"), std::string::npos);
  // Idempotent: a reported leak is not reported again.
  c.leakCheck();
  EXPECT_EQ(c.summary().leaks, 1);
}

TEST(CheckerMemTest, ReportCountsAndFormat) {
  Checker c;
  const auto a = c.newActor("a");
  const auto b = c.newActor("b");
  c.onAlloc(0, 0, 100, "buf");
  c.access(a, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w1");
  c.access(b, 0, contiguous(0, 10), AccessKind::kWrite, kT, kT, "w2");
  const std::string report = c.report();
  EXPECT_NE(report.find("1 race(s)"), std::string::npos);
  EXPECT_NE(report.find("[race]"), std::string::npos);
  EXPECT_FALSE(c.clean());
}

// ---------------------------------------------------------------------------
// Certification: the shipped retrievers are race-free under the checker
// ---------------------------------------------------------------------------

engine::ExperimentConfig tinySimsanConfig(int gpus) {
  engine::ExperimentConfig cfg;
  cfg.layer = emb::tinyLayerSpec();
  cfg.num_gpus = gpus;
  cfg.num_batches = 3;
  cfg.pgas_slices = 6;
  cfg.simsan = true;
  return cfg;
}

class CertificationTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CertificationTest, RetrieverIsCleanUnderSimsan) {
  const auto& [name, gpus] = GetParam();
  engine::ScenarioRunner runner(tinySimsanConfig(gpus));
  const auto result = runner.run(name);
  ASSERT_TRUE(result.sanitizer.has_value());
  EXPECT_TRUE(result.sanitizer->clean()) << result.sanitizer->report();
  EXPECT_GT(result.sanitizer->accesses_logged, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRetrievers, CertificationTest,
    ::testing::Combine(::testing::Values("nccl_collective", "pgas_fused",
                                         "nccl_pipelined"),
                       ::testing::Values(2, 4, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "gpus";
    });

// With the hot-row replica cache attached, every retriever grows a
// probe + serve stage whose whole-output overlay write must be ordered
// against the exchange's writes into the same tensor (program order on
// the stream for the collectives; an explicit barrier for PGAS). The
// checker certifies those edges too.
engine::ExperimentConfig tinyCachedSimsanConfig(int gpus) {
  auto cfg = tinySimsanConfig(gpus);
  cfg.cache_rows = 12;
  cfg.layer.zipf_alpha = 0.9;
  return cfg;
}

class CachedCertificationTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CachedCertificationTest, CachedRetrieverIsCleanUnderSimsan) {
  const auto& [name, gpus] = GetParam();
  engine::ScenarioRunner runner(tinyCachedSimsanConfig(gpus));
  const auto result = runner.run(name);
  ASSERT_TRUE(result.sanitizer.has_value());
  EXPECT_TRUE(result.sanitizer->clean()) << result.sanitizer->report();
  // The cache genuinely engaged: served bags were accounted.
  EXPECT_GT(result.stats.cache_lookups, 0.0);
  EXPECT_GT(result.stats.cache_hits, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllRetrievers, CachedCertificationTest,
    ::testing::Combine(::testing::Values("nccl_collective", "pgas_fused",
                                         "nccl_pipelined"),
                       ::testing::Values(2, 4, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "gpus";
    });

TEST(CertificationTest, SimsanOffLeavesResultEmpty) {
  auto cfg = tinySimsanConfig(2);
  cfg.simsan = false;
  engine::ScenarioRunner runner(cfg);
  const auto result = runner.run("nccl_collective");
  EXPECT_FALSE(result.sanitizer.has_value());
}

TEST(CertificationTest, SimsanDoesNotChangeTimings) {
  auto cfg = tinySimsanConfig(4);
  engine::ScenarioRunner checked(cfg);
  cfg.simsan = false;
  engine::ScenarioRunner unchecked(cfg);
  for (const char* name : {"nccl_collective", "pgas_fused"}) {
    const auto a = checked.run(name);
    const auto b = unchecked.run(name);
    EXPECT_EQ(a.stats.total, b.stats.total) << name;
    EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes) << name;
  }
}

// ---------------------------------------------------------------------------
// Seeded bug 1: unpack enqueued without waiting for its all-to-all
// ---------------------------------------------------------------------------

simsan::StridedRange wholeBuffer(const gpu::DeviceBuffer& buf) {
  return simsan::StridedRange::contiguous(buf.offset(), buf.size());
}

/// Pipelined-style baseline with the a2a-done wait removed: the unpack
/// kernel on the default stream reads the receive buffer while the
/// collective on the comm stream may still be writing it.
class BrokenNoUnpackWait final : public core::EmbeddingRetriever {
 public:
  BrokenNoUnpackWait(emb::ShardedEmbeddingLayer& layer,
                     collective::Communicator& comm)
      : layer_(layer), comm_(comm) {
    auto& system = layer.system();
    const auto& sh = layer.sharding();
    const int dim = layer.dim();
    for (int g = 0; g < system.numGpus(); ++g) {
      auto& dev = system.device(g);
      send_.push_back(dev.alloc(emb::sendBufferElements(sh, g, dim)));
      recv_.push_back(dev.alloc(emb::recvBufferElements(sh, g, dim)));
      out_.push_back(dev.alloc(sh.outputElements(g, dim)));
      comm_streams_.push_back(&system.createStream(g, "comm"));
    }
  }

  ~BrokenNoUnpackWait() override {
    auto& system = layer_.system();
    for (int g = system.numGpus() - 1; g >= 0; --g) {
      system.device(g).free(out_[static_cast<std::size_t>(g)]);
      system.device(g).free(recv_[static_cast<std::size_t>(g)]);
      system.device(g).free(send_[static_cast<std::size_t>(g)]);
    }
  }

  std::string name() const override { return "broken_no_unpack_wait"; }
  gpu::DeviceBuffer& output(int gpu) override {
    return out_[static_cast<std::size_t>(gpu)];
  }

  core::BatchTiming runBatch(const emb::SparseBatch& batch) override {
    auto& system = layer_.system();
    auto* san = system.sanitizer();
    const int p = system.numGpus();
    const SimTime t0 = system.hostNow();
    const std::size_t ev_base = events_.size();
    for (int g = 0; g < p; ++g) {
      events_.push_back(std::make_unique<gpu::GpuEvent>());
    }

    std::vector<std::vector<std::int64_t>> matrix(
        static_cast<std::size_t>(p),
        std::vector<std::int64_t>(static_cast<std::size_t>(p), 0));
    for (int g = 0; g < p; ++g) {
      auto kernel = emb::buildBaselineLookupKernel(layer_, batch, g, nullptr);
      for (int d = 0; d < p; ++d) {
        if (d != g) {
          matrix[static_cast<std::size_t>(g)][static_cast<std::size_t>(d)] =
              kernel.send_bytes[static_cast<std::size_t>(d)];
        }
      }
      if (san != nullptr) {
        kernel.desc.mem_effects.push_back(
            {g, wholeBuffer(send_[static_cast<std::size_t>(g)]),
             AccessKind::kWrite, ""});
      }
      system.launchKernel(g, std::move(kernel.desc));
      system.stream(g).enqueueRecord(
          system.hostNow(), *events_[ev_base + static_cast<std::size_t>(g)]);
      comm_streams_[static_cast<std::size_t>(g)]->enqueueWaitEvent(
          system.hostNow(), *events_[ev_base + static_cast<std::size_t>(g)]);
    }

    collective::CollectiveMemory mem;
    mem.ranks.resize(static_cast<std::size_t>(p));
    for (int g = 0; g < p; ++g) {
      auto& rank = mem.ranks[static_cast<std::size_t>(g)];
      rank.device = g;
      rank.send = wholeBuffer(send_[static_cast<std::size_t>(g)]);
      rank.recv = wholeBuffer(recv_[static_cast<std::size_t>(g)]);
    }
    comm_.allToAllSingle(matrix, nullptr, &comm_streams_, &mem);

    // BUG: the unpack must wait for the all-to-all (an a2a-done event on
    // the comm stream) before reading the receive buffer. It doesn't.
    for (int g = 0; g < p; ++g) {
      auto desc = emb::buildUnpackKernel(layer_, g, nullptr, nullptr);
      if (san != nullptr) {
        desc.mem_effects.push_back(
            {g, wholeBuffer(recv_[static_cast<std::size_t>(g)]),
             AccessKind::kRead, ""});
        desc.mem_effects.push_back(
            {g, wholeBuffer(out_[static_cast<std::size_t>(g)]),
             AccessKind::kWrite, ""});
      }
      system.launchKernel(g, std::move(desc));
    }

    core::BatchTiming timing;
    timing.total = system.syncAll() - t0;
    return timing;
  }

 private:
  emb::ShardedEmbeddingLayer& layer_;
  collective::Communicator& comm_;
  std::vector<gpu::DeviceBuffer> send_, recv_, out_;
  std::vector<gpu::Stream*> comm_streams_;
  std::vector<std::unique_ptr<gpu::GpuEvent>> events_;
};

const core::RetrieverRegistrar kBrokenNoWaitRegistrar{
    "broken_no_unpack_wait",
    [](const core::SystemContext& ctx)
        -> std::unique_ptr<core::EmbeddingRetriever> {
      return std::make_unique<BrokenNoUnpackWait>(ctx.layer, ctx.comm);
    }};

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

TEST(SeededBugTest, UnpackWithoutWaitIsFlagged) {
  engine::ScenarioRunner runner(tinySimsanConfig(4));
  const auto result = runner.run("broken_no_unpack_wait");
  ASSERT_TRUE(result.sanitizer.has_value());
  const auto& s = *result.sanitizer;
  EXPECT_GT(s.races, 0) << s.report();
  // The report names the two conflicting accesses: the collective's
  // receive-buffer write and the unpack kernel's read.
  EXPECT_TRUE(anyRaceMentions(s, "all_to_all_single", "emb_unpack"))
      << s.report();
  // No false bounds/lifetime noise.
  EXPECT_EQ(s.out_of_bounds, 0) << s.report();
  EXPECT_EQ(s.lifetime_errors, 0) << s.report();
  EXPECT_EQ(s.leaks, 0) << s.report();
}

// ---------------------------------------------------------------------------
// Seeded bug 2: fused PGAS kernel without quiet (finalize stripped)
// ---------------------------------------------------------------------------

/// PGAS fused retriever whose kernels skip nvshmem_quiet: completion no
/// longer waits for remote-write delivery, and — equivalently in
/// happens-before terms — nothing ever joins the in-kernel put actor
/// back into its stream, so the one-sided writes stay unordered with
/// every later consumer.
class BrokenNoQuiet final : public core::EmbeddingRetriever {
 public:
  BrokenNoQuiet(emb::ShardedEmbeddingLayer& layer, pgas::PgasRuntime& runtime,
                int slices)
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

  ~BrokenNoQuiet() override { runtime_.heap().free(outputs_sym_); }

  std::string name() const override { return "broken_no_quiet"; }
  gpu::DeviceBuffer& output(int gpu) override {
    return outputs_view_[static_cast<std::size_t>(gpu)];
  }

  core::BatchTiming runBatch(const emb::SparseBatch& batch) override {
    auto& system = layer_.system();
    auto* san = system.sanitizer();
    const int p = system.numGpus();
    const SimTime t0 = system.hostNow();
    for (int g = 0; g < p; ++g) {
      auto fused =
          emb::buildFusedLookupKernel(layer_, batch, g, nullptr, slices_);
      std::vector<simsan::MemEffect> remote_writes;
      if (san != nullptr) {
        fused.desc.mem_effects.push_back(
            {g, footprint(g, g), AccessKind::kWrite, ""});
        for (int d = 0; d < p; ++d) {
          if (d == g) continue;
          remote_writes.push_back({d, footprint(g, d),
                                   AccessKind::kRemoteWrite,
                                   fused.desc.name + ".put"});
        }
      }
      runtime_.attachMessagePlan(fused.desc, g, std::move(fused.plan),
                                 nullptr, std::move(remote_writes));
      // BUG: strip the quiet — the kernel "completes" without waiting
      // for (or ordering against) its in-flight one-sided writes.
      fused.desc.finalize = nullptr;
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

const core::RetrieverRegistrar kBrokenNoQuietRegistrar{
    "broken_no_quiet",
    [](const core::SystemContext& ctx)
        -> std::unique_ptr<core::EmbeddingRetriever> {
      return std::make_unique<BrokenNoQuiet>(ctx.layer, ctx.runtime,
                                             ctx.pgas_slices);
    }};

TEST(SeededBugTest, FusedKernelWithoutQuietIsFlagged) {
  engine::ScenarioRunner runner(tinySimsanConfig(4));
  const auto result = runner.run("broken_no_quiet");
  ASSERT_TRUE(result.sanitizer.has_value());
  const auto& s = *result.sanitizer;
  EXPECT_GT(s.races, 0) << s.report();
  // The report names the unjoined put engine's remote write and a later
  // consumer of the output tensor (the host's read stands in for the
  // downstream interaction layer).
  EXPECT_TRUE(anyRaceMentions(s, "pgas_put", "host.consume_output"))
      << s.report();
  EXPECT_EQ(s.out_of_bounds, 0) << s.report();
  EXPECT_EQ(s.lifetime_errors, 0) << s.report();
}

// ---------------------------------------------------------------------------
// Seeded bug 3: cached PGAS without the pre-serve barrier
// ---------------------------------------------------------------------------

/// Cached PGAS retriever with the post-exchange syncAll removed: the
/// replica-serve kernels overlay the hit bags onto the output tensor
/// while remote fused kernels may still be putting miss bags into it.
/// The quiet itself is intact — the missing edge is the global barrier
/// between the exchange and the serve stage.
class BrokenCachedNoBarrier final : public core::EmbeddingRetriever {
 public:
  BrokenCachedNoBarrier(emb::ShardedEmbeddingLayer& layer,
                        pgas::PgasRuntime& runtime, int slices,
                        emb::ReplicaCache* cache)
      : layer_(layer), runtime_(runtime), slices_(slices), cache_(cache) {
    PGASEMB_CHECK(cache != nullptr, "this seeded bug needs the cache");
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

  ~BrokenCachedNoBarrier() override { runtime_.heap().free(outputs_sym_); }

  std::string name() const override { return "broken_cached_no_barrier"; }
  gpu::DeviceBuffer& output(int gpu) override {
    return outputs_view_[static_cast<std::size_t>(gpu)];
  }

  core::BatchTiming runBatch(const emb::SparseBatch& batch) override {
    auto& system = layer_.system();
    auto* san = system.sanitizer();
    const int p = system.numGpus();
    const SimTime t0 = system.hostNow();
    const emb::CacheFilter filter(layer_, batch, *cache_);
    for (int g = 0; g < p; ++g) {
      system.launchKernel(g, emb::buildCacheProbeKernel(layer_, filter, g));
      auto fused = emb::buildFusedLookupKernel(layer_, batch, g, nullptr,
                                               slices_, &filter);
      std::vector<simsan::MemEffect> remote_writes;
      if (san != nullptr) {
        fused.desc.mem_effects.push_back(
            {g, footprint(g, g), AccessKind::kWrite, ""});
        for (int d = 0; d < p; ++d) {
          if (d == g) continue;
          remote_writes.push_back({d, footprint(g, d),
                                   AccessKind::kRemoteWrite,
                                   fused.desc.name + ".put"});
        }
      }
      runtime_.attachMessagePlan(fused.desc, g, std::move(fused.plan),
                                 nullptr, std::move(remote_writes));
      system.launchKernel(g, std::move(fused.desc));
    }
    // BUG: no system.syncAll() here — the serve overlay runs concurrent
    // with the other GPUs' one-sided miss writes into the same tensor.
    for (int g = 0; g < p; ++g) {
      auto serve = emb::buildCacheServeKernel(layer_, batch, filter, g,
                                              nullptr, nullptr);
      if (san != nullptr) {
        const auto& rep = cache_->replica(g);
        const auto& out = outputs_view_[static_cast<std::size_t>(g)];
        serve.mem_effects.push_back(
            {g, contiguous(rep.offset(), rep.size()), AccessKind::kRead, ""});
        serve.mem_effects.push_back(
            {g, contiguous(out.offset(), out.size()), AccessKind::kWrite,
             ""});
      }
      system.launchKernel(g, std::move(serve));
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
  emb::ReplicaCache* cache_;
  pgas::SymmetricBuffer outputs_sym_;
  std::vector<gpu::DeviceBuffer> outputs_view_;
};

const core::RetrieverRegistrar kBrokenCachedRegistrar{
    "broken_cached_no_barrier",
    [](const core::SystemContext& ctx)
        -> std::unique_ptr<core::EmbeddingRetriever> {
      return std::make_unique<BrokenCachedNoBarrier>(
          ctx.layer, ctx.runtime, ctx.pgas_slices, ctx.cache);
    }};

TEST(SeededBugTest, CachedServeWithoutBarrierIsFlagged) {
  engine::ScenarioRunner runner(tinyCachedSimsanConfig(4));
  const auto result = runner.run("broken_cached_no_barrier");
  ASSERT_TRUE(result.sanitizer.has_value());
  const auto& s = *result.sanitizer;
  EXPECT_GT(s.races, 0) << s.report();
  // The report names the serve overlay against the in-flight one-sided
  // miss write it fails to order against.
  EXPECT_TRUE(anyRaceMentions(s, "emb_cache_serve", ".put")) << s.report();
  EXPECT_EQ(s.out_of_bounds, 0) << s.report();
  EXPECT_EQ(s.lifetime_errors, 0) << s.report();
}

TEST(SeededBugTest, RestoringTheBarrierFixesIt) {
  // Identical configuration through the shipped cached pgas_fused
  // retriever (barrier intact) is clean.
  engine::ScenarioRunner runner(tinyCachedSimsanConfig(4));
  const auto result = runner.run("pgas_fused");
  ASSERT_TRUE(result.sanitizer.has_value());
  EXPECT_TRUE(result.sanitizer->clean()) << result.sanitizer->report();
}

TEST(SeededBugTest, RestoringTheQuietFixesIt) {
  // The same configuration through the real pgas_fused retriever (quiet
  // intact) is clean — the flag is the missing edge, not the harness.
  engine::ScenarioRunner runner(tinySimsanConfig(4));
  const auto result = runner.run("pgas_fused");
  ASSERT_TRUE(result.sanitizer.has_value());
  EXPECT_TRUE(result.sanitizer->clean()) << result.sanitizer->report();
}

}  // namespace
}  // namespace pgasemb
