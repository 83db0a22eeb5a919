// Tests for the hot-row replica cache:
//
//  * Zipf workload model: the deterministic sampler's empirical top-k
//    mass converges to the analytic zipfTopMass it shares a harmonic
//    with (the statistical guarantee the cache's hit accounting and the
//    acceptance numbers rest on).
//  * ReplicaCache / CacheFilter semantics: frequency-ranked admission,
//    exact bag partition on materialized batches, miss/serve output
//    conservation, saved-bytes accounting.
//  * FUNCTIONAL EQUIVALENCE: with the cache enabled, every retriever
//    still reproduces the serial reference bit-for-bit (the serve
//    kernel's local pooling overlays exactly the bags the shrunk lookup
//    kernels skipped).
//  * TIMING: on the cache-serving configuration the cache delivers the
//    paper-extension speedups, and cache_rows = 0 leaves stats empty.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "emb/replica_cache.hpp"
#include "emb/workload.hpp"
#include "engine/scenario_runner.hpp"
#include "trace/report.hpp"
#include "util/expect.hpp"

namespace pgasemb {
namespace {

// --- Zipf workload model ---------------------------------------------------

TEST(ZipfTest, TopMassDegeneratesToUniformAtAlphaZero) {
  EXPECT_DOUBLE_EQ(emb::zipfTopMass(1000, 0.0, 100), 0.1);
  EXPECT_DOUBLE_EQ(emb::zipfTopMass(1u << 20, 0.0, 1u << 18), 0.25);
}

TEST(ZipfTest, TopMassIsAProperIncreasingCdf) {
  const std::uint64_t n = 1000000;
  double prev = 0.0;
  for (const std::uint64_t k : {1u, 10u, 1000u, 50000u, 1000000u}) {
    const double m = emb::zipfTopMass(n, 0.9, k);
    EXPECT_GT(m, prev) << "k=" << k;
    prev = m;
  }
  EXPECT_DOUBLE_EQ(emb::zipfTopMass(n, 0.9, n), 1.0);
  // More skew concentrates more mass in the same head.
  EXPECT_GT(emb::zipfTopMass(n, 1.1, 50000), emb::zipfTopMass(n, 0.9, 50000));
  EXPECT_GT(emb::zipfTopMass(n, 0.9, 50000), emb::zipfTopMass(n, 0.6, 50000));
}

TEST(ZipfTest, SamplerIsDeterministicUnderFixedSeed) {
  const emb::ZipfSampler sampler(1u << 20, 0.9);
  Rng a(0x2f1f), b(0x2f1f);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sampler.sample(a), sampler.sample(b)) << "draw " << i;
  }
}

// The statistical contract: empirical top-k frequency matches the
// analytic mass the cache's hit model reports. 200k draws put the
// standard error near 1e-3, so a 0.01 tolerance is ~10 sigma.
TEST(ZipfTest, EmpiricalTopKMassMatchesAnalytic) {
  const std::uint64_t n = 1000000;
  const int draws = 200000;
  for (const double alpha : {0.6, 0.9, 1.1}) {
    const emb::ZipfSampler sampler(n, alpha);
    Rng rng(0x5eed ^ static_cast<std::uint64_t>(alpha * 1000));
    for (const std::uint64_t k : {10000u, 50000u}) {
      int in_head = 0;
      Rng draw_rng = rng;
      for (int i = 0; i < draws; ++i) {
        if (sampler.sample(draw_rng) <= k) ++in_head;
      }
      const double empirical = static_cast<double>(in_head) / draws;
      EXPECT_NEAR(empirical, emb::zipfTopMass(n, alpha, k), 0.01)
          << "alpha=" << alpha << " k=" << k;
    }
  }
}

TEST(ZipfTest, MaterializedBatchIndicesFollowTheSampler) {
  // Raw index = rank - 1, so the hot set of capacity C is raws [0, C)
  // and a batch's fraction of indices below C matches the analytic mass.
  emb::SparseBatchSpec spec;
  spec.num_tables = 8;
  spec.batch_size = 1024;
  spec.min_pooling = 1;
  spec.max_pooling = 8;
  spec.index_space = 1u << 16;
  spec.zipf_alpha = 0.9;
  Rng rng(0x77aa);
  const auto batch = emb::SparseBatch::generateUniform(spec, rng);
  const std::uint64_t capacity = 4096;
  std::int64_t total = 0, hot = 0;
  for (std::int64_t t = 0; t < spec.num_tables; ++t) {
    for (const std::uint64_t raw : batch.indices(t)) {
      ++total;
      if (raw < capacity) ++hot;
    }
  }
  ASSERT_GT(total, 10000);
  EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(total),
              emb::zipfTopMass(spec.index_space, 0.9, capacity), 0.02);
}

// --- ReplicaCache admission ------------------------------------------------

struct Rig {
  gpu::MultiGpuSystem system;

  explicit Rig(int gpus,
               gpu::ExecutionMode mode = gpu::ExecutionMode::kFunctional)
      : system(makeConfig(gpus, mode)) {}

  static gpu::SystemConfig makeConfig(int gpus, gpu::ExecutionMode mode) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 1 << 30;
    cfg.mode = mode;
    return cfg;
  }
};

emb::EmbLayerSpec cacheTestSpec() {
  emb::EmbLayerSpec spec;
  spec.total_tables = 6;
  spec.rows_per_table = 64;
  spec.dim = 4;
  spec.batch_size = 10;
  spec.min_pooling = 0;  // include NULL inputs (trivially served)
  spec.max_pooling = 4;
  spec.seed = 0xca5e;
  spec.index_space = 1u << 10;
  spec.zipf_alpha = 0.9;
  return spec;
}

TEST(ReplicaCacheTest, FrequencyRankedAdmission) {
  Rig rig(2);
  const auto spec = cacheTestSpec();
  emb::ShardedEmbeddingLayer layer(rig.system, spec);
  emb::ReplicaCache cache(layer, 12);
  EXPECT_EQ(cache.capacityRows(), 12);
  EXPECT_TRUE(cache.hitsIndex(0));
  EXPECT_TRUE(cache.hitsIndex(11));
  EXPECT_FALSE(cache.hitsIndex(12));
  // The analytic per-index hit probability is the Zipf head mass.
  EXPECT_DOUBLE_EQ(cache.indexHitRate(),
                   emb::zipfTopMass(spec.index_space, spec.zipf_alpha, 12));
  // One replica block per GPU: total_tables x capacity x dim elements.
  for (int g = 0; g < 2; ++g) {
    EXPECT_EQ(cache.replica(g).size(),
              spec.total_tables * 12 * spec.dim);
  }
}

TEST(ReplicaCacheTest, UniformWorkloadHitRateIsCapacityFraction) {
  Rig rig(2);
  auto spec = cacheTestSpec();
  spec.zipf_alpha = 0.0;
  emb::ShardedEmbeddingLayer layer(rig.system, spec);
  emb::ReplicaCache cache(layer, 256);
  EXPECT_DOUBLE_EQ(cache.indexHitRate(), 256.0 / spec.index_space);
}

TEST(ReplicaCacheTest, CapacityClampsToIndexSpace) {
  Rig rig(2);
  const auto spec = cacheTestSpec();
  emb::ShardedEmbeddingLayer layer(rig.system, spec);
  emb::ReplicaCache cache(layer, 1 << 20);
  EXPECT_EQ(cache.capacityRows(),
            static_cast<std::int64_t>(spec.index_space));
  EXPECT_DOUBLE_EQ(cache.indexHitRate(), 1.0);
}

TEST(ReplicaCacheTest, RowWiseShardingIsRejected) {
  Rig rig(2);
  const auto spec = cacheTestSpec();
  emb::ShardedEmbeddingLayer layer(rig.system, spec,
                                   emb::ShardingScheme::kRowWise);
  EXPECT_THROW(emb::ReplicaCache(layer, 12), InvalidArgumentError);
}

// --- CacheFilter: exact partition on materialized batches ------------------

TEST(CacheFilterTest, MaterializedPartitionIsExact) {
  const int gpus = 3;
  Rig rig(gpus);
  const auto spec = cacheTestSpec();
  emb::ShardedEmbeddingLayer layer(rig.system, spec);
  emb::ReplicaCache cache(layer, 100);
  Rng rng(0xf11e);
  const auto batch = emb::SparseBatch::generateUniform(spec.batchSpec(), rng);
  const emb::CacheFilter filter(layer, batch, cache);
  const auto& sh = layer.sharding();

  // Brute force over every bag: served iff ALL its indices are hot.
  double lookups = 0.0, hits = 0.0, saved = 0.0;
  std::vector<std::int64_t> served_to(gpus, 0);
  std::vector<std::vector<std::int64_t>> miss_to(
      gpus, std::vector<std::int64_t>(gpus, 0));
  for (std::int64_t t = 0; t < spec.total_tables; ++t) {
    const int owner = sh.tableOwner(t);
    for (std::int64_t s = 0; s < spec.batch_size; ++s) {
      const int dst = sh.sampleOwner(s);
      bool all_hot = true;
      std::int64_t bag = 0;
      const auto offsets = batch.offsets(t);
      const auto indices = batch.indices(t);
      for (std::int64_t i = offsets[s]; i < offsets[s + 1]; ++i) {
        ++bag;
        all_hot = all_hot && cache.hitsIndex(indices[i]);
      }
      lookups += static_cast<double>(bag);
      EXPECT_EQ(filter.bagServed(t, s), all_hot) << "t=" << t << " s=" << s;
      if (all_hot) {
        hits += static_cast<double>(bag);
        ++served_to[dst];
        if (dst != owner) saved += static_cast<double>(spec.dim) * 4.0;
      } else {
        ++miss_to[owner][dst];
      }
    }
  }
  EXPECT_DOUBLE_EQ(filter.lookups(), lookups);
  EXPECT_DOUBLE_EQ(filter.hits(), hits);
  EXPECT_DOUBLE_EQ(filter.savedWireBytes(), saved);
  EXPECT_GT(filter.hits(), 0.0);
  EXPECT_LT(filter.hits(), filter.lookups());

  for (int g = 0; g < gpus; ++g) {
    // Serve work pools hit bags of g's own mini-batch, locally only.
    const auto& serve = filter.serveWork(g);
    for (int d = 0; d < gpus; ++d) {
      EXPECT_EQ(serve.outputs_to[d], d == g ? served_to[g] : 0)
          << "serve g=" << g << " d=" << d;
    }
    // Miss work is the owner-side residual lookup.
    const auto& miss = filter.missWork(g);
    for (int d = 0; d < gpus; ++d) {
      EXPECT_EQ(miss.outputs_to[d], miss_to[g][d]) << "g=" << g << " d=" << d;
    }
  }

  // Conservation: every bag of dst's mini-batch is either served locally
  // or produced by some owner's miss lookup.
  for (int d = 0; d < gpus; ++d) {
    std::int64_t produced = filter.serveWork(d).outputs_to[d];
    for (int g = 0; g < gpus; ++g) {
      produced += filter.missWork(g).outputs_to[d];
    }
    EXPECT_EQ(produced, spec.total_tables * sh.miniBatchSize(d)) << d;
  }
}

TEST(CacheFilterTest, StatisticalCountsMatchMaterializedInExpectation) {
  // Same spec, one statistical filter vs many materialized ones: the
  // expectation model must sit inside the empirical spread.
  const int gpus = 2;
  Rig rig(gpus, gpu::ExecutionMode::kTimingOnly);
  auto spec = cacheTestSpec();
  spec.batch_size = 64;
  spec.min_pooling = 1;
  emb::ShardedEmbeddingLayer layer(rig.system, spec);
  emb::ReplicaCache cache(layer, 100);
  const emb::CacheFilter expectation(
      layer, emb::SparseBatch::statistical(spec.batchSpec()), cache);
  double hit_sum = 0.0, lookup_sum = 0.0;
  Rng rng(0xeeee);
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    const emb::CacheFilter exact(
        layer, emb::SparseBatch::generateUniform(spec.batchSpec(), rng),
        cache);
    hit_sum += exact.hits();
    lookup_sum += exact.lookups();
  }
  EXPECT_NEAR(expectation.lookups(), lookup_sum / trials,
              0.05 * expectation.lookups());
  EXPECT_NEAR(expectation.hits(), hit_sum / trials,
              0.10 * expectation.hits());
}

// --- Functional equivalence with the cache enabled -------------------------

engine::ExperimentConfig functionalCachedConfig(int gpus) {
  engine::ExperimentConfig cfg;
  cfg.layer = cacheTestSpec();
  cfg.num_gpus = gpus;
  cfg.num_batches = 1;
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.pgas_slices = 4;
  cfg.cache_rows = 100;
  return cfg;
}

class CachedEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(CachedEquivalence, MatchesSerialReference) {
  const auto& [name, gpus] = GetParam();
  const auto cfg = functionalCachedConfig(gpus);
  engine::SystemBuilder builder(cfg);
  ASSERT_NE(builder.cache(), nullptr);
  auto retriever =
      core::RetrieverRegistry::instance().create(name, builder.context());
  Rng rng(0xfeed);
  const auto batch =
      emb::SparseBatch::generateUniform(cfg.layer.batchSpec(), rng);
  // Sanity: this batch genuinely exercises both paths.
  const emb::CacheFilter filter(builder.layer(), batch, *builder.cache());
  ASSERT_GT(filter.hits(), 0.0);
  ASSERT_LT(filter.hits(), filter.lookups());

  const auto timing = retriever->runBatch(batch);
  retriever->finish();  // drain (pipelined holds batches in flight)
  EXPECT_GT(timing.cache_lookups, 0.0);
  for (int g = 0; g < gpus; ++g) {
    const auto n =
        builder.layer().sharding().outputElements(g, cfg.layer.dim);
    const auto ref = builder.layer().referenceOutput(batch, g);
    const auto s = retriever->output(g).span();
    const std::vector<float> out(s.begin(), s.begin() + n);
    EXPECT_EQ(out, ref) << name << " mismatch on gpu " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FunctionalRetrievers, CachedEquivalence,
    ::testing::Combine(::testing::Values("nccl_collective", "pgas_fused",
                                         "nccl_pipelined"),
                       ::testing::Values(2, 3, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "gpus";
    });

// --- Timing: acceptance speedups and cache-off neutrality ------------------

TEST(CacheTimingTest, ServingConfigSpeedupsAtPaperScale) {
  // The headline extension numbers: Zipf 0.9 inference traffic, a 5%
  // replica (50k of 1M rows) on the PCIe-class serving node.
  auto cfg = engine::cacheServingConfig(4);
  cfg.num_batches = 3;
  cfg.layer.zipf_alpha = 0.9;
  const double analytic =
      emb::zipfTopMass(cfg.layer.index_space, 0.9, 50000);

  engine::ScenarioRunner baseline(cfg);
  cfg.cache_rows = 50000;
  engine::ScenarioRunner cached(cfg);
  for (const auto& [name, floor] :
       std::vector<std::pair<std::string, double>>{
           {"pgas_fused", 1.3}, {"nccl_collective", 1.2}}) {
    const auto without = baseline.run(name);
    const auto with = cached.run(name);
    EXPECT_GE(without.avgBatchMs() / with.avgBatchMs(), floor) << name;
    EXPECT_GE(with.cacheHitRate(), analytic - 0.02) << name;
    EXPECT_GT(with.cacheSavedBytes(), 0.0) << name;
    // The cache can only remove exchange traffic, never add it.
    EXPECT_LT(with.total_wire_bytes, without.total_wire_bytes) << name;
  }
}

TEST(CacheTimingTest, ZeroRowsIsNeutral) {
  // cache_rows = 0 must take exactly the historical code paths: no
  // counters, no cache table, no extra CSV columns (absent-neutral).
  auto cfg = engine::cacheServingConfig(2);
  cfg.num_batches = 2;
  cfg.layer.zipf_alpha = 0.9;
  engine::SystemBuilder builder(cfg);
  EXPECT_EQ(builder.cache(), nullptr);
  const auto result = engine::ScenarioRunner(cfg).run("nccl_collective");
  EXPECT_EQ(result.stats.cache_lookups, 0.0);
  EXPECT_EQ(result.cacheHitRate(), 0.0);
  EXPECT_EQ(result.cacheSavedBytes(), 0.0);
  trace::ScalingPoint point;
  point.gpus = 2;
  point.runs = {{"nccl_collective", result}};
  EXPECT_EQ(trace::renderCacheTable({point}), "");
}

TEST(CacheTimingTest, CachedRunsPopulateTheReportTable) {
  auto cfg = engine::cacheServingConfig(2);
  cfg.num_batches = 2;
  cfg.layer.zipf_alpha = 0.9;
  cfg.cache_rows = 10000;
  const auto result = engine::ScenarioRunner(cfg).run("nccl_collective");
  EXPECT_GT(result.stats.cache_lookups, 0.0);
  trace::ScalingPoint point;
  point.gpus = 2;
  point.runs = {{"nccl_collective", result}};
  const std::string table = trace::renderCacheTable({point});
  EXPECT_NE(table.find("hit rate"), std::string::npos);
}

}  // namespace
}  // namespace pgasemb
