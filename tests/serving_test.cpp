// Serving-pipeline suite: the open-loop path must be deterministic and
// leave the closed loop alone (the golden corpus pins every closed-loop
// bench's output byte for byte).
//
//  - Closed-loop fallback: a faulted PGAS run swaps to the fallback
//    retriever exactly once.
//  - Serving determinism: same seed -> identical histograms, timelines,
//    and byte-identical sweep CSV.
//  - Load generator statistics: Poisson inter-arrival mean/CV, bursty
//    arrivals confined to on-windows, query-size distributions.
//  - Dynamic batcher close rules: fill, deadline, overflow.
//  - Latency attribution on mid-run fallback: the drained finish() is
//    recorded (DrainEntry) and the run total stays consistent.
//  - simsan certification of the serving path at 2/4/8 GPUs.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/latency_histogram.hpp"
#include "emb/sparse_batch.hpp"
#include "engine/dynamic_batcher.hpp"
#include "engine/load_generator.hpp"
#include "engine/scenario_runner.hpp"
#include "engine/serving_runner.hpp"
#include "fabric/fabric.hpp"
#include "fault/injector.hpp"
#include "trace/report.hpp"

namespace pgasemb::engine {
namespace {

const std::vector<std::string> kRetrievers = {
    "nccl_collective", "pgas_fused", "nccl_pipelined"};

// --- Closed-loop fallback ----------------------------------------------------

TEST(ClosedLoopFallback, FaultedPgasSwapsToTheFallbackOnce) {
  ExperimentConfig cfg = weakScalingConfig(2);
  cfg.num_batches = 6;
  // The SLO sits just under a fault-free PGAS batch, so the fused runs
  // trip it and the run swaps to the fallback mid-run.
  const ExperimentResult healthy = ScenarioRunner(cfg).run("pgas_fused");
  cfg.faults = fault::FaultPlan::parse("link-degrade:0-1:0.25:0.0-5.0", 7,
                                       SimTime::ms(10.0));
  cfg.fallback.slo_ms = healthy.per_batch[0].total.toMs() * 0.95;
  cfg.fallback.patience = 2;
  const ExperimentResult fused = ScenarioRunner(cfg).run("pgas_fused");
  ASSERT_TRUE(fused.resilience.has_value());
  EXPECT_EQ(fused.resilience->fallback_switches, 1);
}

// --- Serving pipeline ------------------------------------------------------

ExperimentConfig smallServingConfig(int gpus = 2,
                                    std::int64_t max_batch = 64) {
  ExperimentConfig cfg;
  cfg.num_gpus = gpus;
  cfg.layer = emb::servingLayerSpec(gpus, max_batch);
  cfg.serving.num_queries = 300;
  cfg.serving.qps = 50000.0;
  cfg.serving.query_size = emb::parseQuerySizeSpec("uniform:1-16");
  cfg.serving.max_wait_ms = 0.2;
  cfg.serving.timeline_window = 50;
  return cfg;
}

TEST(Serving, RunsAndPopulatesResult) {
  const ExperimentConfig cfg = smallServingConfig();
  ServingRunner runner(cfg);
  const ExperimentResult result = runner.run("pgas_fused");
  ASSERT_TRUE(result.serving.has_value());
  const ServingResult& sv = *result.serving;
  EXPECT_EQ(sv.queries, cfg.serving.num_queries);
  EXPECT_EQ(sv.latency.count(), cfg.serving.num_queries);
  EXPECT_EQ(sv.queue_latency.count(), cfg.serving.num_queries);
  EXPECT_GT(sv.batches, 0);
  EXPECT_EQ(static_cast<std::int64_t>(sv.per_batch_samples.size()),
            sv.batches);
  EXPECT_EQ(sv.batches, result.stats.batches);
  // Percentiles are ordered and positive; queueing is part of the total.
  EXPECT_GT(sv.p50_ms, 0.0);
  EXPECT_LE(sv.p50_ms, sv.p95_ms);
  EXPECT_LE(sv.p95_ms, sv.p99_ms);
  EXPECT_LE(sv.p99_ms, sv.max_ms);
  EXPECT_GE(sv.mean_ms, sv.mean_queue_ms);
  EXPECT_GT(sv.achieved_qps, 0.0);
  EXPECT_GT(sv.mean_batch_fill, 0.0);
  EXPECT_LE(sv.mean_batch_fill, 1.0);
  // Every sample the generator produced went through some batch.
  std::int64_t samples = 0;
  for (const auto s : sv.per_batch_samples) {
    EXPECT_GE(s, 1);
    EXPECT_LE(s, 64);
    samples += s;
  }
  EXPECT_GE(samples, cfg.serving.num_queries);  // sizes >= 1 each
}

TEST(Serving, SameSeedIsDeterministic) {
  const ExperimentConfig cfg = smallServingConfig();
  auto run_once = [&](const std::string& name) {
    ServingRunner runner(cfg);
    return runner.run(name);
  };
  for (const auto& name : kRetrievers) {
    const ExperimentResult a = run_once(name);
    const ExperimentResult b = run_once(name);
    ASSERT_TRUE(a.serving && b.serving) << name;
    EXPECT_TRUE(a.serving->latency == b.serving->latency) << name;
    EXPECT_TRUE(a.serving->queue_latency == b.serving->queue_latency)
        << name;
    EXPECT_EQ(a.serving->per_batch_samples, b.serving->per_batch_samples)
        << name;
    EXPECT_EQ(a.serving->window_p95_ms, b.serving->window_p95_ms) << name;
    EXPECT_EQ(a.serving->p99_ms, b.serving->p99_ms) << name;
    EXPECT_EQ(a.serving->achieved_qps, b.serving->achieved_qps) << name;
    EXPECT_EQ(a.stats.total, b.stats.total) << name;
  }
}

TEST(Serving, SweepCsvIsByteIdentical) {
  const ExperimentConfig cfg = smallServingConfig();
  auto sweep = [&] {
    ServingRunner runner(cfg);
    trace::ServingPoint point;
    point.arrival = formatArrivalPattern(cfg.serving.arrival);
    point.qps = cfg.serving.qps;
    point.runs = runner.runAll({"nccl_collective", "pgas_fused"});
    return std::vector<trace::ServingPoint>{point};
  };
  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  const std::string path_a = testing::TempDir() + "serving_a.csv";
  const std::string path_b = testing::TempDir() + "serving_b.csv";
  trace::writeServingCsv(path_a, sweep());
  trace::writeServingCsv(path_b, sweep());
  const std::string a = read_file(path_a);
  const std::string b = read_file(path_b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Serving, ClosedLoopOutputUnchangedWhenServingOff) {
  // The serving config rides inside ExperimentConfig; as long as it is
  // disabled the closed-loop result must not depend on its values.
  ExperimentConfig cfg = weakScalingConfig(2);
  cfg.num_batches = 3;
  const ExperimentResult base = ScenarioRunner(cfg).run("pgas_fused");
  cfg.serving.qps = 123456.0;
  cfg.serving.max_wait_ms = 99.0;
  cfg.serving.slo_ms = 0.001;
  const ExperimentResult tweaked = ScenarioRunner(cfg).run("pgas_fused");
  EXPECT_EQ(base.stats.total, tweaked.stats.total);
  EXPECT_EQ(base.total_wire_bytes, tweaked.total_wire_bytes);
  EXPECT_FALSE(tweaked.serving.has_value());
}

// --- Load generator --------------------------------------------------------

TEST(LoadGenerator, PoissonInterArrivalStatistics) {
  ServingConfig cfg;
  cfg.num_queries = 20000;
  cfg.qps = 100000.0;
  LoadGenerator gen(cfg, 64);
  std::vector<double> gaps;
  SimTime prev = SimTime::zero();
  bool first = true;
  while (auto q = gen.next()) {
    if (!first) gaps.push_back((q->arrival - prev).toSec());
    prev = q->arrival;
    first = false;
  }
  ASSERT_EQ(gaps.size(), static_cast<std::size_t>(cfg.num_queries - 1));
  double sum = 0.0;
  for (const double g : gaps) {
    EXPECT_GE(g, 0.0);
    sum += g;
  }
  const double mean = sum / static_cast<double>(gaps.size());
  double var = 0.0;
  for (const double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  // Exponential(rate): mean = 1/rate, CV = 1.
  EXPECT_NEAR(mean, 1.0 / cfg.qps, 0.05 / cfg.qps);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(LoadGenerator, BurstyArrivalsStayInOnWindows) {
  ServingConfig cfg;
  cfg.num_queries = 5000;
  cfg.qps = 20000.0;
  cfg.arrival = ArrivalPattern::kBursty;
  cfg.burst_on_ms = 1.0;
  cfg.burst_off_ms = 4.0;
  LoadGenerator gen(cfg, 64);
  const double period_ms = cfg.burst_on_ms + cfg.burst_off_ms;
  SimTime prev = SimTime::zero();
  SimTime last = SimTime::zero();
  while (auto q = gen.next()) {
    EXPECT_GE(q->arrival, prev);
    const double pos = std::fmod(q->arrival.toMs(), period_ms);
    EXPECT_LT(pos, cfg.burst_on_ms + 1e-9);
    prev = q->arrival;
    last = q->arrival;
  }
  // Long-run average stays ~qps despite the silence windows.
  const double span_s = last.toSec();
  ASSERT_GT(span_s, 0.0);
  EXPECT_NEAR(static_cast<double>(cfg.num_queries) / span_s, cfg.qps,
              0.1 * cfg.qps);
}

TEST(LoadGenerator, QuerySizesFollowTheSpecAndCap) {
  ServingConfig cfg;
  cfg.num_queries = 8000;
  cfg.qps = 1e6;
  cfg.query_size = emb::parseQuerySizeSpec("uniform:1-32");
  LoadGenerator gen(cfg, 16);  // cap below the spec's hi
  std::int64_t lo = 1 << 20, hi = 0;
  double sum = 0.0, n = 0.0;
  while (auto q = gen.next()) {
    lo = std::min(lo, q->samples);
    hi = std::max(hi, q->samples);
    sum += static_cast<double>(q->samples);
    n += 1.0;
  }
  EXPECT_EQ(lo, 1);
  EXPECT_EQ(hi, 16);  // the batcher cap clamps the tail
  // U(1,32) clamped to 16: mean = (1+...+15)/32 + 16*17/32 = 12.25
  EXPECT_NEAR(sum / n, 12.25, 0.3);
}

TEST(QuerySize, ParseFormatAndMoments) {
  const auto fixed = emb::parseQuerySizeSpec("fixed:8");
  EXPECT_EQ(fixed.kind, emb::QuerySizeSpec::Kind::kFixed);
  EXPECT_EQ(fixed.lo, 8);
  EXPECT_EQ(emb::formatQuerySizeSpec(fixed), "fixed:8");
  EXPECT_EQ(fixed.meanSize(), 8.0);

  const auto uni = emb::parseQuerySizeSpec("uniform:2-10");
  EXPECT_EQ(uni.kind, emb::QuerySizeSpec::Kind::kUniform);
  EXPECT_EQ(uni.lo, 2);
  EXPECT_EQ(uni.hi, 10);
  EXPECT_EQ(uni.meanSize(), 6.0);
  EXPECT_EQ(emb::formatQuerySizeSpec(uni), "uniform:2-10");

  const auto zipf = emb::parseQuerySizeSpec("zipf:1.2:1-64");
  EXPECT_EQ(zipf.kind, emb::QuerySizeSpec::Kind::kZipf);
  EXPECT_EQ(zipf.alpha, 1.2);
  // Skewed towards lo: the mean sits well under the uniform midpoint.
  EXPECT_GT(zipf.meanSize(), 1.0);
  EXPECT_LT(zipf.meanSize(), 32.5);

  // The zipf sampler's empirical mean matches the analytic meanSize.
  emb::QuerySizeSampler sampler(zipf);
  Rng rng(123);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(sampler.sample(rng));
  }
  EXPECT_NEAR(sum / n, zipf.meanSize(), 0.05 * zipf.meanSize());

  EXPECT_THROW(emb::parseQuerySizeSpec("fixed:0"), Error);
  EXPECT_THROW(emb::parseQuerySizeSpec("uniform:8-2"), Error);
  EXPECT_THROW(emb::parseQuerySizeSpec("zipf:1.2"), Error);
  EXPECT_THROW(emb::parseQuerySizeSpec("gauss:3"), Error);
}

// --- Dynamic batcher -------------------------------------------------------

ServingConfig batcherConfig(double qps, std::int64_t queries,
                            const std::string& sizes) {
  ServingConfig cfg;
  cfg.num_queries = queries;
  cfg.qps = qps;
  cfg.query_size = emb::parseQuerySizeSpec(sizes);
  return cfg;
}

TEST(DynamicBatcher, ClosesOnFill) {
  // Arrivals far faster than the wait budget: batches close full.
  const ServingConfig cfg = batcherConfig(1e8, 64, "fixed:1");
  LoadGenerator gen(cfg, 16);
  DynamicBatcher batcher(gen, 16, SimTime::ms(10.0));
  int batches = 0;
  SimTime free_at = SimTime::zero();
  while (auto b = batcher.nextBatch(free_at)) {
    EXPECT_EQ(b->samples, 16);
    EXPECT_EQ(b->queries.size(), 16u);
    // The batch closes when the filling query arrives, not at the
    // deadline.
    EXPECT_EQ(b->close_time, b->queries.back().arrival);
    free_at = b->close_time;
    ++batches;
  }
  EXPECT_EQ(batches, 4);
}

TEST(DynamicBatcher, ClosesOnDeadline) {
  // Arrivals far slower than the wait budget: singleton batches closing
  // exactly max_wait after their first (only) query.
  const ServingConfig cfg = batcherConfig(100.0, 8, "fixed:1");
  LoadGenerator gen(cfg, 16);
  const SimTime wait = SimTime::ms(0.5);
  DynamicBatcher batcher(gen, 16, wait);
  int batches = 0;
  while (auto b = batcher.nextBatch(SimTime::zero())) {
    EXPECT_EQ(b->queries.size(), 1u);
    EXPECT_EQ(b->close_time, b->queries.front().arrival + wait);
    EXPECT_EQ(b->queue_depth_at_close, 0);
    ++batches;
  }
  EXPECT_EQ(batches, 8);
}

TEST(DynamicBatcher, ClosesOnOverflow) {
  // 3-sample queries into a 4-sample batch: every batch carries one
  // query and closes when the next (overflowing) query arrives.
  const ServingConfig cfg = batcherConfig(1e8, 12, "fixed:3");
  LoadGenerator gen(cfg, 4);
  DynamicBatcher batcher(gen, 4, SimTime::ms(10.0));
  int batches = 0;
  while (auto b = batcher.nextBatch(SimTime::zero())) {
    EXPECT_EQ(b->queries.size(), 1u);
    EXPECT_EQ(b->samples, 3);
    ++batches;
  }
  EXPECT_EQ(batches, 12);
}

TEST(DynamicBatcher, NeverSplitsAQueryAndPreservesFifo) {
  const ServingConfig cfg = batcherConfig(5e7, 200, "uniform:1-16");
  LoadGenerator gen(cfg, 32);
  DynamicBatcher batcher(gen, 32, SimTime::ms(0.05));
  std::int64_t next_id = 0;
  SimTime free_at = SimTime::zero();
  while (auto b = batcher.nextBatch(free_at)) {
    std::int64_t samples = 0;
    for (const auto& q : b->queries) {
      EXPECT_EQ(q.id, next_id++);  // FIFO, no splits, no drops
      samples += q.samples;
    }
    EXPECT_EQ(samples, b->samples);
    EXPECT_LE(samples, 32);
    free_at = std::max(free_at, b->close_time);
  }
  EXPECT_EQ(next_id, 200);
}

// --- Latency attribution on mid-run fallback -------------------------------

TEST(DrainAttribution, ClosedLoopRecordsDrainEntry) {
  // An impossible SLO fires the fallback right after the first batch;
  // the pipelined strategy has in-flight work, so its drained finish()
  // must be visible both in the run total and as a DrainEntry.
  ExperimentConfig cfg = weakScalingConfig(2);
  cfg.num_batches = 6;
  cfg.fallback.slo_ms = 0.0001;
  cfg.fallback.patience = 1;
  const ExperimentResult result =
      ScenarioRunner(cfg).run("nccl_pipelined");
  ASSERT_TRUE(result.resilience.has_value());
  EXPECT_EQ(result.resilience->fallback_switches, 1);
  EXPECT_EQ(result.resilience->fallback_retriever, "nccl_collective");
  ASSERT_EQ(result.drains.size(), 1u);
  EXPECT_EQ(result.drains[0].retriever, "nccl_pipelined");
  EXPECT_EQ(result.drains[0].after_batch, 1);
  EXPECT_GT(result.drains[0].drain_time, SimTime::zero());
  // total = sum of batch timings + the recorded drain (the collective
  // fallback's final finish() is a no-op).
  SimTime batch_sum = SimTime::zero();
  for (const auto& t : result.per_batch) batch_sum += t.total;
  EXPECT_EQ(result.stats.total, batch_sum + result.drains[0].drain_time);
}

TEST(DrainAttribution, ServingChargesDrainToInFlightQueries) {
  ExperimentConfig cfg = smallServingConfig();
  cfg.serving.num_queries = 400;
  // Impossible: fires once the 64-query window fills, with most of the
  // 400 queries still to serve.
  cfg.fallback.slo_ms = 0.0001;
  cfg.fallback.patience = 1;
  const ExperimentResult result =
      ServingRunner(cfg).run("nccl_pipelined");
  ASSERT_TRUE(result.resilience.has_value());
  EXPECT_EQ(result.resilience->fallback_switches, 1);
  ASSERT_EQ(result.drains.size(), 1u);
  EXPECT_EQ(result.drains[0].retriever, "nccl_pipelined");
  EXPECT_GT(result.drains[0].drain_time, SimTime::zero());
  ASSERT_TRUE(result.serving.has_value());
  // The drain advanced the host clock between batches, so the queries
  // that waited through the switch carry it: the max latency is at
  // least the drain itself.
  EXPECT_GE(SimTime::ms(result.serving->max_ms),
            result.drains[0].drain_time);
}

// --- SloTracker query mode -------------------------------------------------

/// SloTracker's query window: the p95 (nearest rank, entry 60 of 64 in
/// sorted order) is over the SLO exactly when at least 4 of the last 64
/// latencies are.
constexpr int kQueryWindow = 64;

TEST(SloTrackerQuery, AbsoluteSloFiresOnSlidingWindowP95) {
  core::FallbackPolicy policy;
  policy.slo_ms = 1.0;
  policy.patience = 2;
  core::SloTracker tracker(policy);
  // Window not yet full: never fires.
  for (int i = 0; i < kQueryWindow - 1; ++i) {
    EXPECT_FALSE(tracker.recordQuery(SimTime::ms(10.0)));
  }
  EXPECT_EQ(tracker.windowP95(), SimTime::zero());
  // The 64th query fills the window; p95 = 10ms > 1ms -> patience 1 of 2.
  EXPECT_FALSE(tracker.recordQuery(SimTime::ms(10.0)));
  EXPECT_EQ(tracker.windowP95(), SimTime::ms(10.0));
  // Second consecutive over-SLO evaluation fires.
  EXPECT_TRUE(tracker.recordQuery(SimTime::ms(10.0)));
  // Fired once: disarmed for the rest of the run.
  EXPECT_FALSE(tracker.recordQuery(SimTime::ms(100.0)));
}

TEST(SloTrackerQuery, ConsecutiveCounterResetsOnHealthyWindow) {
  core::FallbackPolicy policy;
  policy.slo_ms = 1.0;
  policy.patience = 3;
  core::SloTracker tracker(policy);
  // Five slow queries, then healthy ones until the window fills: five
  // of 64 entries are over, so the p95 is over (1 of 3).
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(tracker.recordQuery(SimTime::ms(5.0)));  // filling
  }
  for (int i = 5; i < kQueryWindow - 1; ++i) {
    EXPECT_FALSE(tracker.recordQuery(SimTime::ms(0.1)));  // filling
  }
  EXPECT_FALSE(tracker.recordQuery(SimTime::ms(0.1)));  // over (1 of 3)
  // Each healthy query evicts the oldest, slow, entry. Four slow entries
  // keep the p95 over; three leave it healthy and reset patience.
  EXPECT_FALSE(tracker.recordQuery(SimTime::ms(0.1)));  // over (2 of 3)
  EXPECT_FALSE(tracker.recordQuery(SimTime::ms(0.1)));  // healthy: reset
  EXPECT_EQ(tracker.windowP95(), SimTime::ms(0.1));
  // Slow queries evict the last three slow entries, then healthy ones:
  // the fourth slow entry brings the p95 back over.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(tracker.recordQuery(SimTime::ms(5.0)));  // healthy
  }
  EXPECT_FALSE(tracker.recordQuery(SimTime::ms(5.0)));  // over (1 of 3)
  EXPECT_FALSE(tracker.recordQuery(SimTime::ms(5.0)));  // over (2 of 3)
  EXPECT_TRUE(tracker.recordQuery(SimTime::ms(5.0)));   // over (3 of 3)
}

// --- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogram, EmptyAndExactMoments) {
  core::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), SimTime::zero());
  EXPECT_EQ(h.max(), SimTime::zero());
  EXPECT_EQ(h.percentileMs(50.0), 0.0);
  for (int ms = 1; ms <= 100; ++ms) h.add(SimTime::ms(ms));
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.min(), SimTime::ms(1.0));
  EXPECT_EQ(h.max(), SimTime::ms(100.0));
  EXPECT_DOUBLE_EQ(h.meanMs(), 50.5);  // sum is exact integral SimTime
  // Interpolated percentiles live within a log bin (~21% wide) of the
  // exact value and inside the observed range.
  EXPECT_NEAR(h.percentileMs(50.0), 50.5, 0.25 * 50.5);
  EXPECT_GE(h.percentileMs(0.0), 1.0);
  EXPECT_LE(h.percentileMs(100.0), 100.0);
  EXPECT_LT(h.percentileMs(10.0), h.percentileMs(90.0));
}

TEST(LatencyHistogram, UnderflowOverflowAndMerge) {
  core::LatencyHistogram h;
  h.add(SimTime::zero());          // underflow bin
  h.add(SimTime::sec(1000.0));     // overflow bin
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.binCount(0), 1);
  EXPECT_EQ(h.binCount(h.numBins() - 1), 1);
  // Percentiles stay clamped to observed extremes even in open bins.
  EXPECT_LE(h.percentileMs(99.0), 1000.0 * 1000.0);
  EXPECT_THROW(h.add(SimTime::ms(-1.0)), Error);

  core::LatencyHistogram a, b, all;
  for (int i = 1; i <= 50; ++i) {
    a.add(SimTime::ms(i));
    all.add(SimTime::ms(i));
  }
  for (int i = 51; i <= 100; ++i) {
    b.add(SimTime::ms(i));
    all.add(SimTime::ms(i));
  }
  a.merge(b);
  EXPECT_TRUE(a == all);
}

// --- Config validation -----------------------------------------------------

TEST(Validation, RejectsBadConfigsAtParseTime) {
  {
    ExperimentConfig cfg = weakScalingConfig(2);
    cfg.num_batches = 0;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    ExperimentConfig cfg = smallServingConfig();
    cfg.serving.qps = 0.0;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    ExperimentConfig cfg = smallServingConfig();
    cfg.serving.max_batch_size = cfg.layer.batch_size + 1;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    ExperimentConfig cfg = smallServingConfig();
    cfg.serving.arrival = ArrivalPattern::kBursty;
    cfg.serving.burst_on_ms = 0.0;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    ExperimentConfig cfg = smallServingConfig();
    cfg.serving.max_wait_ms = -1.0;
    EXPECT_THROW(cfg.validate(), Error);
  }
  EXPECT_NO_THROW(smallServingConfig().validate());
  EXPECT_THROW(parseArrivalPattern("sinusoidal"), Error);
  EXPECT_EQ(formatArrivalPattern(ArrivalPattern::kBursty), "bursty");
}

TEST(Validation, RejectsNegativeCacheAndSloInputsNamingTheFlag) {
  const auto rejection = [](const ExperimentConfig& cfg) -> std::string {
    try {
      cfg.validate();
    } catch (const InvalidArgumentError& e) {
      return e.what();
    }
    return "accepted";
  };
  ExperimentConfig cache = weakScalingConfig(2);
  cache.cache_rows = -5;
  EXPECT_NE(rejection(cache).find("cache-rows"), std::string::npos);
  ExperimentConfig slo = weakScalingConfig(2);
  slo.fallback.slo_ms = -2.0;
  EXPECT_NE(rejection(slo).find("slo-ms"), std::string::npos);
  ExperimentConfig patience = weakScalingConfig(2);
  patience.fallback.slo_ms = 5.0;
  patience.fallback.patience = 0;
  EXPECT_NE(rejection(patience).find("slo-patience"), std::string::npos);
  // Patience means nothing until an SLO is set.
  ExperimentConfig unset = weakScalingConfig(2);
  unset.fallback.patience = 0;
  EXPECT_NO_THROW(unset.validate());
}

// --- Partial batches (active_samples) --------------------------------------

TEST(ActiveSamples, PaddingIsEmptyBagsAndPrefixPreserving) {
  emb::SparseBatchSpec spec;
  spec.num_tables = 2;
  spec.batch_size = 8;
  spec.min_pooling = 1;
  spec.max_pooling = 4;

  Rng rng_full(42);
  const auto full = emb::SparseBatch::generateUniform(spec, rng_full);
  spec.active_samples = 3;
  Rng rng_part(42);
  const auto part = emb::SparseBatch::generateUniform(spec, rng_part);

  for (std::int64_t t = 0; t < 2; ++t) {
    for (std::int64_t s = 0; s < 8; ++s) {
      if (s < 3) {
        EXPECT_GE(part.poolingFactor(t, s), 1);
      } else {
        EXPECT_EQ(part.poolingFactor(t, s), 0);  // NULL padding
      }
    }
  }
  // Same seed, same draw order: the FIRST table's active prefix is
  // identical to the fully active batch's (later tables' streams shift
  // because padding consumes no draws).
  for (std::int64_t s = 0; s < 3; ++s) {
    EXPECT_EQ(part.poolingFactor(0, s), full.poolingFactor(0, s));
  }

  // The statistical twin scales expectations by the active fill.
  const auto stat = emb::SparseBatch::statistical(spec);
  EXPECT_DOUBLE_EQ(stat.totalIndices(0, 2), 3 * 2.5 * 2);
}

// --- Overload-resilient admission control (DESIGN.md §13) -------------------

/// Offered load far past the 2-GPU knee: without admission control the
/// queue grows without bound and the tail blows through any SLO.
ExperimentConfig overloadConfig() {
  ExperimentConfig cfg = smallServingConfig();
  cfg.serving.num_queries = 400;
  cfg.serving.qps = 400000.0;
  return cfg;
}

// Sustained ~2x-knee overload: the arrival phase has to outlast the
// first SLO-breaching completion or the sliding-window controller never
// gets a chance to shed anything (a short burst is fully admitted
// before its backlog shows up in the completion window).
ExperimentConfig sustainedOverloadConfig() {
  ExperimentConfig cfg = smallServingConfig();
  cfg.serving.num_queries = 3000;
  cfg.serving.qps = 300000.0;
  return cfg;
}

TEST(Admission, DisabledByDefaultAndAbsentFromResult) {
  const ExperimentConfig cfg = smallServingConfig();
  EXPECT_FALSE(cfg.serving.admissionEnabled());
  const ExperimentResult r = ServingRunner(cfg).run("pgas_fused");
  ASSERT_TRUE(r.serving.has_value());
  EXPECT_FALSE(r.serving->admission);
  EXPECT_EQ(r.serving->totalShed(), 0);
  EXPECT_EQ(r.serving->deadline_misses, 0);
  EXPECT_EQ(r.serving->blocked_arrivals, 0);
  // The goodput rate is computed regardless (slo_ms == 0 counts every
  // served query as good).
  EXPECT_DOUBLE_EQ(r.serving->goodput_qps, r.serving->achieved_qps);
}

TEST(Admission, BlockPolicyCountsButServesEveryQuery) {
  ExperimentConfig cfg = overloadConfig();
  cfg.serving.admit_queue = 4;
  cfg.serving.shed_policy = ShedPolicy::kBlock;
  const ExperimentResult r = ServingRunner(cfg).run("pgas_fused");
  ASSERT_TRUE(r.serving.has_value());
  const ServingResult& sv = *r.serving;
  EXPECT_TRUE(sv.admission);
  EXPECT_GT(sv.blocked_arrivals, 0);
  EXPECT_EQ(sv.totalShed(), 0);
  // Blocking sheds nothing: every query is eventually served.
  EXPECT_EQ(sv.queries, cfg.serving.num_queries);
}

TEST(Admission, ShedPoliciesDropAndConserveQueries) {
  for (const ShedPolicy policy :
       {ShedPolicy::kShedOldest, ShedPolicy::kShedNewest}) {
    ExperimentConfig cfg = overloadConfig();
    cfg.serving.admit_queue = 4;
    cfg.serving.shed_policy = policy;
    const ExperimentResult r = ServingRunner(cfg).run("pgas_fused");
    ASSERT_TRUE(r.serving.has_value());
    const ServingResult& sv = *r.serving;
    EXPECT_GT(sv.shed_queue, 0) << formatShedPolicy(policy);
    EXPECT_EQ(sv.blocked_arrivals, 0) << formatShedPolicy(policy);
    // Every generated query is either served or shed, never lost
    // (totalShed() counts deadline misses too).
    EXPECT_EQ(sv.queries + sv.totalShed(), cfg.serving.num_queries)
        << formatShedPolicy(policy);
    EXPECT_LT(sv.queries, cfg.serving.num_queries)
        << formatShedPolicy(policy);
  }
}

TEST(Admission, ShedOldestKeepsTheQueueFresherThanShedNewest) {
  auto run = [](ShedPolicy policy) {
    ExperimentConfig cfg = overloadConfig();
    cfg.serving.admit_queue = 8;
    cfg.serving.shed_policy = policy;
    return ServingRunner(cfg).run("pgas_fused");
  };
  const ExperimentResult oldest = run(ShedPolicy::kShedOldest);
  const ExperimentResult newest = run(ShedPolicy::kShedNewest);
  ASSERT_TRUE(oldest.serving && newest.serving);
  // Shedding the head serves fresher queries: its mean queue wait can
  // never exceed the drop-at-the-door policy's.
  EXPECT_LE(oldest.serving->mean_queue_ms, newest.serving->mean_queue_ms);
}

TEST(Admission, QueueDeadlineShedsStaleQueries) {
  ExperimentConfig cfg = overloadConfig();
  cfg.serving.query_deadline_ms = 0.5;
  const ExperimentResult r = ServingRunner(cfg).run("pgas_fused");
  ASSERT_TRUE(r.serving.has_value());
  const ServingResult& sv = *r.serving;
  EXPECT_GT(sv.deadline_misses, 0);
  // totalShed() already folds in the deadline misses.
  EXPECT_EQ(sv.queries + sv.totalShed(), cfg.serving.num_queries);
  // Every query that did get served waited at most the deadline.
  EXPECT_LE(sv.queue_latency.max(), SimTime::ms(cfg.serving.max_wait_ms) +
                                        SimTime::ms(0.5));
}

TEST(Admission, SheddingHoldsP95UnderOverloadWhereNoSheddingViolates) {
  // 2x-knee overload against a 2 ms SLO: without admission control the
  // backlog grows without bound and the p95 blows through the SLO; the
  // full admission stack (bounded queue with shed-oldest plus the
  // sliding-window controller) keeps the served tail inside it.
  ExperimentConfig open = sustainedOverloadConfig();
  open.serving.slo_ms = 2.0;
  const ExperimentResult uncontrolled =
      ServingRunner(open).run("pgas_fused");
  ASSERT_TRUE(uncontrolled.serving.has_value());
  EXPECT_GT(uncontrolled.serving->p95_ms, open.serving.slo_ms);

  ExperimentConfig shed = sustainedOverloadConfig();
  shed.serving.slo_ms = 2.0;
  shed.serving.admit_queue = 8;
  shed.serving.shed_policy = ShedPolicy::kShedOldest;
  shed.serving.admit_window = 50;
  const ExperimentResult controlled = ServingRunner(shed).run("pgas_fused");
  ASSERT_TRUE(controlled.serving.has_value());
  const ServingResult& sv = *controlled.serving;
  EXPECT_GT(sv.totalShed(), 0);
  EXPECT_LE(sv.p95_ms, open.serving.slo_ms);
  EXPECT_GT(sv.goodput_qps, uncontrolled.serving->goodput_qps);
}

TEST(Admission, OverloadControllerShedsWhenTheWindowedP95Breaches) {
  // The controller alone (no queue bound): every breached completion
  // window ratchets the shed fraction up, so under sustained overload it
  // must start shedding arrivals and improve the served tail over the
  // uncontrolled run.
  ExperimentConfig open = sustainedOverloadConfig();
  open.serving.slo_ms = 2.0;
  const ExperimentResult uncontrolled =
      ServingRunner(open).run("pgas_fused");

  ExperimentConfig ctl = sustainedOverloadConfig();
  ctl.serving.slo_ms = 2.0;
  ctl.serving.admit_window = 25;
  const ExperimentResult controlled = ServingRunner(ctl).run("pgas_fused");
  ASSERT_TRUE(uncontrolled.serving && controlled.serving);
  EXPECT_GT(controlled.serving->shed_overload, 0);
  EXPECT_LT(controlled.serving->p95_ms, uncontrolled.serving->p95_ms);
  EXPECT_EQ(controlled.serving->queries + controlled.serving->totalShed(),
            ctl.serving.num_queries);
}

TEST(Admission, SameSeedIsDeterministic) {
  ExperimentConfig cfg = overloadConfig();
  cfg.serving.admit_queue = 8;
  cfg.serving.shed_policy = ShedPolicy::kShedOldest;
  cfg.serving.query_deadline_ms = 3.0;
  cfg.serving.slo_ms = 2.0;
  cfg.serving.admit_window = 50;
  auto run = [&] { return ServingRunner(cfg).run("pgas_fused"); };
  const ExperimentResult a = run();
  const ExperimentResult b = run();
  ASSERT_TRUE(a.serving && b.serving);
  EXPECT_EQ(a.serving->shed_queue, b.serving->shed_queue);
  EXPECT_EQ(a.serving->shed_overload, b.serving->shed_overload);
  EXPECT_EQ(a.serving->deadline_misses, b.serving->deadline_misses);
  EXPECT_EQ(a.serving->goodput_qps, b.serving->goodput_qps);
  EXPECT_EQ(a.stats.total, b.stats.total);
}

TEST(Admission, PolicyParsingRoundTripsAndRejectsJunk) {
  EXPECT_EQ(parseShedPolicy("block"), ShedPolicy::kBlock);
  EXPECT_EQ(parseShedPolicy("shed-oldest"), ShedPolicy::kShedOldest);
  EXPECT_EQ(parseShedPolicy("shed-newest"), ShedPolicy::kShedNewest);
  for (const ShedPolicy p :
       {ShedPolicy::kBlock, ShedPolicy::kShedOldest,
        ShedPolicy::kShedNewest}) {
    EXPECT_EQ(parseShedPolicy(formatShedPolicy(p)), p);
  }
  EXPECT_THROW(parseShedPolicy("drop-all"), Error);
}

TEST(Admission, ValidationRejectsInconsistentKnobs) {
  {
    ExperimentConfig cfg = smallServingConfig();
    cfg.serving.admit_queue = -1;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    ExperimentConfig cfg = smallServingConfig();
    cfg.serving.query_deadline_ms = -0.5;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    // A latency window without an SLO has nothing to control against.
    ExperimentConfig cfg = smallServingConfig();
    cfg.serving.admit_window = 10;
    EXPECT_THROW(cfg.validate(), Error);
  }
  {
    // Admission knobs on a closed-loop (non-serving) config are a
    // config error, not silently ignored.
    ExperimentConfig cfg = weakScalingConfig(2);
    cfg.num_batches = 2;
    cfg.serving.admit_queue = 8;
    EXPECT_THROW(cfg.validate(), Error);
  }
}

TEST(Admission, CsvColumnsAppearOnlyWhenArmed) {
  const auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  auto sweep = [&](bool admission) {
    ExperimentConfig cfg = smallServingConfig();
    if (admission) {
      cfg.serving.admit_queue = 8;
      cfg.serving.shed_policy = ShedPolicy::kShedOldest;
    }
    ServingRunner runner(cfg);
    trace::ServingPoint point;
    point.arrival = formatArrivalPattern(cfg.serving.arrival);
    point.qps = cfg.serving.qps;
    point.runs = runner.runAll({"pgas_fused"});
    return std::vector<trace::ServingPoint>{point};
  };
  const std::string path_off = testing::TempDir() + "admission_off.csv";
  const std::string path_on = testing::TempDir() + "admission_on.csv";
  trace::writeServingCsv(path_off, sweep(false));
  trace::writeServingCsv(path_on, sweep(true));
  const std::string off = read_file(path_off);
  const std::string on = read_file(path_on);
  // Absent-neutral: the historical schema is untouched when no run armed
  // an admission knob; the new columns appear only when one did.
  EXPECT_EQ(off.find("shed_queue"), std::string::npos);
  EXPECT_EQ(off.find("goodput_qps"), std::string::npos);
  EXPECT_NE(on.find("shed_queue"), std::string::npos);
  EXPECT_NE(on.find("goodput_qps"), std::string::npos);
}

// --- simsan certification of the serving path ------------------------------

TEST(ServingSimsan, CleanAcrossGpuCountsAndRetrievers) {
  for (const int gpus : {2, 4, 8}) {
    ExperimentConfig cfg = smallServingConfig(gpus);
    cfg.serving.num_queries = 60;
    cfg.simsan = true;
    ServingRunner runner(cfg);
    for (const auto& name : kRetrievers) {
      const ExperimentResult result = runner.run(name);
      ASSERT_TRUE(result.sanitizer.has_value())
          << name << " @ " << gpus << " GPUs";
      EXPECT_TRUE(result.sanitizer->clean())
          << name << " @ " << gpus
          << " GPUs: " << result.sanitizer->report();
    }
  }
}

}  // namespace
}  // namespace pgasemb::engine
