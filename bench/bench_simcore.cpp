// Simulator-core throughput microbenchmark: the perf record behind the
// TimingOnly fast path (DESIGN.md §9).
//
// Three measurements, written as one JSON record for
// scripts/check_perf.py to track across commits:
//   - push_pop:        raw EventQueue heap throughput (scheduleAt one
//                      event at a time, pseudo-random times, drain)
//   - schedule_batch:  the same event count enqueued through
//                      Simulator::scheduleBatch in slab-sized chunks
//   - pgas_coalesced / pgas_per_message: the end-to-end weak-scaling
//                      PGAS run with the per-flow coalescing fast path
//                      on vs off (simulated results identical; only
//                      host events/sec and wall ms/batch differ)
//
// All times are host wall-clock; nothing here changes simulated time.
#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "bench_common.hpp"
#include "engine/scenario_runner.hpp"
#include "sim/simulator.hpp"

namespace {

using pgasemb::SimTime;
using pgasemb::bench::secondsSince;

/// scheduleAt + run() over `n` events at seeded pseudo-random times;
/// returns events/sec. The callback is trivial so the heap dominates.
double pushPopRate(std::int64_t n) {
  pgasemb::sim::Simulator sim;
  std::minstd_rand rng(12345);
  std::int64_t fired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < n; ++i) {
    sim.scheduleAt(SimTime(1 + static_cast<std::int64_t>(rng()) % 1000000),
                   [&fired] { ++fired; });
  }
  sim.run();
  const double s = secondsSince(t0);
  PGASEMB_CHECK(fired == n, "push_pop fired a wrong event count");
  return s > 0.0 ? static_cast<double>(2 * n) / s : 0.0;  // push + pop
}

/// The same workload enqueued through scheduleBatch in `chunk`-sized
/// slices (the message-plan slice pattern); returns events/sec.
double scheduleBatchRate(std::int64_t n, std::int64_t chunk) {
  pgasemb::sim::Simulator sim;
  std::minstd_rand rng(12345);
  std::int64_t fired = 0;
  std::vector<pgasemb::sim::EventQueue::Batch> staged;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < n; i += chunk) {
    const std::int64_t end = std::min(n, i + chunk);
    staged.reserve(static_cast<std::size_t>(end - i));
    for (std::int64_t j = i; j < end; ++j) {
      staged.push_back(
          {SimTime(1 + static_cast<std::int64_t>(rng()) % 1000000),
           [&fired] { ++fired; }});
    }
    sim.scheduleBatch(staged);  // consumes, keeps capacity
  }
  sim.run();
  const double s = secondsSince(t0);
  PGASEMB_CHECK(fired == n, "schedule_batch fired a wrong event count");
  return s > 0.0 ? static_cast<double>(2 * n) / s : 0.0;
}

/// Best-of-N for a rate measurement (higher = better): transient host
/// noise only ever slows a run down, so the max is the stable figure.
template <typename F>
double bestRate(int repeats, F measure) {
  double best = 0.0;
  for (int i = 0; i < repeats; ++i) best = std::max(best, measure());
  return best;
}

struct FlowRun {
  double wall_ms_per_batch = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t events_processed = 0;
};

/// End-to-end PGAS weak-scaling run, best wall time of `repeats`; the
/// pair of calls (coalesce on/off) is the recorded perf trajectory.
FlowRun flowRun(int gpus, int batches, bool coalesce, int repeats) {
  namespace engine = pgasemb::engine;
  engine::ExperimentConfig cfg = engine::weakScalingConfig(gpus);
  cfg.num_batches = batches;
  cfg.coalesce_flows = coalesce;
  engine::ScenarioRunner runner(cfg);
  FlowRun r;
  double best_s = 0.0;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)runner.run("pgas_fused");
    const double s = secondsSince(t0);
    const auto processed =
        runner.builder().system().simulator().eventsProcessed();
    PGASEMB_CHECK(i == 0 || processed == r.events_processed,
                  "flow run event count drifted across repeats");
    if (i == 0 || s < best_s) best_s = s;
    r.events_processed = processed;
  }
  r.wall_ms_per_batch = best_s * 1000.0 / batches;
  r.events_per_sec =
      best_s > 0.0 ? static_cast<double>(r.events_processed) / best_s : 0.0;
  return r;
}

}  // namespace

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli(
      "Simulator-core throughput: EventQueue push/pop, scheduleBatch, and "
      "the coalesced vs per-message PGAS flow path (host wall-clock only; "
      "simulated results are unaffected).");
  cli.addInt("events", 1000000, "heap microbenchmark event count");
  cli.addInt("chunk", 128, "scheduleBatch slice size (pgas_slices-like)");
  cli.addInt("gpus", 8, "GPU count for the end-to-end flow runs");
  cli.addInt("batches", 20, "batches for the end-to-end flow runs");
  cli.addInt("repeats", 3,
             "measurement repeats per metric (best run is reported, so "
             "transient host noise cannot fake a regression)");
  cli.addString("json", "BENCH_simcore.json",
                "output JSON path (empty = stdout only)");
  if (!cli.parseOrExit(argc, argv)) return 0;

  const auto n = cli.getInt("events");
  const auto chunk = cli.getInt("chunk");
  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int batches = static_cast<int>(cli.getInt("batches"));
  const int repeats = static_cast<int>(cli.getInt("repeats"));
  PGASEMB_CHECK(repeats >= 1, "--repeats must be >= 1");

  bench::printHeader("Simulator-core throughput (host wall-clock)");
  const double push_pop =
      bestRate(repeats, [&] { return pushPopRate(n); });
  printf("push_pop:        %12.0f events/sec (%lld events)\n", push_pop,
         static_cast<long long>(n));
  const double batched =
      bestRate(repeats, [&] { return scheduleBatchRate(n, chunk); });
  printf("schedule_batch:  %12.0f events/sec (chunk %lld)\n", batched,
         static_cast<long long>(chunk));
  const FlowRun co = flowRun(gpus, batches, /*coalesce=*/true, repeats);
  const FlowRun per = flowRun(gpus, batches, /*coalesce=*/false, repeats);
  printf("pgas_coalesced:  %12.0f events/sec, %8.3f wall ms/batch, "
         "%llu events\n",
         co.events_per_sec, co.wall_ms_per_batch,
         static_cast<unsigned long long>(co.events_processed));
  printf("pgas_per_message:%12.0f events/sec, %8.3f wall ms/batch, "
         "%llu events\n",
         per.events_per_sec, per.wall_ms_per_batch,
         static_cast<unsigned long long>(per.events_processed));
  printf("coalescing: %.1fx fewer events, %.1fx less wall time per batch\n",
         co.events_processed > 0
             ? static_cast<double>(per.events_processed) /
                   static_cast<double>(co.events_processed)
             : 0.0,
         co.wall_ms_per_batch > 0.0
             ? per.wall_ms_per_batch / co.wall_ms_per_batch
             : 0.0);

  const std::string json = cli.getString("json");
  if (!json.empty()) {
    const std::vector<std::string> flows{"pgas_coalesced", "pgas_per_message"};
    bench::BenchRecord record("simcore");
    record.field("gpus", std::to_string(gpus));
    record.field("batches", std::to_string(batches));
    record.metric("sim_wall_ms_per_batch", flows,
                  {co.wall_ms_per_batch, per.wall_ms_per_batch}, "%.4f");
    record.metric("events_per_sec",
                  {"push_pop", "schedule_batch", flows[0], flows[1]},
                  {push_pop, batched, co.events_per_sec, per.events_per_sec},
                  "%.1f");
    record.metric("events_processed", flows,
                  {static_cast<double>(co.events_processed),
                   static_cast<double>(per.events_processed)},
                  "%.0f");
    record.write(json);
  }
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
