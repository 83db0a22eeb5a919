// Reproduces the paper's weak-scaling results (§IV-A):
//   - the speedup table ("2.10x / 1.95x / 1.87x, geo-mean 1.97x")
//   - Figure 5: weak-scaling factor for baseline and PGAS fused
//
// Workload: per GPU, 64 embedding tables x 1M rows, dim 64, batch 16384,
// pooling U(1, 128), 100 inference batches on a simulated 4x V100
// NVLink-connected DGX.
//
// --bench-json additionally re-runs each retriever at the largest GPU
// count with a wall-clock timer around the host loop and writes the
// simulator-throughput record (ms/batch of wall time, events/sec,
// events processed) that scripts/check_perf.py tracks.
#include "bench_common.hpp"
#include "engine/scenario_runner.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli(
      "Weak-scaling benchmark (paper Table 1 + Figure 5): PGAS fused vs "
      "NCCL-collective EMB retrieval.");
  cli.addInt("max-gpus", 4, "largest GPU count to sweep");
  cli.addInt("batches", 100, "inference batches per configuration");
  cli.addString("csv", "weak_scaling.csv", "output CSV path (empty = none)");
  cli.addString("bench-json", "",
                "write a simulator-throughput JSON record (wall ms/batch, "
                "events/sec, events processed) for the largest GPU count "
                "to this path; empty = off");
  const bench::ConfigFlags flags(cli, bench::kRetrievers | bench::kSimsan |
                                          bench::kCache | bench::kFaults |
                                          bench::kCoalesce);
  if (!cli.parseOrExit(argc, argv)) return 0;
  const int max_gpus = static_cast<int>(cli.getInt("max-gpus"));
  const int batches = static_cast<int>(cli.getInt("batches"));

  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  const auto points =
      bench::sweepScaling(/*weak=*/true, max_gpus, batches, flags);
  bench::printHeader(
      "Weak scaling: 64 tables/GPU x 1M rows, dim 64, batch 16384, "
      "pooling U(1,128)");

  bench::printScalingReport(
      points, /*weak=*/true, "(paper: 2.10x / 1.95x / 1.87x, geo-mean 1.97x)",
      "(paper Fig 5: baseline drops to ~0.46 at 2 GPUs then stays flat; "
      "PGAS stays near 1.0)");

  bench::writeScalingCsv(cli, points);

  // Simulator-throughput record (opt-in; default output is unchanged):
  // one extra timed run per retriever at the largest GPU count. The
  // simulated results of these runs are bit-identical to the sweep's —
  // only the wall clock around them is new.
  const std::string bench_json = cli.getString("bench-json");
  if (!bench_json.empty()) {
    engine::ExperimentConfig cfg = engine::weakScalingConfig(max_gpus);
    cfg.num_batches = batches;
    flags.apply(cfg);
    const auto retrievers = flags.retrievers();
    std::vector<double> wall_ms_per_batch, events_per_sec, events;
    engine::ScenarioRunner runner(cfg);
    for (const auto& name : retrievers) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)runner.run(name);
      const double wall_s = bench::secondsSince(t0);
      const auto processed = static_cast<double>(
          runner.builder().system().simulator().eventsProcessed());
      wall_ms_per_batch.push_back(wall_s * 1000.0 / batches);
      events_per_sec.push_back(wall_s > 0.0 ? processed / wall_s : 0.0);
      events.push_back(processed);
    }
    bench::BenchRecord record("weak_scaling");
    record.field("gpus", std::to_string(max_gpus));
    record.field("batches", std::to_string(batches));
    record.field("coalesce", cfg.coalesce_flows ? "true" : "false");
    record.metric("sim_wall_ms_per_batch", retrievers, wall_ms_per_batch,
                  "%.4f");
    record.metric("events_per_sec", retrievers, events_per_sec, "%.1f");
    record.metric("events_processed", retrievers, events, "%.0f");
    record.write(bench_json);
  }
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
