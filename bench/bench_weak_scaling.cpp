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
#include <chrono>

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
  bench::addRetrieversFlag(cli);
  bench::addSimsanFlag(cli);
  bench::addCacheFlags(cli);
  bench::addFaultFlags(cli);
  bench::addCoalesceFlag(cli);
  if (!cli.parseOrExit(argc, argv)) return 0;

  bench::printHeader(
      "Weak scaling: 64 tables/GPU x 1M rows, dim 64, batch 16384, "
      "pooling U(1,128)");
  const auto points = bench::sweepScaling(
      /*weak=*/true, static_cast<int>(cli.getInt("max-gpus")),
      static_cast<int>(cli.getInt("batches")), bench::retrieverList(cli),
      cli.getBool("simsan"), cli.getInt("cache-rows"),
      cli.getDouble("zipf-alpha"),
      [&](engine::ExperimentConfig& cfg) {
        bench::applyFaultFlags(cli, cfg);
        bench::applyCoalesceFlag(cli, cfg);
      },
      cli.getBool("simsan-strict"));

  printf("\n%s\n", trace::renderSpeedupTable(points).c_str());
  printf("(paper: 2.10x / 1.95x / 1.87x, geo-mean 1.97x)\n");
  bench::printPerGpuRuntimes(points);
  printf("\n%s\n",
         trace::renderScalingChart(points, /*weak=*/true).c_str());
  printf("(paper Fig 5: baseline drops to ~0.46 at 2 GPUs then stays "
         "flat; PGAS stays near 1.0)\n");
  const std::string cache_table = trace::renderCacheTable(points);
  if (!cache_table.empty()) printf("\n%s\n", cache_table.c_str());
  const std::string resilience = trace::renderResilienceTable(points);
  if (!resilience.empty()) printf("\n%s\n", resilience.c_str());
  bench::printSimsanReports(points);

  const std::string csv = cli.getString("csv");
  if (!csv.empty()) {
    trace::writeScalingCsv(csv, points);
    printf("\nwrote %s\n", csv.c_str());
  }

  // Simulator-throughput record (opt-in; default output is unchanged):
  // one extra timed run per retriever at the largest GPU count. The
  // simulated results of these runs are bit-identical to the sweep's —
  // only the wall clock around them is new.
  const std::string bench_json = cli.getString("bench-json");
  if (!bench_json.empty()) {
    const int gpus = static_cast<int>(cli.getInt("max-gpus"));
    const int batches = static_cast<int>(cli.getInt("batches"));
    engine::ExperimentConfig cfg = engine::weakScalingConfig(gpus);
    cfg.num_batches = batches;
    bench::applySimsanFlags(cli, cfg);
    bench::applyCacheFlags(cli, cfg);
    bench::applyFaultFlags(cli, cfg);
    bench::applyCoalesceFlag(cli, cfg);
    const auto retrievers = bench::retrieverList(cli);
    std::vector<double> wall_ms_per_batch, events_per_sec;
    std::vector<std::uint64_t> events;
    engine::ScenarioRunner runner(cfg);
    for (const auto& name : retrievers) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)runner.run(name);
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
      const auto processed =
          runner.builder().system().simulator().eventsProcessed();
      wall_ms_per_batch.push_back(wall_s * 1000.0 / batches);
      events_per_sec.push_back(wall_s > 0.0
                                   ? static_cast<double>(processed) / wall_s
                                   : 0.0);
      events.push_back(processed);
    }
    FILE* out = fopen(bench_json.c_str(), "w");
    PGASEMB_CHECK(out != nullptr,
                  "--bench-json: cannot open " + bench_json);
    const auto field = [&](const char* key, auto emit) {
      fprintf(out, "  \"%s\": {", key);
      for (std::size_t r = 0; r < retrievers.size(); ++r) {
        fprintf(out, "%s\"%s\": ", r == 0 ? "" : ", ",
                retrievers[r].c_str());
        emit(r);
      }
      fprintf(out, "}");
    };
    fprintf(out, "{\n  \"bench\": \"weak_scaling\",\n");
    fprintf(out, "  \"gpus\": %d,\n  \"batches\": %d,\n", gpus, batches);
    fprintf(out, "  \"coalesce\": %s,\n",
            cfg.coalesce_flows ? "true" : "false");
    field("sim_wall_ms_per_batch",
          [&](std::size_t r) { fprintf(out, "%.4f", wall_ms_per_batch[r]); });
    fprintf(out, ",\n");
    field("events_per_sec",
          [&](std::size_t r) { fprintf(out, "%.1f", events_per_sec[r]); });
    fprintf(out, ",\n");
    field("events_processed", [&](std::size_t r) {
      fprintf(out, "%llu", static_cast<unsigned long long>(events[r]));
    });
    fprintf(out, "\n}\n");
    fclose(out);
    printf("wrote %s\n", bench_json.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
