// Hot-row replica cache sweep: skew (Zipf alpha) x cache capacity x
// retriever on the cache-serving configuration (single-id Zipf lookups
// over a PCIe-class inference node — the HugeCTR-HPS-style deployment
// the cache targets).
//
// For each (alpha, retriever) the capacity-0 run is the reference;
// every cached run reports its hit rate, the exchange bytes the served
// bags saved, and the speedup over that reference. Expected shape: flat
// at alpha 0 (the uniform top-C mass is tiny), growing sharply with
// skew — at alpha ~1 a few percent of rows absorb most lookups, so the
// exchange all but disappears.
#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli(
      "Replica-cache sweep: Zipf skew x cache capacity x retriever "
      "(hit rate, saved exchange bytes, speedup vs no cache).");
  cli.addInt("gpus", 4, "GPU count");
  cli.addInt("batches", 20, "inference batches per configuration");
  cli.addString("csv", "cache_sweep.csv", "output CSV path (empty = none)");
  const bench::ConfigFlags flags(cli, bench::kRetrievers | bench::kCoalesce,
                                 "nccl_collective,pgas_fused,nccl_pipelined");
  if (!cli.parseOrExit(argc, argv)) return 0;

  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int batches = static_cast<int>(cli.getInt("batches"));
  const auto retrievers = flags.retrievers();

  const double alphas[] = {0.0, 0.6, 0.9, 1.1};
  // Capacities as fractions of the raw-index domain; 0 = cache off.
  const double fractions[] = {0.0, 0.01, 0.05, 0.10};

  const auto base = engine::cacheServingConfig(gpus);
  const auto rows = static_cast<std::int64_t>(base.layer.index_space);

  struct Row {
    double alpha;
    std::int64_t capacity;
    std::string retriever;
    double hit_rate;
    double saved_bytes;  // per batch
    double avg_ms;
    double speedup;
  };
  std::vector<Row> table;

  for (const double alpha : alphas) {
    // Per-retriever reference time at capacity 0.
    std::vector<double> ref_ms;
    for (const double frac : fractions) {
      engine::ExperimentConfig cfg = base;
      cfg.num_batches = batches;
      cfg.layer.zipf_alpha = alpha;
      cfg.cache_rows =
          static_cast<std::int64_t>(frac * static_cast<double>(rows));
      flags.apply(cfg);
      engine::ScenarioRunner runner(cfg);
      const auto runs = runner.runAll(retrievers);
      for (std::size_t r = 0; r < runs.size(); ++r) {
        const auto& result = runs[r].result;
        if (frac == 0.0) ref_ms.push_back(result.avgBatchMs());
        const double batches_d =
            static_cast<double>(result.stats.batches);
        table.push_back(
            {alpha, cfg.cache_rows, runs[r].retriever,
             result.cacheHitRate(),
             batches_d > 0.0 ? result.cacheSavedBytes() / batches_d : 0.0,
             result.avgBatchMs(),
             result.avgBatchMs() > 0.0 ? ref_ms[r] / result.avgBatchMs()
                                       : 0.0});
      }
    }
  }

  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  bench::printHeader(
      "Replica-cache sweep: " + std::to_string(base.layer.total_tables) +
      " tables x " + std::to_string(rows) + " rows, single-id lookups, " +
      std::to_string(gpus) + " GPUs, PCIe-class fabric");
  printf("\n%-6s %-10s %-16s %-9s %-14s %-10s %s\n", "alpha", "cap_rows",
         "retriever", "hit%", "saved MB/b", "ms/batch", "speedup");
  for (const auto& r : table) {
    printf("%-6.1f %-10lld %-16s %-9.1f %-14.2f %-10.3f %.2fx\n", r.alpha,
           static_cast<long long>(r.capacity), r.retriever.c_str(),
           r.hit_rate * 100.0, r.saved_bytes / 1e6, r.avg_ms, r.speedup);
  }

  const std::string csv_path = cli.getString("csv");
  if (!csv_path.empty()) {
    CsvWriter csv(csv_path,
                  {"alpha", "capacity_rows", "retriever", "hit_rate",
                   "saved_bytes_per_batch", "avg_ms", "speedup_vs_cap0"});
    for (const auto& r : table) {
      csv.addRow({ConsoleTable::num(r.alpha, 1),
                  std::to_string(r.capacity), r.retriever,
                  ConsoleTable::num(r.hit_rate, 4),
                  ConsoleTable::num(r.saved_bytes, 0),
                  ConsoleTable::num(r.avg_ms, 4),
                  ConsoleTable::num(r.speedup, 3)});
    }
    printf("\nwrote %s\n", csv_path.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
