// Reproduces the paper's Figures 7 and 10: communication volume over
// time (units of 256 bytes), for the PGAS fused and baseline schemes.
//
//   Fig 7:  weak-scaling configuration on 2 GPUs
//   Fig 10: strong-scaling configuration on 4 GPUs
//
// Expected shape: PGAS traffic is spread across the whole compute window
// (fine-grained overlap, smooth network usage); the baseline's traffic
// is zero during compute, then a concentrated burst in its communication
// phase.
#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

void runFigure(const char* title, pgasemb::engine::ExperimentConfig cfg,
               const std::vector<std::string>& retrievers,
               const std::string& csv_path) {
  using namespace pgasemb;
  cfg.num_batches = 1;  // one batch shows the within-batch shape
  // ~150 buckets across the treatment's batch for a smooth trace.
  const auto probe = engine::ScenarioRunner(cfg).run(retrievers.back());
  cfg.counter_bucket =
      SimTime(std::max<std::int64_t>(probe.stats.total.count() / 150, 1000));

  engine::ScenarioRunner runner(cfg);
  const auto runs = runner.runAll(retrievers);

  bench::printHeader(title);
  printf("\n%s\n", trace::renderCommVolumeChart(runs, title).c_str());
  // Treatment-first, reference last (historical ordering).
  printf("total volume:");
  for (std::size_t r = runs.size(); r-- > 0;) {
    printf(" %s %lld B in %lld messages%s",
           trace::runKey(runs[r].retriever).c_str(),
           static_cast<long long>(runs[r].result.total_wire_bytes),
           static_cast<long long>(runs[r].result.total_wire_messages),
           r == 0 ? "\n" : ",");
  }
  printf("batch time:");
  for (std::size_t r = runs.size(); r-- > 0;) {
    printf(" %s %.3f ms%s", trace::runKey(runs[r].retriever).c_str(),
           runs[r].result.avgBatchMs(), r == 0 ? "\n" : ",");
  }

  // Replica-cache accounting: printed (and appended to the CSV header
  // set) only when a cache was attached, so cache-less output keeps the
  // historical bytes exactly.
  bool any_cache = false;
  for (const auto& run : runs) {
    any_cache = any_cache || run.result.stats.cache_lookups > 0.0;
  }
  if (any_cache) {
    printf("cache:");
    for (std::size_t r = runs.size(); r-- > 0;) {
      printf(" %s hit %.1f%% saved %.0f B%s",
             trace::runKey(runs[r].retriever).c_str(),
             runs[r].result.cacheHitRate() * 100.0,
             runs[r].result.cacheSavedBytes(), r == 0 ? "\n" : ",");
    }
  }

  if (!csv_path.empty()) {
    std::vector<std::string> headers{"time_us"};
    std::size_t n = 0;
    for (std::size_t r = runs.size(); r-- > 0;) {
      headers.push_back(trace::runKey(runs[r].retriever) + "_units");
      n = std::max(n, runs[r].result.wire_bytes_over_time.size());
    }
    if (any_cache) {
      for (std::size_t r = runs.size(); r-- > 0;) {
        headers.push_back(trace::runKey(runs[r].retriever) +
                          "_cache_hit_rate");
        headers.push_back(trace::runKey(runs[r].retriever) +
                          "_cache_saved_bytes");
      }
    }
    CsvWriter csv(csv_path, headers);
    const auto& clock = runs.back().result;
    for (std::size_t i = 0; i < n; ++i) {
      const double t =
          clock.bucket_width.toUs() * (static_cast<double>(i) + 0.5);
      std::vector<std::string> row{pgasemb::ConsoleTable::num(t, 2)};
      for (std::size_t r = runs.size(); r-- > 0;) {
        const auto& series = runs[r].result.wire_bytes_over_time;
        row.push_back(pgasemb::ConsoleTable::num(
            i < series.size() ? series[i] / 256.0 : 0.0, 1));
      }
      if (any_cache) {
        for (std::size_t r = runs.size(); r-- > 0;) {
          row.push_back(pgasemb::ConsoleTable::num(
              runs[r].result.cacheHitRate(), 4));
          row.push_back(pgasemb::ConsoleTable::num(
              runs[r].result.cacheSavedBytes(), 0));
        }
      }
      csv.addRow(row);
    }
    printf("wrote %s\n", csv_path.c_str());
  }
  printf("\n");
}

}  // namespace

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli(
      "Communication volume over time (paper Figures 7 and 10).");
  cli.addString("csv-fig7", "comm_volume_fig7.csv", "Fig 7 CSV path");
  cli.addString("csv-fig10", "comm_volume_fig10.csv", "Fig 10 CSV path");
  const bench::ConfigFlags flags(
      cli, bench::kRetrievers | bench::kCache | bench::kCoalesce);
  if (!cli.parseOrExit(argc, argv)) return 0;

  const auto retrievers = flags.retrievers();
  auto fig7 = engine::weakScalingConfig(2);
  auto fig10 = engine::strongScalingConfig(4);
  flags.apply(fig7);
  flags.apply(fig10);
  runFigure("Figure 7: comm volume over time — weak scaling, 2 GPUs",
            fig7, retrievers, cli.getString("csv-fig7"));
  runFigure("Figure 10: comm volume over time — strong scaling, 4 GPUs",
            fig10, retrievers, cli.getString("csv-fig10"));
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
