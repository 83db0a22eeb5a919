// Reproduces the paper's strong-scaling results (§IV-B):
//   - the speedup table ("2.95x / 2.55x / 2.44x, geo-mean 2.63x")
//   - Figure 8: strong-scaling factor for baseline and PGAS fused
//   - the ncu observation: the 2-GPU lookup kernel sustains ~38% compute
//     and ~57% memory throughput (latency-limited beyond 2 GPUs)
//
// Workload: 96 tables x 1M rows total (sized by one 32 GB V100), dim 64,
// batch 16384, pooling U(1, 32), 100 inference batches.
#include "bench_common.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli(
      "Strong-scaling benchmark (paper Table 2 + Figure 8): PGAS fused vs "
      "NCCL-collective EMB retrieval.");
  cli.addInt("max-gpus", 4, "largest GPU count to sweep");
  cli.addInt("batches", 100, "inference batches per configuration");
  cli.addString("csv", "strong_scaling.csv", "output CSV path (empty = none)");
  const bench::ConfigFlags flags(cli, bench::kRetrievers | bench::kSimsan |
                                          bench::kCache | bench::kFaults |
                                          bench::kCoalesce);
  if (!cli.parseOrExit(argc, argv)) return 0;

  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  const auto points = bench::sweepScaling(
      /*weak=*/false, static_cast<int>(cli.getInt("max-gpus")),
      static_cast<int>(cli.getInt("batches")), flags);
  bench::printHeader(
      "Strong scaling: 96 tables x 1M rows total, dim 64, batch 16384, "
      "pooling U(1,32)");

  bench::printScalingReport(
      points, /*weak=*/false, "(paper: 2.95x / 2.55x / 2.44x, geo-mean 2.63x)",
      "(paper Fig 8: baseline < 1.0 for 2-4 GPUs; PGAS ~1.6 at 2 GPUs, "
      "declining beyond)");

  for (const auto& p : points) {
    if (p.gpus == 2) {
      printf("\nncu-style lookup-kernel throughput at 2 GPUs: compute "
             "%.0f%%, memory %.0f%% (paper §IV-B2a: 38%% / 57%%)\n",
             p.treatment().result.lookup_compute_throughput * 100.0,
             p.treatment().result.lookup_memory_throughput * 100.0);
    }
  }

  bench::writeScalingCsv(cli, points);
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
