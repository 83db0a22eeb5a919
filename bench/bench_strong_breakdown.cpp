// Reproduces the paper's Figure 9: strong-scaling runtime breakdown.
//
// Expected shapes (paper §IV-B2a): computation drops at 2 GPUs then
// flattens (latency-limited lookups); communication decreases;
// sync+unpack increases; the baseline's 2-GPU total exceeds its 1-GPU
// total (~1.8x) while PGAS achieves ~1.6x speedup at 2 GPUs.
#include "bench_common.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli("Strong-scaling runtime breakdown (paper Figure 9).");
  cli.addInt("max-gpus", 4, "largest GPU count to sweep");
  cli.addInt("batches", 100, "inference batches per configuration");
  cli.addString("csv", "strong_breakdown.csv", "output CSV path");
  const bench::ConfigFlags flags(cli, bench::kRetrievers | bench::kCache);
  if (!cli.parseOrExit(argc, argv)) return 0;

  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  const auto points = bench::sweepScaling(
      /*weak=*/false, static_cast<int>(cli.getInt("max-gpus")),
      static_cast<int>(cli.getInt("batches")), flags);
  bench::printHeader("Strong-scaling runtime breakdown (Figure 9)");

  printf("\n%s\n",
         trace::renderBreakdownBars(points,
                                    "Per-batch breakdown, strong scaling "
                                    "(ms)")
             .c_str());

  bench::printBreakdownTable(points);

  double base1 = 0.0, base2 = 0.0, pgas1 = 0.0, pgas2 = 0.0;
  for (const auto& p : points) {
    if (p.gpus == 1) {
      base1 = p.reference().result.avgBatchMs();
      pgas1 = p.treatment().result.avgBatchMs();
    }
    if (p.gpus == 2) {
      base2 = p.reference().result.avgBatchMs();
      pgas2 = p.treatment().result.avgBatchMs();
    }
  }
  if (base1 > 0 && base2 > 0) {
    printf("\nbaseline 2-GPU total / 1-GPU total: %.2fx (paper: ~1.8x)\n",
           base2 / base1);
    printf("PGAS 2-GPU speedup over 1 GPU: %.2fx (paper: ~1.6x)\n",
           pgas1 / pgas2);
  }

  bench::writeScalingCsv(cli, points);
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
