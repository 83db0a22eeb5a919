// Reproduces the paper's Figure 6: weak-scaling runtime breakdown.
//
// Baseline splits into Computation / Communication / Sync+Unpack; the
// PGAS fused implementation is one phase barely above the baseline's
// computation. Expected shapes as the GPU count grows (paper §IV-A2c):
// computation flat, communication decreasing, sync+unpack increasing.
#include "bench_common.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli("Weak-scaling runtime breakdown (paper Figure 6).");
  cli.addInt("max-gpus", 4, "largest GPU count to sweep");
  cli.addInt("batches", 100, "inference batches per configuration");
  cli.addString("csv", "weak_breakdown.csv", "output CSV path");
  const bench::ConfigFlags flags(cli, bench::kRetrievers | bench::kCache);
  if (!cli.parseOrExit(argc, argv)) return 0;

  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  const auto points = bench::sweepScaling(
      /*weak=*/true, static_cast<int>(cli.getInt("max-gpus")),
      static_cast<int>(cli.getInt("batches")), flags);
  bench::printHeader("Weak-scaling runtime breakdown (Figure 6)");

  printf("\n%s\n",
         trace::renderBreakdownBars(points,
                                    "Per-batch breakdown, weak scaling "
                                    "(ms)")
             .c_str());

  printf("Expected paper shapes: computation flat; communication "
         "decreases\nwith more GPUs; sync+unpack increases; PGAS total "
         "~= baseline computation.\n\n");
  bench::printBreakdownTable(points);

  // The paper's measurement method (§IV-A2a): the communication time is
  // estimated by re-running the communication phase with a single float
  // and subtracting. In the simulator we have the ground truth (wire
  // time); report both so the method itself is validated.
  printf("\nPaper estimation method check (2 GPUs): direct wire time vs "
         "comm-phase-minus-sync:\n");
  for (const auto& p : points) {
    if (p.gpus != 2) continue;
    const auto& ref = p.reference().result;
    const double direct = ref.avgCommunicationMs();
    const double phase = ref.stats.comm_phase.toMs() / ref.stats.batches;
    printf("  comm phase %.3f ms, wire (direct) %.3f ms, control-path "
           "overhead %.3f ms/batch\n",
           phase, direct, phase - direct);
  }

  bench::writeScalingCsv(cli, points);
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
