// Extension bench (paper §V future work): EMB-layer BACKWARD pass.
//
// Baseline: gradient kernel -> all-to-all of per-(table, sample) grads
// -> scatter-add -> (P-1) ring-shift rounds with per-round sync -> SGD
// apply.  PGAS: one fused kernel pushing remote atomic adds, quiet,
// apply.  The paper predicts a larger win than the forward pass because
// (a) backward volume is ~pooling-factor larger and (b) the multi-round
// synchronization disappears.
#include "bench_common.hpp"
#include "dlrm/backward.hpp"
#include "util/table.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli("EMB backward pass: PGAS remote atomics vs collective "
                "rounds (paper SV future work).");
  cli.addInt("max-gpus", 4, "largest GPU count to sweep");
  cli.addInt("batches", 20, "batches per configuration");
  const bench::ConfigFlags flags(cli, bench::kCoalesce);
  if (!cli.parseOrExit(argc, argv)) return 0;

  const int batches = static_cast<int>(cli.getInt("batches"));

  ConsoleTable table({"GPUs", "collective (ms)", "pgas atomics (ms)",
                      "speedup", "rounds removed"});
  for (int gpus = 2; gpus <= cli.getInt("max-gpus"); ++gpus) {
    engine::ExperimentConfig cfg;
    cfg.num_gpus = gpus;
    cfg.layer = emb::weakScalingLayerSpec(1);
    cfg.layer.total_tables = 64;  // fixed total; strong-scaling style sweep
    flags.apply(cfg);
    engine::SystemBuilder rig(cfg);
    dlrm::EmbBackwardEngine engine(rig.layer(), rig.comm(), rig.runtime(),
                                   0.01f);
    const auto batch = emb::SparseBatch::statistical(cfg.layer.batchSpec());

    SimTime collective = SimTime::zero(), pgas_t = SimTime::zero();
    for (int b = 0; b < batches; ++b) {
      collective +=
          engine.runBatch(batch, dlrm::BackwardScheme::kCollective).total;
    }
    for (int b = 0; b < batches; ++b) {
      pgas_t +=
          engine.runBatch(batch, dlrm::BackwardScheme::kPgasAtomics).total;
    }
    const double c_ms = collective.toMs() / batches;
    const double p_ms = pgas_t.toMs() / batches;
    table.addRow({std::to_string(gpus), ConsoleTable::num(c_ms, 3),
                  ConsoleTable::num(p_ms, 3),
                  ConsoleTable::num(c_ms / p_ms, 2) + "x",
                  std::to_string(gpus - 1)});
  }
  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  bench::printHeader(
      "EMB backward pass (future-work extension): gradient push + "
      "aggregation");
  printf("\n%s\n", table.render().c_str());
  printf("(paper SV: PGAS replaces the multi-round collective shifts and "
         "their\n per-round synchronization with overlapped remote atomic adds)\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
