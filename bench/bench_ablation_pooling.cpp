// Ablation A1: pooling-factor sweep (weak-scaling config, 4 GPUs).
//
// The pooling factor sets the compute-to-communication ratio: comm
// volume is fixed (one pooled vector per (table, sample)) while compute
// grows with the bag size. PGAS's advantage therefore *grows* with
// pooling (more window to hide the same traffic), and at very small
// pooling the fused kernel becomes drain-bound.
#include "bench_common.hpp"
#include "util/table.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli("Pooling-factor ablation (4 GPUs, weak config).");
  cli.addInt("batches", 20, "batches per configuration");
  cli.addInt("gpus", 4, "GPU count");
  const bench::ConfigFlags flags(cli, bench::kRetrievers);
  if (!cli.parseOrExit(argc, argv)) return 0;
  const auto retrievers = flags.retrievers();

  bench::printHeader("Ablation: pooling factor vs overlap headroom");

  const std::string ref_key = trace::runKey(retrievers.front());
  const std::string treat_key = trace::runKey(retrievers.back());
  ConsoleTable table({"max pooling", ref_key + " ms", treat_key + " ms",
                      "speedup", treat_key + " comm/compute"});
  for (const int pool : {2, 8, 32, 128, 512}) {
    auto cfg = engine::weakScalingConfig(static_cast<int>(cli.getInt("gpus")));
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    cfg.layer.max_pooling = pool;
    engine::ScenarioRunner runner(cfg);
    const auto runs = runner.runAll(retrievers);
    const auto& base = runs.front().result;
    const auto& pgas = runs.back().result;
    // Ratio of wire drain time to fused kernel time (per batch, approx):
    // wire bytes per GPU pair / raw link bw vs pgas batch time.
    const double wire_ms =
        static_cast<double>(pgas.total_wire_bytes) /
        (static_cast<double>(cfg.num_gpus) * (cfg.num_gpus - 1)) /
        cfg.link.bandwidth_bytes_per_sec * 1e3 /
        pgas.stats.batches * cfg.num_gpus * (cfg.num_gpus - 1) /
        cfg.num_gpus;  // per-GPU per-link share
    table.addRow({std::to_string(pool),
                  ConsoleTable::num(base.avgBatchMs(), 3),
                  ConsoleTable::num(pgas.avgBatchMs(), 3),
                  ConsoleTable::num(base.avgBatchMs() / pgas.avgBatchMs(),
                                    2) +
                      "x",
                  ConsoleTable::num(wire_ms / pgas.avgBatchMs(), 3)});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(comm volume is pooling-independent; compute scales with "
         "pooling, so overlap headroom grows with the bag size)\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
