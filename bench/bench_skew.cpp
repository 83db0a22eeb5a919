// Ablation A9: skewed ("hot") sparse features and load-balanced table
// sharding (RecShard [6], which the paper cites for sharding schemes).
//
// Real recommendation features follow a power law: a few features have
// huge pooling factors. With naive equal-count table sharding the GPU
// that owns the hot tables becomes a straggler — every other GPU waits
// at the layout-conversion barrier. Weighted contiguous partitioning
// (balance expected gather rows) restores the balance for both schemes.
#include "bench_common.hpp"
#include "util/table.hpp"

using namespace pgasemb;

static int benchMain(int argc, char** argv) {
  CliParser cli("Skewed-pooling ablation: naive vs balanced table-wise "
                "sharding (4 GPUs).");
  cli.addInt("batches", 10, "batches per configuration");
  const bench::ConfigFlags flags(cli, bench::kRetrievers);
  if (!cli.parseOrExit(argc, argv)) return 0;
  const int batches = static_cast<int>(cli.getInt("batches"));
  const auto retrievers = flags.retrievers();

  bench::printHeader(
      "Ablation: power-law feature skew + RecShard-style balancing");

  auto base_cfg = engine::weakScalingConfig(4);
  base_cfg.num_batches = batches;
  // Smaller tables: balancing moves whole tables between GPUs, so the
  // cold-table GPUs hold several times more tables than the naive split.
  base_cfg.layer.rows_per_table = 200'000;
  // Zipf-ish pooling skew: table t draws bags of up to ~256/(1+t/8).
  base_cfg.layer.table_max_pooling.clear();
  for (std::int64_t t = 0; t < base_cfg.layer.total_tables; ++t) {
    const int hot = static_cast<int>(256 / (1 + t / 8));
    base_cfg.layer.table_max_pooling.push_back(std::max(2, hot));
  }

  ConsoleTable table({"sharding", "baseline ms", "pgas ms",
                      "pgas speedup", "max/min GPU gather rows"});
  for (const bool balanced : {false, true}) {
    auto cfg = base_cfg;
    cfg.layer.balance_tables = balanced;
    engine::ScenarioRunner runner(cfg);
    const auto base = runner.run(retrievers.front());
    const auto pgas = runner.run(retrievers.back());

    // Imbalance metric straight from the workload descriptors.
    engine::SystemBuilder rig(cfg);
    const auto& layer = rig.layer();
    const auto batch = emb::SparseBatch::statistical(cfg.layer.batchSpec());
    double max_rows = 0, min_rows = 1e30;
    for (int g = 0; g < 4; ++g) {
      const double rows = layer.lookupWork(batch, g).gathered_rows;
      max_rows = std::max(max_rows, rows);
      min_rows = std::min(min_rows, rows);
    }

    table.addRow({balanced ? "balanced (RecShard-style)" : "naive blocks",
                  ConsoleTable::num(base.avgBatchMs(), 3),
                  ConsoleTable::num(pgas.avgBatchMs(), 3),
                  ConsoleTable::num(base.avgBatchMs() / pgas.avgBatchMs(),
                                    2) +
                      "x",
                  ConsoleTable::num(max_rows / min_rows, 2)});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(the straggler GPU bounds both schemes — the layout conversion "
         "is a\n batch-wide barrier; balancing recovers the loss without "
         "row-wise's\n volume multiplication)\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
