// Ablation A5: table-wise vs row-wise sharding under the PGAS fused
// scheme (paper §V discusses row-wise sharding, RecShard [6]).
//
// Row-wise stripes every table's rows across GPUs: perfect load balance
// even with skewed tables, but every GPU emits a *partial* pooled vector
// per (table, sample), multiplying the communicated volume by P and
// turning stores into remote atomic adds.
#include "bench_common.hpp"
#include "util/table.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli("Sharding-scheme ablation under PGAS fused retrieval.");
  cli.addInt("batches", 10, "batches per configuration");
  if (!cli.parseOrExit(argc, argv)) return 0;

  bench::printHeader(
      "Ablation: table-wise vs row-wise sharding (PGAS fused)");

  ConsoleTable table({"GPUs", "table-wise ms", "row-wise ms",
                      "row-wise volume factor"});
  for (int gpus = 2; gpus <= 4; ++gpus) {
    auto cfg = engine::weakScalingConfig(gpus);
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    const auto tw = engine::ScenarioRunner(cfg).run("pgas_fused");
    auto rw_cfg = cfg;
    rw_cfg.sharding = emb::ShardingScheme::kRowWise;
    const auto rw = engine::ScenarioRunner(rw_cfg).run("pgas_fused");
    table.addRow(
        {std::to_string(gpus), ConsoleTable::num(tw.avgBatchMs(), 3),
         ConsoleTable::num(rw.avgBatchMs(), 3),
         ConsoleTable::num(static_cast<double>(rw.total_wire_bytes) /
                               static_cast<double>(std::max<std::int64_t>(
                                   1, tw.total_wire_bytes)),
                           2) +
             "x"});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(row-wise balances skew but multiplies PGAS traffic by ~P "
         "partial sums; the paper uses table-wise and defers row-wise "
         "to future work)\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
