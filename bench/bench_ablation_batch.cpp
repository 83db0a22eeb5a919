// Ablation A6: batch-size sweep (paper §III-A item 3).
//
// "With small batch sizes, the overhead of CUDA kernel synchronization
//  can become significant compared to communication and computation, as
//  the forward pass is essentially latency-limited."
//
// At small batches the baseline's fixed control-path costs (launch, sync,
// collective trigger) dominate, so the PGAS speedup is overhead-driven;
// at large batches it is overlap-driven.
#include "bench_common.hpp"
#include "util/table.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli("Batch-size ablation (4 GPUs, weak-style config).");
  cli.addInt("batches", 20, "batches per configuration");
  const bench::ConfigFlags flags(cli, bench::kRetrievers);
  if (!cli.parseOrExit(argc, argv)) return 0;
  const auto retrievers = flags.retrievers();

  bench::printHeader("Ablation: batch size vs latency-limited overheads");

  const std::string ref_key = trace::runKey(retrievers.front());
  const std::string treat_key = trace::runKey(retrievers.back());
  ConsoleTable table({"batch", ref_key + " ms", treat_key + " ms", "speedup",
                      ref_key + " sync+unpack share"});
  for (const std::int64_t batch : {64, 256, 1024, 4096, 16384, 65536}) {
    auto cfg = engine::weakScalingConfig(4);
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    cfg.layer.batch_size = batch;
    engine::ScenarioRunner runner(cfg);
    const auto runs = runner.runAll(retrievers);
    const auto& base = runs.front().result;
    const auto& treat = runs.back().result;
    table.addRow(
        {std::to_string(batch), ConsoleTable::num(base.avgBatchMs(), 3),
         ConsoleTable::num(treat.avgBatchMs(), 3),
         ConsoleTable::num(base.avgBatchMs() / treat.avgBatchMs(), 2) + "x",
         ConsoleTable::num(base.avgSyncUnpackMs() / base.avgBatchMs(),
                           2)});
  }
  printf("\n%s\n", table.render().c_str());
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
