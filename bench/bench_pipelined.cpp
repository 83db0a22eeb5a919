// Ablation A10: the strongest software-pipelined baseline.
//
// Could the baseline match PGAS by double-buffering batches — overlapping
// batch i's all-to-all (on a side stream) with batch i+1's lookup?
// Partially: inter-batch pipelining hides the wire time, but the unpack
// pass, the per-batch control path, and the extra buffer memory remain.
// PGAS hides communication *within* one batch — no added latency, no
// extra copies of the activation buffers.
//
// `nccl_pipelined` is the collective retriever built at `--depth`
// in-flight batches (ExperimentConfig::pipeline_depth): the baseline's
// own kernels, scheduled across batches. `--depth 1` is the blocking
// baseline itself. All three schemes run through the shared
// ScenarioRunner, which folds the pipeline's drain into its run through
// finish(), so no bespoke rig or host-clock bookkeeping is needed here.
#include "bench_common.hpp"
#include "util/table.hpp"

using namespace pgasemb;

static int benchMain(int argc, char** argv) {
  CliParser cli("Inter-batch pipelined baseline vs PGAS fused (weak "
                "config).");
  cli.addInt("batches", 50, "batches per configuration");
  cli.addInt("gpus", 4, "GPU count");
  cli.addInt("depth", 2, "pipeline depth (in-flight batches)");
  const bench::ConfigFlags flags(cli, bench::kRetrievers | bench::kSimsan,
                                 "nccl_collective,nccl_pipelined,pgas_fused");
  if (!cli.parseOrExit(argc, argv)) return 0;
  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int depth = static_cast<int>(cli.getInt("depth"));

  engine::ExperimentConfig cfg = engine::weakScalingConfig(gpus);
  // Leave room for the pipeline's extra buffer sets.
  cfg.layer.total_tables = 48LL * gpus;
  cfg.num_batches = static_cast<int>(cli.getInt("batches"));
  cfg.pipeline_depth = depth;
  flags.apply(cfg);

  engine::ScenarioRunner runner(cfg);
  const auto runs = runner.runAll(flags.retrievers());
  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  bench::printHeader(
      "Ablation: double-buffered baseline (inter-batch pipelining)");

  const std::string ref_key = trace::runKey(runs.front().retriever);
  ConsoleTable table(
      {"scheme", "ms/batch", "speedup vs " + ref_key, "extra buffers"});
  const double ref_ms = runs.front().result.avgBatchMs();
  for (const auto& run : runs) {
    const bool pipelined = run.retriever == "nccl_pipelined";
    std::string scheme = trace::runStyle(run.retriever).display;
    if (pipelined) scheme += " d=" + std::to_string(depth);
    const double ms = run.result.avgBatchMs();
    table.addRow({scheme, ConsoleTable::num(ms, 3),
                  ms > 0.0 ? ConsoleTable::num(ref_ms / ms, 2) + "x" : "-",
                  (pipelined ? std::to_string(depth) : "1") + "x"});
  }
  printf("\n%s\n", table.render().c_str());
  for (const auto& run : runs) {
    if (!run.result.sanitizer) continue;
    printf("simsan %-16s %s\n", run.retriever.c_str(),
           run.result.sanitizer->report().c_str());
  }
  printf("(pipelining hides the wire time behind the next batch's compute "
         "but\n keeps the unpack pass and multiplies activation buffers; "
         "PGAS hides\n communication inside the same batch and has no "
         "unpack at all)\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
