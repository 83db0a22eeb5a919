// Ablation A8 (paper §V): sparse-input partitioning cost.
//
// Table-wise sharding routes whole tables — the host cost is trivial, as
// the paper observes. Row-wise sharding must hash-route every raw index
// on the CPU, which becomes a significant serial fraction of the batch.
// The paper's proposed fix — fusing partitioning into the lookup kernel —
// trades that host time for extra (parallel, memory-bound) kernel reads.
#include "bench_common.hpp"
#include "emb/input_partition.hpp"
#include "emb/lookup_kernel.hpp"
#include "util/table.hpp"

using namespace pgasemb;

static int benchMain(int argc, char** argv) {
  CliParser cli("Input-partitioning cost: table-wise vs row-wise vs "
                "fused-into-kernel (paper SV).");
  cli.addInt("gpus", 4, "GPU count");
  if (!cli.parseOrExit(argc, argv)) return 0;
  const int gpus = static_cast<int>(cli.getInt("gpus"));

  bench::printHeader("Ablation: sparse-input partitioning (paper SV)");

  engine::ExperimentConfig cfg = engine::weakScalingConfig(gpus);
  const auto batch = emb::SparseBatch::statistical(cfg.layer.batchSpec());

  ConsoleTable table({"scheme", "host partition", "extra kernel read",
                      "share of EMB batch"});
  struct Case {
    const char* name;
    emb::ShardingScheme scheme;
    bool fused;
  };
  for (const Case c : {Case{"table-wise, host",
                            emb::ShardingScheme::kTableWise, false},
                       Case{"row-wise,   host",
                            emb::ShardingScheme::kRowWise, false},
                       Case{"row-wise,  fused",
                            emb::ShardingScheme::kRowWise, true}}) {
    cfg.sharding = c.scheme;
    engine::SystemBuilder rig(cfg);
    const auto& layer = rig.layer();
    const auto& cost_model = rig.system().costModel();
    const auto cost = emb::inputPartitionCost(layer, batch, c.fused);
    // EMB batch time reference: lookup compute on GPU 0.
    const auto work = layer.lookupWork(batch, 0);
    const SimTime emb_time = emb::lookupComputeTime(layer, work);
    const double extra_ms =
        cost.extra_kernel_bytes_per_gpu /
        (cost_model.hbm_bandwidth * cost_model.gather_efficiency) *
        1e3;
    table.addRow(
        {c.name, cost.host_time.toString(),
         ConsoleTable::num(extra_ms, 3) + " ms",
         ConsoleTable::num(
             (cost.host_time.toMs() + extra_ms) / emb_time.toMs() * 100.0,
             1) +
             "%"});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(row-wise host routing hashes every raw index serially; fusing "
         "it\n into the kernel converts ~ms of serial CPU time into "
         "parallel reads)\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
