// Ablation A7: overlap granularity — how finely the fused kernel's
// one-sided writes are spread over its timeline.
//
// `slices = 1` degenerates to "send everything when the kernel ends"
// (bulk-synchronous with no unpack: isolates the overlap benefit from
// the unpack-elimination benefit); high slice counts approach the
// paper's continuous fine-grained overlap. Also compares interconnect
// topologies, since port-shared fabrics (NVSwitch, ring) change how much
// spreading matters.
#include <memory>

#include "bench_common.hpp"
#include "collective/communicator.hpp"
#include "core/pgas_retriever.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "util/table.hpp"

using namespace pgasemb;

namespace {

enum class Topo { kPairwise, kNvSwitch, kRing };

double runOnce(int gpus, int slices, Topo topo, int batches) {
  gpu::SystemConfig sys_cfg;
  sys_cfg.num_gpus = gpus;
  sys_cfg.mode = gpu::ExecutionMode::kTimingOnly;
  gpu::MultiGpuSystem system(sys_cfg);

  std::unique_ptr<fabric::Topology> t;
  fabric::LinkParams pair_link;  // defaults: 48 GB/s per pair direction
  switch (topo) {
    case Topo::kPairwise:
      t = std::make_unique<fabric::NvlinkAllToAllTopology>(gpus, pair_link);
      break;
    case Topo::kNvSwitch: {
      fabric::LinkParams port = pair_link;
      // One port carries what (gpus-1) pair links would: same aggregate.
      port.bandwidth_bytes_per_sec *= (gpus - 1);
      t = std::make_unique<fabric::NvSwitchTopology>(gpus, port);
      break;
    }
    case Topo::kRing:
      t = std::make_unique<fabric::RingTopology>(gpus, pair_link);
      break;
  }
  fabric::Fabric fabric(std::move(t));
  pgas::PgasRuntime runtime(system, fabric);
  const auto spec = emb::weakScalingLayerSpec(gpus);
  emb::ShardedEmbeddingLayer layer(system, spec);
  core::PgasRetrieverOptions opts;
  opts.slices = slices;
  core::PgasFusedRetriever pgas(layer, runtime, opts);
  const auto batch = emb::SparseBatch::statistical(spec.batchSpec());
  SimTime total = SimTime::zero();
  for (int b = 0; b < batches; ++b) total += pgas.runBatch(batch).total;
  return total.toMs() / batches;
}

}  // namespace

static int benchMain(int argc, char** argv) {
  CliParser cli("Overlap-granularity ablation: kernel message slices x "
                "interconnect topology (4 GPUs, weak config).");
  cli.addInt("batches", 5, "batches per configuration");
  cli.addInt("gpus", 4, "GPU count");
  if (!cli.parseOrExit(argc, argv)) return 0;
  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int batches = static_cast<int>(cli.getInt("batches"));

  bench::printHeader(
      "Ablation: in-kernel message granularity (overlap) x topology");

  ConsoleTable table({"slices", "pairwise NVLink ms", "NVSwitch ms",
                      "ring ms"});
  for (const int slices : {1, 2, 4, 16, 64, 256, 1024}) {
    table.addRow({std::to_string(slices),
                  ConsoleTable::num(
                      runOnce(gpus, slices, Topo::kPairwise, batches), 3),
                  ConsoleTable::num(
                      runOnce(gpus, slices, Topo::kNvSwitch, batches), 3),
                  ConsoleTable::num(
                      runOnce(gpus, slices, Topo::kRing, batches), 3)});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(slices=1 defers all writes to kernel end — bulk-synchronous "
         "without\n unpack; the gap to high slice counts is the pure "
         "overlap benefit.\n The ring pays multi-hop store-and-forward; "
         "spreading matters more there.)\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
