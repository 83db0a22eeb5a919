// Extension bench: full DLRM TRAINING step at paper scale (forward +
// MLP backward + EMB backward, the MLP-gradient all-reduce under the
// EMB apply), combining both of the paper's axes: the forward retrieval
// scheme and the backward gradient exchange scheme.
#include <memory>

#include "bench_common.hpp"
#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "dlrm/trainer.hpp"
#include "pgas/runtime.hpp"
#include "util/table.hpp"

using namespace pgasemb;

static int benchMain(int argc, char** argv) {
  CliParser cli("Full DLRM training step: collective vs PGAS on both the "
                "forward and backward EMB paths (4 GPUs, weak config).");
  cli.addInt("batches", 10, "steps per configuration");
  cli.addInt("gpus", 4, "GPU count");
  const bench::ConfigFlags flags(cli, bench::kCoalesce);
  if (!cli.parseOrExit(argc, argv)) return 0;
  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int steps = static_cast<int>(cli.getInt("batches"));

  engine::ExperimentConfig cfg = engine::weakScalingConfig(gpus);
  flags.apply(cfg);
  const emb::EmbLayerSpec& spec = cfg.layer;
  dlrm::DlrmConfig model_cfg;
  model_cfg.dense_dim = 13;
  model_cfg.top_mlp = {512, 256, spec.dim};
  model_cfg.bottom_mlp = {512, 256, 1};

  ConsoleTable table({"forward", "backward", "step ms", "emb fwd ms",
                      "emb bwd ms", "mlp bwd ms"});
  double full_collective_ms = 0.0;
  double full_pgas_ms = 0.0;
  for (const bool pgas_fwd : {false, true}) {
    for (const bool pgas_bwd : {false, true}) {
      engine::SystemBuilder rig(cfg);
      auto& layer = rig.layer();
      auto& comm = rig.comm();
      auto& runtime = rig.runtime();
      dlrm::DlrmModel model(model_cfg, layer);
      std::unique_ptr<core::EmbeddingRetriever> retriever;
      if (pgas_fwd) {
        retriever = std::make_unique<core::PgasFusedRetriever>(
            layer, runtime, core::PgasRetrieverOptions{});
      } else {
        retriever =
            std::make_unique<core::CollectiveRetriever>(layer, comm);
      }
      dlrm::DlrmTrainer trainer(
          model, *retriever, comm, runtime, 0.01f,
          pgas_bwd ? dlrm::BackwardScheme::kPgasAtomics
                   : dlrm::BackwardScheme::kCollective);
      const auto sparse = emb::SparseBatch::statistical(spec.batchSpec());
      Rng rng(1);
      const auto dense = dlrm::DenseBatch::generateUniform(
          spec.batch_size, model_cfg.dense_dim, rng);
      SimTime total = SimTime::zero(), fwd = SimTime::zero(),
              bwd = SimTime::zero(), mlp = SimTime::zero();
      for (int i = 0; i < steps; ++i) {
        const auto r = trainer.step(dense, sparse);
        total += r.total;
        fwd += r.emb_forward.total;
        bwd += r.emb_backward.total;
        mlp += r.mlp_backward_time;
      }
      const double ms = total.toMs() / steps;
      if (!pgas_fwd && !pgas_bwd) full_collective_ms = ms;
      if (pgas_fwd && pgas_bwd) full_pgas_ms = ms;
      table.addRow({pgas_fwd ? "pgas" : "collective",
                    pgas_bwd ? "pgas atomics" : "collective rounds",
                    ConsoleTable::num(ms, 3),
                    ConsoleTable::num(fwd.toMs() / steps, 3),
                    ConsoleTable::num(bwd.toMs() / steps, 3),
                    ConsoleTable::num(mlp.toMs() / steps, 3)});
    }
  }
  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  bench::printHeader("Full training step (paper SV realized end-to-end)");
  printf("\n%s\n", table.render().c_str());
  printf("full-PGAS training step speedup over full-collective: %.2fx "
         "(%.3f -> %.3f ms)\n",
         full_collective_ms / full_pgas_ms, full_collective_ms, full_pgas_ms);
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
