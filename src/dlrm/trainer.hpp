// Full DLRM training step — the complete realization of the paper's §V
// future work.
//
// Per step: forward pass (either EMB retriever) -> BCE loss against
// synthetic click labels -> analytic backprop through the bottom MLP,
// the dot-product interaction, and the top MLP -> the resulting REAL
// upstream gradients drive the EMB backward pass (collective rounds or
// PGAS remote atomics) -> data-parallel MLP gradients are all-reduced
// and applied.
//
// Functional mode trains for real: the loss decreases and both backward
// schemes produce bit-identical parameters (see dlrm tests). The MLP
// weights and gradients are data plane, so a TimingOnly trainer never
// builds them: its steps simulate the same kernels, all-reduce and EMB
// backward without touching dense-model state.
#pragma once

#include <memory>

#include "collective/communicator.hpp"
#include "core/retriever.hpp"
#include "dlrm/backward.hpp"
#include "dlrm/model.hpp"
#include "dlrm/pipeline.hpp"

namespace pgasemb::dlrm {

struct TrainStepResult {
  double loss = 0.0;  ///< mean BCE over the batch (functional mode only)
  SimTime total = SimTime::zero();
  core::BatchTiming emb_forward;
  BackwardTiming emb_backward;
  SimTime mlp_backward_time = SimTime::zero();  ///< incl. grad all-reduce
};

class DlrmTrainer {
 public:
  DlrmTrainer(DlrmModel& model, core::EmbeddingRetriever& retriever,
              collective::Communicator& comm, pgas::PgasRuntime& runtime,
              float learning_rate, BackwardScheme scheme);

  /// Deterministic synthetic click label for a sample.
  static float label(std::uint64_t seed, std::int64_t sample);

  TrainStepResult step(const DenseBatch& dense,
                       const emb::SparseBatch& sparse);

 private:
  DlrmModel& model_;
  core::EmbeddingRetriever& retriever_;
  collective::Communicator& comm_;
  InferencePipeline pipeline_;
  EmbBackwardEngine emb_backward_;
  float lr_;
  BackwardScheme scheme_;
  // dL/d(EMB output), [sample][table][col], refilled every step.
  std::vector<float> emb_upstream_;
};

}  // namespace pgasemb::dlrm
