// Full DLRM training step — the complete realization of the paper's §V
// future work.
//
// Per step: forward pass (either EMB retriever) -> BCE loss against
// synthetic click labels -> analytic backprop through the bottom MLP,
// the dot-product interaction, and the top MLP -> MLP backward kernels
// -> the resulting REAL upstream gradients drive the EMB backward pass
// (collective rounds or PGAS remote atomics) -> data-parallel MLP
// gradients are applied. Their ring all-reduce runs on one side stream
// per GPU, launched right after the EMB backward's apply kernels (both
// schemes): the apply uses no link, so the all-reduce's transfers run
// under its compute and the EMB backward's final sync ends the step.
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
  /// MLP backward kernels, plus the part of the gradient all-reduce that
  /// the EMB apply does not hide (zero when the apply outlasts it).
  /// total = forward batch total + this + emb_backward.total.
  SimTime mlp_backward_time = SimTime::zero();
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
  std::vector<gpu::Stream*> allreduce_streams_;  ///< one per GPU
};

}  // namespace pgasemb::dlrm
