// EMB-layer backward pass — the paper's future-work extension (§V).
//
// In backprop the flow reverses: each GPU holds the upstream gradients
// for ITS mini-batch (data-parallel), and every bag entry's gradient must
// reach the GPU that owns that embedding row (model-parallel) and be
// summed with contributions from every other GPU that used the same row.
// The communicated volume is proportional to the bag entries touched by
// the batch — up to a pooling-factor larger than the forward pass.
//
//  - kCollective: grad kernel -> sync -> all-to-all of per-(table,
//    sample) gradients -> scatter-add kernel -> (P-1) rounds of ring
//    shifts with per-round synchronization (the paper's "multiple rounds
//    of collective calls, where embeddings are shifted to the next GPU")
//    -> apply.
//  - kPgasAtomics: one fused kernel per GPU that pushes each row
//    gradient as a remote ATOMIC ADD the moment it is computed, quiet,
//    then apply — no rounds, no extra synchronization.
//
// The apply uses no link, so either scheme offers the caller one launch
// point right after the apply kernels: a collective launched there (the
// trainer's MLP-gradient all-reduce) runs under the apply's compute.
#pragma once

#include <cstdint>
#include <functional>

#include "collective/communicator.hpp"
#include "emb/layer.hpp"
#include "pgas/runtime.hpp"

namespace pgasemb::dlrm {

enum class BackwardScheme { kCollective, kPgasAtomics };

struct BackwardTiming {
  SimTime total = SimTime::zero();
  SimTime grad_phase = SimTime::zero();       ///< local gradient kernels
  SimTime comm_phase = SimTime::zero();       ///< collective exchange
  SimTime aggregate_phase = SimTime::zero();  ///< multi-round shifts
  SimTime apply_phase = SimTime::zero();      ///< SGD update kernels
};

class EmbBackwardEngine {
 public:
  EmbBackwardEngine(emb::ShardedEmbeddingLayer& layer,
                    collective::Communicator& comm,
                    pgas::PgasRuntime& runtime, float learning_rate);

  /// Deterministic synthetic upstream gradient for output (table,
  /// sample, col) — stands in for the interaction layer's backprop.
  static float upstreamGrad(std::uint64_t seed, std::int64_t table,
                            std::int64_t sample, int col);

  /// Upstream gradient provider: dL/d(output of table t, sample b,
  /// col c). Defaults to the synthetic upstreamGrad() when null.
  using UpstreamGradFn =
      std::function<float(std::int64_t table, std::int64_t sample, int col)>;

  /// Launches a collective beside the apply and returns its request.
  using BesideApplyFn = std::function<collective::Request()>;

  /// Run one backward pass over `batch`. In functional mode the dense
  /// embedding tables are updated in place (identically for both
  /// schemes). `beside_apply` (optional) runs once, right after the
  /// apply kernels are launched; the final sync waits for its collective
  /// too, but the returned timing is the EMB work's alone.
  BackwardTiming runBatch(const emb::SparseBatch& batch,
                          BackwardScheme scheme,
                          const UpstreamGradFn& upstream = nullptr,
                          const BesideApplyFn& beside_apply = nullptr);

 private:
  /// Launches the SGD apply kernels, then `beside_apply`, and syncs.
  /// Returns the time that sync would have ended at for the apply alone.
  SimTime runApplyPhase(const emb::SparseBatch& batch,
                        const BesideApplyFn& beside_apply);

  void applyGradientsFunctional(const emb::SparseBatch& batch,
                                const UpstreamGradFn& upstream);

  emb::ShardedEmbeddingLayer& layer_;
  collective::Communicator& comm_;
  pgas::PgasRuntime& runtime_;
  float lr_;
};

}  // namespace pgasemb::dlrm
