// Tests for the full training path: MLP backprop verified against
// numerical finite-difference gradients, interaction backward, loss
// decrease over SGD steps, bit-identical training under both EMB
// backward schemes, TimingOnly steps that build no dense-model state,
// and the MLP-gradient all-reduce under the EMB apply, whose unhidden
// part counts as MLP backward time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "collective/communicator.hpp"
#include "core/collective_retriever.hpp"
#include "core/pgas_retriever.hpp"
#include "dlrm/trainer.hpp"
#include "emb/workload.hpp"
#include "fabric/fabric.hpp"
#include "pgas/runtime.hpp"
#include "util/expect.hpp"

namespace pgasemb::dlrm {
namespace {

// --- MLP backprop vs finite differences ------------------------------------

double scalarLoss(const Mlp& mlp, std::span<const float> input) {
  // L = sum of squares of the outputs — a smooth scalar objective.
  const auto out = mlp.forward(input);
  double l = 0.0;
  for (float v : out) l += 0.5 * v * v;
  return l;
}

TEST(MlpBackpropTest, MatchesNumericalGradients) {
  Mlp mlp(MlpConfig{3, {5, 2}, 77});
  mlp.materialize();
  const std::vector<float> input{0.3f, -0.7f, 0.9f};

  // Analytic gradients: dL/dout = out, backprop.
  const auto acts = mlp.forwardActivations(input);
  std::vector<float> grad_out = acts.back();
  auto grads = mlp.zeroGradients();
  const auto grad_in = mlp.backward(acts, grad_out, grads);

  // Numerical wrt the input.
  const double eps = 1e-3;
  for (std::size_t j = 0; j < input.size(); ++j) {
    auto plus = input;
    auto minus = input;
    plus[j] += static_cast<float>(eps);
    minus[j] -= static_cast<float>(eps);
    const double num =
        (scalarLoss(mlp, plus) - scalarLoss(mlp, minus)) / (2 * eps);
    EXPECT_NEAR(grad_in[j], num, 5e-3) << "input grad " << j;
  }

  // Numerical wrt a sample of weights (layer 0 and layer 1).
  for (const int layer : {0, 1}) {
    for (const int i : {0, 1}) {
      for (const int j : {0, 2}) {
        Mlp probe(MlpConfig{3, {5, 2}, 77});
        probe.materialize();
        auto bump = probe.zeroGradients();
        bump.w[static_cast<std::size_t>(layer)][static_cast<std::size_t>(
            i * probe.inputDim(layer) + j)] = -1.0f;  // +eps via -lr*grad
        probe.applySgd(bump, static_cast<float>(eps));
        const double plus = scalarLoss(probe, input);
        probe.applySgd(bump, static_cast<float>(-2 * eps));
        const double minus = scalarLoss(probe, input);
        const double num = (plus - minus) / (2 * eps);
        EXPECT_NEAR(grads.w[static_cast<std::size_t>(layer)]
                           [static_cast<std::size_t>(
                               i * mlp.inputDim(layer) + j)],
                    num, 5e-3)
            << "w[" << layer << "][" << i << "," << j << "]";
      }
    }
  }
}

TEST(MlpBackpropTest, MaterializeKeepsForwardIdentical) {
  Mlp a(MlpConfig{4, {8, 3}, 5});
  Mlp b(MlpConfig{4, {8, 3}, 5});
  b.materialize();
  const std::vector<float> in{0.1f, 0.2f, 0.3f, 0.4f};
  EXPECT_EQ(a.forward(in), b.forward(in));
}

TEST(MlpBackpropTest, SgdMovesWeights) {
  Mlp mlp(MlpConfig{2, {2}, 3});
  mlp.materialize();
  auto grads = mlp.zeroGradients();
  grads.w[0][0] = 1.0f;
  const float before = mlp.weight(0, 0, 0);
  mlp.applySgd(grads, 0.25f);
  EXPECT_FLOAT_EQ(mlp.weight(0, 0, 0), before - 0.25f);
}

// --- Interaction backward vs finite differences ------------------------------

TEST(InteractionBackpropTest, MatchesNumericalGradients) {
  InteractionLayer layer(InteractionKind::kDotProduct, 3, 2);
  std::vector<float> dense{0.5f, -0.2f, 0.8f};
  std::vector<float> sparse{0.1f, 0.4f, -0.6f, 0.9f, -0.3f, 0.2f};

  auto loss = [&](std::span<const float> d, std::span<const float> s) {
    const auto out = layer.fuse(d, s);
    double l = 0.0;
    for (float v : out) l += 0.5 * v * v;
    return l;
  };

  const auto out = layer.fuse(dense, sparse);
  std::vector<float> grad_dense(3, 0.0f), grad_sparse(6, 0.0f);
  layer.fuseBackward(dense, sparse, out, grad_dense, grad_sparse);

  const double eps = 1e-3;
  for (std::size_t j = 0; j < dense.size(); ++j) {
    auto plus = dense;
    auto minus = dense;
    plus[j] += static_cast<float>(eps);
    minus[j] -= static_cast<float>(eps);
    EXPECT_NEAR(grad_dense[j],
                (loss(plus, sparse) - loss(minus, sparse)) / (2 * eps),
                5e-3);
  }
  for (std::size_t j = 0; j < sparse.size(); ++j) {
    auto plus = sparse;
    auto minus = sparse;
    plus[j] += static_cast<float>(eps);
    minus[j] -= static_cast<float>(eps);
    EXPECT_NEAR(grad_sparse[j],
                (loss(dense, plus) - loss(dense, minus)) / (2 * eps),
                5e-3);
  }
}

TEST(InteractionBackpropTest, ConcatGradsPassThrough) {
  InteractionLayer layer(InteractionKind::kConcat, 2, 1);
  std::vector<float> dense{1.0f, 2.0f}, sparse{3.0f, 4.0f};
  std::vector<float> grad_out{0.1f, 0.2f, 0.3f, 0.4f};
  std::vector<float> gd(2, 0.0f), gs(2, 0.0f);
  layer.fuseBackward(dense, sparse, grad_out, gd, gs);
  EXPECT_FLOAT_EQ(gd[0], 0.1f);
  EXPECT_FLOAT_EQ(gd[1], 0.2f);
  EXPECT_FLOAT_EQ(gs[0], 0.3f);
  EXPECT_FLOAT_EQ(gs[1], 0.4f);
}

// --- End-to-end training -------------------------------------------------------

struct TrainRig {
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  collective::Communicator comm;
  pgas::PgasRuntime runtime;
  emb::ShardedEmbeddingLayer layer;
  DlrmModel model;
  core::PgasFusedRetriever retriever;

  explicit TrainRig(int gpus)
      : system(config(gpus)),
        fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
            gpus, fabric::LinkParams{})),
        comm(system, fabric),
        runtime(system, fabric),
        layer(system, layerSpec()),
        model(modelConfig(), layer),
        retriever(layer, runtime, {}) {}

  static gpu::SystemConfig config(int gpus) {
    gpu::SystemConfig cfg;
    cfg.num_gpus = gpus;
    cfg.memory_capacity_bytes = 256 << 20;
    cfg.mode = gpu::ExecutionMode::kFunctional;
    return cfg;
  }
  static emb::EmbLayerSpec layerSpec() {
    emb::EmbLayerSpec spec;
    spec.total_tables = 4;
    spec.rows_per_table = 64;
    spec.dim = 4;
    spec.batch_size = 16;
    spec.min_pooling = 1;
    spec.max_pooling = 3;
    spec.seed = 0x7777;
    spec.index_space = 1u << 10;
    return spec;
  }
  static DlrmConfig modelConfig() {
    DlrmConfig cfg;
    cfg.dense_dim = 4;
    cfg.top_mlp = {8, 4};
    cfg.bottom_mlp = {8, 1};
    return cfg;
  }
};

TEST(TrainerTest, LossDecreasesOverSgdSteps) {
  TrainRig rig(2);
  DlrmTrainer trainer(rig.model, rig.retriever, rig.comm, rig.runtime,
                      /*lr=*/0.05f, BackwardScheme::kPgasAtomics);
  Rng rng(0x600d);
  const auto sparse = emb::SparseBatch::generateUniform(
      TrainRig::layerSpec().batchSpec(), rng);
  const auto dense = DenseBatch::generateUniform(16, 4, rng);
  std::vector<double> losses;
  for (int step = 0; step < 6; ++step) {
    losses.push_back(trainer.step(dense, sparse).loss);
  }
  // Strict decrease on a fixed batch with a small learning rate.
  for (std::size_t i = 1; i < losses.size(); ++i) {
    EXPECT_LT(losses[i], losses[i - 1]) << "step " << i;
  }
  EXPECT_LT(losses.back(), losses.front() * 0.95);
}

// Every bias and weight of `mlp`, layer-major.
std::vector<float> mlpParameters(const Mlp& mlp) {
  std::vector<float> params;
  const auto& dims = mlp.config().layer_dims;
  for (int l = 0; l < static_cast<int>(dims.size()); ++l) {
    for (int i = 0; i < dims[static_cast<std::size_t>(l)]; ++i) {
      params.push_back(mlp.bias(l, i));
      for (int j = 0; j < mlp.inputDim(l); ++j) {
        params.push_back(mlp.weight(l, i, j));
      }
    }
  }
  return params;
}

TEST(TrainerTest, BothBackwardSchemesTrainIdentically) {
  // The loss of each of the 3 steps, the same for both schemes. Pinned,
  // so a change that moves the dense numerics of both schemes alike
  // still fails.
  const std::vector<double> kLosses = {
      0.64771717600524426, 0.63391505740582943, 0.62139321304857731};
  std::vector<float> final_weights[2];
  for (const auto scheme :
       {BackwardScheme::kCollective, BackwardScheme::kPgasAtomics}) {
    TrainRig rig(3);
    DlrmTrainer trainer(rig.model, rig.retriever, rig.comm, rig.runtime,
                        0.05f, scheme);
    Rng rng(0x600e);
    const auto sparse = emb::SparseBatch::generateUniform(
        TrainRig::layerSpec().batchSpec(), rng);
    const auto dense = DenseBatch::generateUniform(16, 4, rng);
    std::vector<double> losses;
    for (int step = 0; step < 3; ++step) {
      losses.push_back(trainer.step(dense, sparse).loss);
    }
    EXPECT_EQ(losses, kLosses);
    const int idx = scheme == BackwardScheme::kPgasAtomics ? 1 : 0;
    auto& w = final_weights[idx];
    const auto spec = TrainRig::layerSpec();
    for (std::int64_t t = 0; t < spec.total_tables; ++t) {
      for (std::int64_t r = 0; r < spec.rows_per_table; ++r) {
        for (int c = 0; c < spec.dim; ++c) {
          w.push_back(rig.layer.table(t).weight(r, c));
        }
      }
    }
    for (const Mlp* mlp : {&rig.model.topMlp(), &rig.model.bottomMlp()}) {
      const auto params = mlpParameters(*mlp);
      w.insert(w.end(), params.begin(), params.end());
    }
  }
  EXPECT_EQ(final_weights[0], final_weights[1]);
}

// bench_training's 4-GPU TimingOnly shape, the backward scheme paired
// with its forward retriever.
struct BenchShapeRig {
  static constexpr int kGpus = 4;
  gpu::MultiGpuSystem system;
  fabric::Fabric fabric;
  collective::Communicator comm;
  pgas::PgasRuntime runtime;
  emb::ShardedEmbeddingLayer layer;
  DlrmModel model;
  std::unique_ptr<core::EmbeddingRetriever> retriever;
  DlrmTrainer trainer;
  emb::SparseBatch sparse;
  DenseBatch dense;

  explicit BenchShapeRig(BackwardScheme scheme)
      : system(config()),
        fabric(std::make_unique<fabric::NvlinkAllToAllTopology>(
            kGpus, fabric::LinkParams{})),
        comm(system, fabric),
        runtime(system, fabric),
        layer(system, emb::weakScalingLayerSpec(kGpus)),
        model(modelConfig(), layer),
        retriever(makeRetriever(scheme, layer, comm, runtime)),
        trainer(model, *retriever, comm, runtime, 0.01f, scheme),
        sparse(emb::SparseBatch::statistical(layer.spec().batchSpec())),
        dense(denseBatch()) {}

  TrainStepResult step() { return trainer.step(dense, sparse); }

  static gpu::SystemConfig config() {
    gpu::SystemConfig cfg;
    cfg.num_gpus = kGpus;
    cfg.mode = gpu::ExecutionMode::kTimingOnly;
    return cfg;
  }
  static DlrmConfig modelConfig() {
    DlrmConfig cfg;
    cfg.dense_dim = 13;
    cfg.top_mlp = {512, 256, emb::weakScalingLayerSpec(kGpus).dim};
    cfg.bottom_mlp = {512, 256, 1};
    return cfg;
  }
  static std::unique_ptr<core::EmbeddingRetriever> makeRetriever(
      BackwardScheme scheme, emb::ShardedEmbeddingLayer& layer,
      collective::Communicator& comm, pgas::PgasRuntime& runtime) {
    if (scheme == BackwardScheme::kPgasAtomics) {
      return std::make_unique<core::PgasFusedRetriever>(
          layer, runtime, core::PgasRetrieverOptions{});
    }
    return std::make_unique<core::CollectiveRetriever>(layer, comm);
  }
  static DenseBatch denseBatch() {
    Rng rng(1);
    return DenseBatch::generateUniform(
        emb::weakScalingLayerSpec(kGpus).batch_size, modelConfig().dense_dim,
        rng);
  }
};

TEST(TrainerTest, TimingOnlyStepBuildsNoDenseModelState) {
  // The MLP weights and gradients are data plane, so a TimingOnly trainer
  // builds neither, and every simulated time stays at its pinned SimTime
  // count (picoseconds; both steps take the same).
  struct Pin {
    BackwardScheme scheme;
    std::int64_t total, emb_forward, emb_backward, mlp_backward;
  };
  const Pin pins[] = {
      {BackwardScheme::kCollective, 271200452510, 61751273389, 171662288253,
       23967145954},
      {BackwardScheme::kPgasAtomics, 211850513764, 35506388282, 138557234614,
       23967145954},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(pin.scheme == BackwardScheme::kPgasAtomics
                     ? "pgas_fused + atomics"
                     : "collective + rounds");
    BenchShapeRig rig(pin.scheme);
    for (int step = 0; step < 2; ++step) {
      const auto r = rig.step();
      EXPECT_EQ(r.total.count(), pin.total);
      EXPECT_EQ(r.emb_forward.total.count(), pin.emb_forward);
      EXPECT_EQ(r.emb_backward.total.count(), pin.emb_backward);
      EXPECT_EQ(r.mlp_backward_time.count(), pin.mlp_backward);
    }
    EXPECT_FALSE(rig.model.topMlp().materialized());
    EXPECT_FALSE(rig.model.bottomMlp().materialized());
  }
}

TEST(TrainerTest, AllReduceRunsUnderTheEmbApply) {
  // On bench_training's shape every GPU's 70.4 ms emb_backward_apply
  // outlasts the ring all-reduce of the 68.7 MB of MLP gradients, and it
  // uses no link: every ring transfer of a step starts once its source
  // GPU's apply has started and lands before that apply ends, and the
  // EMB phases keep their pins (picoseconds).
  struct Pin {
    BackwardScheme scheme;
    std::int64_t grad, comm, aggregate, apply;
  };
  const Pin pins[] = {
      {BackwardScheme::kCollective, 795467360, 8114611424, 92301742348,
       70450467121},
      {BackwardScheme::kPgasAtomics, 68106767493, 0, 0, 70450467121},
  };
  constexpr int kGpus = BenchShapeRig::kGpus;
  for (const auto& pin : pins) {
    SCOPED_TRACE(pin.scheme == BackwardScheme::kPgasAtomics
                     ? "pgas_fused + atomics"
                     : "collective + rounds");
    BenchShapeRig rig(pin.scheme);
    struct Span {
      SimTime start, end;
    };
    std::vector<Span> apply(kGpus);
    for (int g = 0; g < kGpus; ++g) {
      rig.system.device(g).setKernelSpanObserver(
          [&apply, g](const std::string& name, SimTime start, SimTime end,
                      SimTime) {
            if (name.starts_with("emb_backward_apply.")) {
              apply[static_cast<std::size_t>(g)] = {start, end};
            }
          });
    }
    // The ring moves one 1/kGpus block of the gradients per transfer,
    // each GPU to its successor.
    const std::int64_t block = (rig.model.topMlp().parameterBytes() +
                                rig.model.bottomMlp().parameterBytes()) /
                               kGpus;
    struct Flow {
      int src;
      SimTime start, delivered;
    };
    std::vector<Flow> ring;
    rig.fabric.setFlowObserver([&ring, block](int src, int dst,
                                              std::int64_t bytes,
                                              std::int64_t, SimTime start,
                                              SimTime delivered) {
      if (bytes == block && dst == (src + 1) % kGpus) {
        ring.push_back({src, start, delivered});
      }
    });
    rig.step();
    ring.clear();
    const auto r = rig.step();
    ASSERT_EQ(ring.size(), static_cast<std::size_t>(kGpus * 2 * (kGpus - 1)));
    for (const auto& f : ring) {
      const Span& a = apply[static_cast<std::size_t>(f.src)];
      EXPECT_GE(f.start, a.start) << "gpu " << f.src;
      EXPECT_LT(f.delivered, a.end) << "gpu " << f.src;
    }
    const auto& b = r.emb_backward;
    EXPECT_EQ(b.grad_phase.count(), pin.grad);
    EXPECT_EQ(b.comm_phase.count(), pin.comm);
    EXPECT_EQ(b.aggregate_phase.count(), pin.aggregate);
    EXPECT_EQ(b.apply_phase.count(), pin.apply);
  }
}

TEST(TrainerTest, UnhiddenAllReduceIsMlpBackwardTime) {
  // TrainRig's 2-GPU apply kernels sit at the latency floor, and the
  // all-reduce's two host triggers alone outlast them, so the ring lands
  // after the last apply kernel ends. The EMB backward still reports the
  // EMB work alone: the engine measures the same on a twin rig with
  // nothing beside its apply. The step's tail past it is MLP backward
  // time (pinned, picoseconds).
  TrainRig rig(2);
  DlrmTrainer trainer(rig.model, rig.retriever, rig.comm, rig.runtime,
                      0.05f, BackwardScheme::kPgasAtomics);
  Rng rng(0x6010);
  const auto sparse = emb::SparseBatch::generateUniform(
      TrainRig::layerSpec().batchSpec(), rng);
  const auto dense = DenseBatch::generateUniform(16, 4, rng);
  SimTime apply_end = SimTime::zero();
  for (int g = 0; g < 2; ++g) {
    rig.system.device(g).setKernelSpanObserver(
        [&apply_end](const std::string& name, SimTime, SimTime end,
                     SimTime) {
          if (name.starts_with("emb_backward_apply.")) {
            apply_end = std::max(apply_end, end);
          }
        });
  }
  const std::int64_t block = (rig.model.topMlp().parameterBytes() +
                              rig.model.bottomMlp().parameterBytes()) /
                             2;
  SimTime ring_end = SimTime::zero();
  rig.fabric.setFlowObserver([&ring_end, block](int, int, std::int64_t bytes,
                                                std::int64_t, SimTime,
                                                SimTime delivered) {
    if (bytes == block) ring_end = std::max(ring_end, delivered);
  });
  const auto r = trainer.step(dense, sparse);
  EXPECT_GT(ring_end, apply_end);
  // The step's final sync waited for the ring: one sync call per GPU
  // after its last delivery.
  EXPECT_EQ(rig.system.hostNow(),
            ring_end + rig.system.costModel().stream_sync_overhead * 2);
  // The MLP backward is its kernels and their sync (65 us: GPU 1's
  // first kernel is the third 7 us launch, its two latency-floor kernels
  // doubled for dgrad and wgrad take 24 us, then two 10 us sync calls)
  // plus the ring's tail past the apply.
  EXPECT_EQ(r.mlp_backward_time, SimTime::us(65.0) + (ring_end - apply_end));

  TrainRig twin(2);
  EmbBackwardEngine engine(twin.layer, twin.comm, twin.runtime, 0.05f);
  const auto alone = engine.runBatch(sparse, BackwardScheme::kPgasAtomics);
  EXPECT_EQ(r.emb_backward.total, alone.total);
  EXPECT_EQ(r.emb_backward.grad_phase, alone.grad_phase);
  EXPECT_EQ(r.emb_backward.apply_phase, alone.apply_phase);

  EXPECT_EQ(r.total.count(), 350717238);
  EXPECT_EQ(r.mlp_backward_time.count(), 118905238);
  EXPECT_EQ(r.emb_backward.total.count(), 81906000);
}

TEST(TrainerTest, StepReportsAllTimingComponents) {
  TrainRig rig(2);
  DlrmTrainer trainer(rig.model, rig.retriever, rig.comm, rig.runtime,
                      0.05f, BackwardScheme::kPgasAtomics);
  Rng rng(0x600f);
  const auto sparse = emb::SparseBatch::generateUniform(
      TrainRig::layerSpec().batchSpec(), rng);
  const auto dense = DenseBatch::generateUniform(16, 4, rng);
  const auto r = trainer.step(dense, sparse);
  EXPECT_GT(r.emb_forward.total, SimTime::zero());
  EXPECT_GT(r.emb_backward.total, SimTime::zero());
  EXPECT_GT(r.mlp_backward_time, SimTime::zero());
  EXPECT_GE(r.total, r.emb_forward.total + r.emb_backward.total);
  EXPECT_GT(r.loss, 0.0);
}

TEST(TrainerTest, LabelsAreDeterministicBinary) {
  for (std::int64_t s = 0; s < 50; ++s) {
    const float y = DlrmTrainer::label(1, s);
    EXPECT_TRUE(y == 0.0f || y == 1.0f);
    EXPECT_EQ(y, DlrmTrainer::label(1, s));
  }
  // Both classes appear.
  int ones = 0;
  for (std::int64_t s = 0; s < 100; ++s) {
    ones += DlrmTrainer::label(2, s) == 1.0f ? 1 : 0;
  }
  EXPECT_GT(ones, 20);
  EXPECT_LT(ones, 80);
}

}  // namespace
}  // namespace pgasemb::dlrm
