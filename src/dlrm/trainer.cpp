#include "dlrm/trainer.hpp"

#include <cmath>

#include "util/expect.hpp"

namespace pgasemb::dlrm {

DlrmTrainer::DlrmTrainer(DlrmModel& model,
                         core::EmbeddingRetriever& retriever,
                         collective::Communicator& comm,
                         pgas::PgasRuntime& runtime, float learning_rate,
                         BackwardScheme scheme)
    : model_(model),
      retriever_(retriever),
      comm_(comm),
      pipeline_(model, retriever),
      emb_backward_(model.embLayer(), comm, runtime, learning_rate),
      lr_(learning_rate),
      scheme_(scheme) {
  auto& system = model.embLayer().system();
  for (int g = 0; g < system.numGpus(); ++g) {
    allreduce_streams_.push_back(&system.createStream(g, "allreduce"));
  }
  // Training mutates the MLPs; move them off the procedural weights.
  // Dense weights are data plane: a TimingOnly run never reads them.
  if (system.mode() == gpu::ExecutionMode::kFunctional) {
    model.topMlp().materialize();
    model.bottomMlp().materialize();
  }
}

float DlrmTrainer::label(std::uint64_t seed, std::int64_t sample) {
  return static_cast<float>(
      splitmix64(seed ^ static_cast<std::uint64_t>(sample)) & 1u);
}

TrainStepResult DlrmTrainer::step(const DenseBatch& dense,
                                  const emb::SparseBatch& sparse) {
  auto& layer = model_.embLayer();
  auto& system = layer.system();
  const auto& sharding = layer.sharding();
  const int p = system.numGpus();
  const int dim = layer.dim();
  const std::int64_t tables = layer.spec().total_tables;
  const bool functional =
      system.mode() == gpu::ExecutionMode::kFunctional &&
      sparse.materialized();

  TrainStepResult result;
  const SimTime t0 = system.hostNow();

  // ---- Forward ------------------------------------------------------------
  const auto fwd = pipeline_.runBatch(dense, sparse);
  result.emb_forward = fwd.emb;

  // ---- Functional backprop through bottom MLP / interaction / top MLP ----
  auto& top = model_.topMlp();
  auto& bottom = model_.bottomMlp();
  Mlp::Gradients top_grads, bottom_grads;
  if (functional) {
    top_grads = top.zeroGradients();
    bottom_grads = bottom.zeroGradients();
    emb_upstream_.assign(
        static_cast<std::size_t>(sparse.batchSize() * tables * dim), 0.0f);
    double loss_sum = 0.0;
    const std::uint64_t label_seed = layer.spec().seed ^ 0x1abe1;
    const float inv_batch = 1.0f / static_cast<float>(sparse.batchSize());
    for (int g = 0; g < p; ++g) {
      const auto emb_out = retriever_.output(g).span();
      const std::int64_t mb = sharding.miniBatchSize(g);
      const std::int64_t b0 = sharding.miniBatchBegin(g);
      for (std::int64_t s = 0; s < mb; ++s) {
        const std::int64_t b = b0 + s;
        const auto sparse_slice = emb_out.subspan(
            static_cast<std::size_t>(s * tables * dim),
            static_cast<std::size_t>(tables * dim));
        // Forward with cached activations.
        const auto top_acts = top.forwardActivations(dense.sample(b));
        const auto& dense_emb = top_acts.back();
        const auto fused =
            model_.interaction().fuse(dense_emb, sparse_slice);
        const auto bot_acts = bottom.forwardActivations(fused);
        const float logit = bot_acts.back()[0];
        const float prob = 1.0f / (1.0f + std::exp(-logit));
        const float y = label(label_seed, b);
        // Numerically-stable BCE.
        loss_sum += std::log1p(std::exp(-std::abs(logit))) +
                    (logit > 0 ? (1.0f - y) * logit : -y * logit);
        // dL/dlogit for sigmoid+BCE, averaged over the batch.
        const float dlogit = (prob - y) * inv_batch;
        const std::vector<float> grad_logit{dlogit};
        const auto grad_fused =
            bottom.backward(bot_acts, grad_logit, bottom_grads);
        std::vector<float> grad_dense_emb(static_cast<std::size_t>(dim),
                                          0.0f);
        const auto up_base = static_cast<std::size_t>(b * tables * dim);
        model_.interaction().fuseBackward(
            dense_emb, sparse_slice, grad_fused, grad_dense_emb,
            std::span<float>(emb_upstream_.data() + up_base,
                             static_cast<std::size_t>(tables * dim)));
        top.backward(top_acts, grad_dense_emb, top_grads);
      }
    }
    result.loss = loss_sum / static_cast<double>(sparse.batchSize());
  }

  // ---- Timing: MLP backward kernels ---------------------------------------
  const SimTime t1 = system.hostNow();
  for (int g = 0; g < p; ++g) {
    const std::int64_t mb = sharding.miniBatchSize(g);
    auto desc = model_.bottomMlp().buildForwardKernel(
        system, mb, "bottom_mlp_bwd.gpu" + std::to_string(g));
    desc.duration = desc.duration * 2;  // dgrad + wgrad
    system.launchKernel(g, std::move(desc));
    auto desc2 = model_.topMlp().buildForwardKernel(
        system, mb, "top_mlp_bwd.gpu" + std::to_string(g));
    desc2.duration = desc2.duration * 2;
    system.launchKernel(g, std::move(desc2));
  }
  system.syncAll();

  // ---- EMB backward with the REAL upstream gradients ----------------------
  // The MLP-gradient all-reduce launches on the side streams right after
  // the apply kernels: the apply uses no link, so the ring runs under it.
  EmbBackwardEngine::UpstreamGradFn upstream;
  if (functional) {
    upstream = [this, tables, dim](std::int64_t t, std::int64_t b, int c) {
      return emb_upstream_[static_cast<std::size_t>(
          (b * tables + t) * dim + c)];
    };
  }
  result.emb_backward =
      emb_backward_.runBatch(sparse, scheme_, upstream, [&] {
        return comm_.allReduce(
            top.parameterBytes() + bottom.parameterBytes(), nullptr,
            &allreduce_streams_);
      });
  const SimTime end = system.hostNow();
  // The MLP backward is its kernels and their sync, plus what the apply
  // did not hide of the all-reduce: how far the step ends past the EMB
  // backward.
  result.mlp_backward_time = end - t1 - result.emb_backward.total;

  // ---- Apply the (all-reduced) MLP gradients ------------------------------
  if (functional) {
    top.applySgd(top_grads, lr_);
    bottom.applySgd(bottom_grads, lr_);
  }

  result.total = end - t0;
  // Every picosecond of the step belongs to the forward, the MLP backward
  // or the EMB backward.
  PGASEMB_ASSERT(result.total == fwd.batch_total + result.mlp_backward_time +
                                     result.emb_backward.total,
                 "step total ", result.total.count(),
                 " ps is not the sum of its parts");
  return result;
}

}  // namespace pgasemb::dlrm
