#include "dlrm/backward.hpp"

#include <algorithm>
#include <map>

#include "emb/lookup_kernel.hpp"
#include "util/expect.hpp"

namespace pgasemb::dlrm {
EmbBackwardEngine::EmbBackwardEngine(emb::ShardedEmbeddingLayer& layer,
                                     collective::Communicator& comm,
                                     pgas::PgasRuntime& runtime,
                                     float learning_rate)
    : layer_(layer), comm_(comm), runtime_(runtime), lr_(learning_rate) {
  PGASEMB_CHECK(learning_rate > 0.0f, "learning rate must be positive");
}

float EmbBackwardEngine::upstreamGrad(std::uint64_t seed,
                                      std::int64_t table,
                                      std::int64_t sample, int col) {
  const std::uint64_t h = splitmix64(
      seed ^ (static_cast<std::uint64_t>(table) * 0x9e3779b9ULL +
              static_cast<std::uint64_t>(sample) * 0x85ebca6bULL +
              static_cast<std::uint64_t>(col)));
  // Small gradients in [-0.01, 0.01).
  return static_cast<float>(
      (static_cast<double>(h >> 40) * 0x1.0p-24 - 0.5) * 0.02);
}

void EmbBackwardEngine::applyGradientsFunctional(
    const emb::SparseBatch& batch, const UpstreamGradFn& upstream) {
  // Row gradients accumulated in a fixed (table, src GPU, sample, bag)
  // order so both schemes update the tables bit-identically.
  const auto& sh = layer_.sharding();
  const int dim = layer_.dim();
  const std::uint64_t seed = layer_.spec().seed ^ 0xbacca;
  for (std::int64_t t = 0; t < layer_.spec().total_tables; ++t) {
    std::map<std::int64_t, std::vector<float>> row_grads;
    const auto offs = batch.offsets(t);
    const auto idxs = batch.indices(t);
    for (std::int64_t b = 0; b < sh.batchSize(); ++b) {
      for (std::int64_t i = offs[static_cast<std::size_t>(b)];
           i < offs[static_cast<std::size_t>(b) + 1]; ++i) {
        const std::int64_t row =
            layer_.hashedRow(t, idxs[static_cast<std::size_t>(i)]);
        auto& acc = row_grads.try_emplace(
            row, std::vector<float>(static_cast<std::size_t>(dim), 0.0f))
            .first->second;
        for (int c = 0; c < dim; ++c) {
          // Sum pooling: the output gradient flows to every bag entry.
          acc[static_cast<std::size_t>(c)] +=
              upstream ? upstream(t, b, c) : upstreamGrad(seed, t, b, c);
        }
      }
    }
    for (const auto& [row, grad] : row_grads) {
      layer_.table(t).applyGradient(row, grad, lr_);
    }
  }
}

SimTime EmbBackwardEngine::runApplyPhase(const emb::SparseBatch& batch,
                                         const BesideApplyFn& beside_apply) {
  auto& system = layer_.system();
  const auto& sh = layer_.sharding();
  const int p = system.numGpus();
  for (int g = 0; g < p; ++g) {
    const double rows =
        batch.totalIndices(sh.firstTableOn(g), sh.tablesOn(g));
    gpu::KernelDesc k;
    k.name = "emb_backward_apply.gpu" + std::to_string(g);
    k.duration = system.costModel().streamKernelTime(rows * layer_.dim() *
                                                     4.0 * 3.0);
    system.launchKernel(g, std::move(k));
  }
  if (!beside_apply) return system.syncAll();
  const SimTime launched = system.hostNow();
  const collective::Request beside = beside_apply();
  const SimTime triggered = system.hostNow();
  const SimTime end = system.syncAll();
  // The sync also waited for the beside collective. Without it, the sync
  // would have started once the host had launched the apply and the last
  // apply kernel had ended; take out what the collective's host triggers
  // and transfers added past that point.
  SimTime applied = launched;
  for (int g = 0; g < p; ++g) {
    applied = std::max(applied, system.stream(g).lastCompletion());
  }
  return end -
         (std::max({triggered, applied, beside.completionTime()}) - applied);
}

BackwardTiming EmbBackwardEngine::runBatch(const emb::SparseBatch& batch,
                                           BackwardScheme scheme,
                                           const UpstreamGradFn& upstream,
                                           const BesideApplyFn& beside_apply) {
  auto& system = layer_.system();
  const auto& sh = layer_.sharding();
  const auto& cm = system.costModel();
  const int p = system.numGpus();
  const int dim = layer_.dim();
  PGASEMB_CHECK(sh.scheme() == emb::ShardingScheme::kTableWise,
                "backward engine implements table-wise sharding");

  BackwardTiming timing;
  const SimTime t0 = system.hostNow();

  if (scheme == BackwardScheme::kCollective) {
    // Phase 1: local gradient kernels (upstream grads -> send buffers).
    for (int g = 0; g < p; ++g) {
      gpu::KernelDesc k;
      k.name = "emb_backward_grad.gpu" + std::to_string(g);
      const double bytes = 2.0 * static_cast<double>(sh.totalTables()) *
                           sh.miniBatchSize(g) * dim * 4.0;
      k.duration = cm.streamKernelTime(bytes);
      system.launchKernel(g, std::move(k));
    }
    const SimTime t1 = system.syncAll();
    timing.grad_phase = t1 - t0;

    // Phase 2: all-to-all of per-(table, sample) gradients to owners.
    std::vector<std::vector<std::int64_t>> matrix(
        static_cast<std::size_t>(p),
        std::vector<std::int64_t>(static_cast<std::size_t>(p), 0));
    for (int src = 0; src < p; ++src) {
      for (int dst = 0; dst < p; ++dst) {
        if (src == dst) continue;
        matrix[static_cast<std::size_t>(src)][static_cast<std::size_t>(
            dst)] = sh.tablesOn(dst) * sh.miniBatchSize(src) * dim * 4;
      }
    }
    auto req = comm_.allToAllSingle(matrix);
    const SimTime t2 = req.wait(system);
    timing.comm_phase = t2 - t1;

    // Phase 3: scatter-add into row-gradient buffers (gather-shaped).
    for (int g = 0; g < p; ++g) {
      const double rows =
          batch.totalIndices(sh.firstTableOn(g), sh.tablesOn(g));
      gpu::KernelDesc k;
      k.name = "emb_backward_scatter.gpu" + std::to_string(g);
      const double bytes =
          static_cast<double>(sh.tablesOn(g)) * sh.batchSize() * dim * 4.0 +
          rows * dim * 4.0 * 2.0;
      k.duration = cm.gatherKernelTime(rows * dim, bytes, rows);
      system.launchKernel(g, std::move(k));
    }
    const SimTime t3 = system.syncAll();

    // Phase 4: the paper's multi-round gradient consistency exchange —
    // embeddings shifted to the next GPU, synchronized every round.
    auto shift = comm_.ringShiftRounds(
        sh.tablesOn(0) * sh.miniBatchSize(0) * dim * 4, p - 1);
    const SimTime t4 = shift.wait(system);
    timing.aggregate_phase = (t4 - t3) + (t3 - t2);  // scatter + rounds

    // Phase 5: apply SGD updates.
    const SimTime t5 = runApplyPhase(batch, beside_apply);
    timing.apply_phase = t5 - t4;
    timing.total = t5 - t0;
  } else {
    // PGAS: one fused kernel per GPU.  It (a) computes the upstream
    // gradient of every (table, sample) output in its mini-batch and
    // pushes each one to the table owner as remote atomic adds the
    // moment it is ready (same wire volume as the baseline's all-to-all,
    // but overlapped with compute), and (b) scatters the arriving
    // contributions into its own tables' row-gradient buffers — the
    // atomics subsume the baseline's multi-round aggregation entirely.
    for (int g = 0; g < p; ++g) {
      std::vector<std::int64_t> payload(static_cast<std::size_t>(p), 0);
      for (int dst = 0; dst < p; ++dst) {
        if (dst == g) continue;
        payload[static_cast<std::size_t>(dst)] =
            sh.tablesOn(dst) * sh.miniBatchSize(g) * dim * 4;
      }
      // Scatter workload for the tables this GPU owns (full batch).
      const double owned_rows =
          batch.totalIndices(sh.firstTableOn(g), sh.tablesOn(g));
      gpu::KernelDesc k;
      k.name = "emb_backward_pgas.gpu" + std::to_string(g);
      const double bytes =
          static_cast<double>(sh.totalTables()) * sh.miniBatchSize(g) *
              dim * 4.0 +
          owned_rows * dim * 4.0 * 2.0;
      k.duration =
          cm.gatherKernelTime(owned_rows * dim, bytes, owned_rows);
      auto plan = pgas::makeUniformPlan(payload, g, /*slices=*/128,
                                        emb::kCoalescedMessageBytes);
      runtime_.attachMessagePlan(k, g, std::move(plan));
      system.launchKernel(g, std::move(k));
    }
    const SimTime t1 = system.syncAll();
    timing.grad_phase = t1 - t0;

    // Apply SGD updates from the atomically accumulated buffers.
    const SimTime t2 = runApplyPhase(batch, beside_apply);
    timing.apply_phase = t2 - t1;
    timing.total = t2 - t0;
  }

  if (system.mode() == gpu::ExecutionMode::kFunctional &&
      batch.materialized()) {
    applyGradientsFunctional(batch, upstream);
  }
  return timing;
}

}  // namespace pgasemb::dlrm
