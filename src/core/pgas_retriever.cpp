#include "core/pgas_retriever.hpp"

#include <algorithm>
#include <optional>

#include "core/registry.hpp"
#include "emb/lookup_kernel.hpp"
#include "util/expect.hpp"

namespace pgasemb::core {

PgasFusedRetriever::PgasFusedRetriever(emb::ShardedEmbeddingLayer& layer,
                                       pgas::PgasRuntime& runtime,
                                       PgasRetrieverOptions options)
    : layer_(layer), runtime_(runtime), options_(options) {
  PGASEMB_CHECK(options.slices >= 1, "need at least one slice");
  auto& system = layer.system();
  const auto& sharding = layer.sharding();
  const int dim = layer.dim();
  // Outputs live on the symmetric heap (same size on every PE) so remote
  // writes can address them directly; ragged mini-batches just leave the
  // tail of the fat partition unused.
  std::int64_t max_elements = 0;
  for (int g = 0; g < system.numGpus(); ++g) {
    max_elements = std::max(max_elements, sharding.outputElements(g, dim));
  }
  outputs_sym_ = runtime.heap().alloc(max_elements);
  for (int g = 0; g < system.numGpus(); ++g) {
    outputs_view_.push_back(outputs_sym_.on(g));
  }
}

PgasFusedRetriever::~PgasFusedRetriever() {
  runtime_.heap().free(outputs_sym_);
}

gpu::DeviceBuffer& PgasFusedRetriever::output(int gpu) {
  PGASEMB_CHECK(gpu >= 0 && gpu < static_cast<int>(outputs_view_.size()),
                "bad gpu id ", gpu);
  return outputs_view_[static_cast<std::size_t>(gpu)];
}

BatchTiming PgasFusedRetriever::runBatch(const emb::SparseBatch& batch) {
  auto& system = layer_.system();
  const int p = system.numGpus();
  const bool functional =
      system.mode() == gpu::ExecutionMode::kFunctional &&
      batch.materialized();
  const bool row_wise =
      layer_.sharding().scheme() == emb::ShardingScheme::kRowWise;
  BatchTiming timing;
  const SimTime t0 = system.hostNow();
  auto* san = system.sanitizer();

  if (row_wise) {
    // Row-wise partial sums accumulate: outputs must start at zero. A
    // real kernel would memset the symmetric output tensor first.
    const auto& cm = system.costModel();
    for (int g = 0; g < p; ++g) {
      gpu::KernelDesc zero;
      zero.name = "emb_output_zero.gpu" + std::to_string(g);
      zero.duration = cm.streamKernelTime(static_cast<double>(
          outputs_view_[static_cast<std::size_t>(g)].sizeBytes()));
      if (functional) {
        auto& buf = outputs_view_[static_cast<std::size_t>(g)];
        zero.functional_body = [&buf] {
          std::fill(buf.span().begin(), buf.span().end(), 0.0f);
        };
      }
      if (san != nullptr) {
        const auto& buf = outputs_view_[static_cast<std::size_t>(g)];
        zero.mem_effects.push_back(
            {g, simsan::StridedRange::contiguous(buf.offset(), buf.size()),
             simsan::AccessKind::kWrite, ""});
      }
      system.launchKernel(g, std::move(zero));
    }
  }

  // Optional replica-cache filter. runBatch() drains the timeline
  // before returning, so a per-batch filter is safe to capture.
  std::optional<emb::CacheFilter> filter;
  if (options_.cache != nullptr && !row_wise && p > 1) {
    filter.emplace(layer_, batch, *options_.cache);
    timing.cache_lookups = filter->lookups();
    timing.cache_hits = filter->hits();
    timing.cache_saved_bytes = filter->savedWireBytes();
  }
  const emb::CacheFilter* f = filter ? &*filter : nullptr;

  // One fused lookup kernel per device (paper Listing 2's launch loop);
  // in-kernel one-sided writes are attached via the PGAS runtime.  With
  // a cache, a probe kernel partitions the indices first and the fused
  // kernel computes/puts misses only.  The builder declares the local
  // write effect and the remote put footprints from the output views.
  for (int g = 0; g < p; ++g) {
    if (f != nullptr) {
      system.launchKernel(g, emb::buildCacheProbeKernel(layer_, *f, g));
    }
    auto fused = emb::buildFusedLookupKernel(
        layer_, batch, g, &outputs_view_, options_.slices, f,
        row_wise ? nullptr : options_.codec);
    runtime_.attachMessagePlan(fused.desc, g, std::move(fused.plan),
                               options_.aggregator,
                               std::move(fused.remote_writes));
    system.launchKernel(g, std::move(fused.desc));
  }

  if (f != nullptr) {
    // Quiet + barrier: every one-sided write (including into our own
    // output) is delivered and joined before the serve kernels overlay
    // the hit bags — the HB edge simsan certifies the overlap against.
    system.syncAll();
    for (int g = 0; g < p; ++g) {
      auto serve = emb::buildCacheServeKernel(
          layer_, batch, *f, g, &options_.cache->replica(g),
          &outputs_view_[static_cast<std::size_t>(g)]);
      system.launchKernel(g, std::move(serve));
    }
  }

  // cudaStreamSynchronize loop over all devices.
  const SimTime t1 = system.syncAll();
  timing.compute_phase = t1 - t0;
  timing.total = t1 - t0;
  return timing;
}

namespace {
const RetrieverRegistrar kRegistrar{
    "pgas_fused",
    [](const SystemContext& ctx) -> std::unique_ptr<EmbeddingRetriever> {
      PgasRetrieverOptions opts;
      opts.slices = ctx.pgas_slices;
      opts.aggregator = ctx.aggregator;
      opts.cache = ctx.cache;
      opts.codec = ctx.codec;
      return std::make_unique<PgasFusedRetriever>(ctx.layer, ctx.runtime,
                                                  opts);
    }};
}  // namespace

}  // namespace pgasemb::core

// Linker anchor referenced by registry.cpp so this self-registering
// object survives static-archive selection (see registry.hpp).
extern "C" int pgasemb_retriever_link_pgas_fused() { return 0; }
