#include "core/collective_retriever.hpp"

#include <algorithm>
#include <optional>

#include "core/registry.hpp"
#include "emb/lookup_kernel.hpp"
#include "emb/staging_kernel.hpp"
#include "emb/unpack_kernel.hpp"
#include "fault/hier_route.hpp"
#include "util/expect.hpp"

namespace pgasemb::core {

CollectiveRetriever::CollectiveRetriever(emb::ShardedEmbeddingLayer& layer,
                                         collective::Communicator& comm,
                                         emb::ReplicaCache* cache,
                                         const fault::HierRoute* route,
                                         fabric::InterNodeCodec* codec)
    : layer_(layer), comm_(comm), cache_(cache), route_(route),
      codec_(codec) {
  PGASEMB_CHECK(layer.sharding().scheme() == emb::ShardingScheme::kTableWise,
                "the collective baseline implements table-wise sharding "
                "(the paper's scheme)");
  auto& system = layer.system();
  const auto& sharding = layer.sharding();
  const int p = system.numGpus();
  const int dim = layer.dim();
  for (int g = 0; g < p; ++g) {
    auto& dev = system.device(g);
    outputs_.push_back(dev.alloc(sharding.outputElements(g, dim)));
    if (p > 1) {
      send_buffers_.push_back(
          dev.alloc(emb::sendBufferElements(sharding, g, dim)));
      recv_buffers_.push_back(
          dev.alloc(emb::recvBufferElements(sharding, g, dim)));
    }
  }
}

CollectiveRetriever::~CollectiveRetriever() {
  auto& system = layer_.system();
  for (int g = system.numGpus() - 1; g >= 0; --g) {
    if (!recv_buffers_.empty()) {
      system.device(g).free(recv_buffers_[static_cast<std::size_t>(g)]);
      system.device(g).free(send_buffers_[static_cast<std::size_t>(g)]);
    }
    system.device(g).free(outputs_[static_cast<std::size_t>(g)]);
  }
}

gpu::DeviceBuffer& CollectiveRetriever::output(int gpu) {
  PGASEMB_CHECK(gpu >= 0 && gpu < static_cast<int>(outputs_.size()),
                "bad gpu id ", gpu);
  return outputs_[static_cast<std::size_t>(gpu)];
}

void CollectiveRetriever::copyAllToAllPayload() {
  // Functional landing of the all-to-all: contiguous region per (src,
  // dst) pair, including the device-local self chunk.
  const auto& sh = layer_.sharding();
  const int p = sh.numGpus();
  const int dim = layer_.dim();
  for (int src = 0; src < p; ++src) {
    const auto send = send_buffers_[static_cast<std::size_t>(src)].span();
    const std::int64_t t_local = sh.tablesOn(src);
    for (int dst = 0; dst < p; ++dst) {
      auto recv = recv_buffers_[static_cast<std::size_t>(dst)].span();
      const std::int64_t len = t_local * sh.miniBatchSize(dst) * dim;
      const std::int64_t send_base =
          sh.miniBatchBegin(dst) * t_local * dim;
      const std::int64_t recv_base =
          sh.firstTableOn(src) * sh.miniBatchSize(dst) * dim;
      const bool compress =
          codec_ != nullptr && codec_->crossesNodes(src, dst);
      if (!compress) {
        std::copy_n(send.begin() + send_base, len,
                    recv.begin() + recv_base);
        continue;
      }
      // Cross-node chunks really pass through the codec (the region is
      // [local table][dst-local sample][col], so the table is recovered
      // from the position), landing the measured quantization error.
      const std::int64_t per_table = sh.miniBatchSize(dst) * dim;
      for (std::int64_t lt = 0; lt < t_local; ++lt) {
        const std::int64_t table = sh.firstTableOn(src) + lt;
        for (std::int64_t i = 0; i < per_table; ++i) {
          recv[static_cast<std::size_t>(recv_base + lt * per_table + i)] =
              codec_->transcode(
                  table,
                  send[static_cast<std::size_t>(send_base + lt * per_table +
                                                i)]);
        }
      }
    }
  }
}

BatchTiming CollectiveRetriever::runBatch(const emb::SparseBatch& batch) {
  auto& system = layer_.system();
  const auto& sharding = layer_.sharding();
  const int p = system.numGpus();
  const bool functional =
      system.mode() == gpu::ExecutionMode::kFunctional &&
      batch.materialized();
  BatchTiming timing;
  const SimTime t0 = system.hostNow();
  auto* san = system.sanitizer();
  const auto wholeBuffer = [](const gpu::DeviceBuffer& buf) {
    return simsan::StridedRange::contiguous(buf.offset(), buf.size());
  };

  if (p == 1) {
    // Single GPU: no layout conversion — the lookup writes the final
    // tensor directly (as PyTorch does without a process group). The
    // builder declares the kernel's write effect from the output view.
    auto fused =
        emb::buildFusedLookupKernel(layer_, batch, 0, &outputs_, /*slices=*/1);
    system.launchKernel(0, std::move(fused.desc));
    const SimTime t1 = system.syncAll();
    timing.compute_phase = t1 - t0;
    timing.total = t1 - t0;
    return timing;
  }

  // Optional replica-cache filter: hit bags are pooled from the local
  // replica by a serve kernel; only the misses are looked up, shipped
  // and unpacked.  runBatch() drains the timeline before returning, so
  // a per-batch filter is safe for the kernels to capture.
  std::optional<emb::CacheFilter> filter;
  if (cache_ != nullptr) {
    filter.emplace(layer_, batch, *cache_);
    timing.cache_lookups = filter->lookups();
    timing.cache_hits = filter->hits();
    timing.cache_saved_bytes = filter->savedWireBytes();
  }
  const emb::CacheFilter* f = filter ? &*filter : nullptr;

  // Phase 1: (probe +) lookup kernels into send buffers, plus the
  // replica serve kernel — all on the default stream (compute).
  send_matrix_.resize(static_cast<std::size_t>(p));
  for (auto& row : send_matrix_) {
    row.assign(static_cast<std::size_t>(p), 0);
  }
  auto& matrix = send_matrix_;
  for (int g = 0; g < p; ++g) {
    if (f != nullptr) {
      system.launchKernel(g, emb::buildCacheProbeKernel(layer_, *f, g));
    }
    auto kernel = emb::buildBaselineLookupKernel(
        layer_, batch, g, &send_buffers_[static_cast<std::size_t>(g)], f);
    for (int d = 0; d < p; ++d) {
      if (d != g) {
        matrix[static_cast<std::size_t>(g)][static_cast<std::size_t>(d)] =
            kernel.send_bytes[static_cast<std::size_t>(d)];
      }
    }
    system.launchKernel(g, std::move(kernel.desc));
    if (f != nullptr) {
      auto serve = emb::buildCacheServeKernel(
          layer_, batch, *f, g, &cache_->replica(g),
          &outputs_[static_cast<std::size_t>(g)]);
      system.launchKernel(g, std::move(serve));
    }
  }
  // Hierarchical all-to-all: each elected leader packs its own inter-node
  // contribution into its node's gather staging before the exchange
  // (other members' contributions arrive over NVLink inside the
  // collective itself). The route, asked at node n's host time (n * gpn
  // is the node's first GPU), hands back the standby's staging once a
  // leader-fail window has moved the node's leadership onto it.
  const bool hier = route_ != nullptr && route_->staged();
  const int gpn = hier ? route_->gpusPerNode() : p;
  if (hier) {
    for (int n = 0; n < route_->numNodes(); ++n) {
      const fault::HierStaging* stg =
          route_->staging(n, system.hostNow(n * gpn));
      const int leader = stg->device;
      std::int64_t bytes = 0;
      for (int d = 0; d < p; ++d) {
        if (d / gpn == n) continue;
        bytes += matrix[static_cast<std::size_t>(leader)]
                       [static_cast<std::size_t>(d)];
      }
      // The leader packs its own contribution into its local-rank slot
      // (slot 0 for the default leader, the standby's rank otherwise).
      const auto local = static_cast<std::size_t>(leader - n * gpn);
      system.launchKernel(
          leader, emb::buildLeaderGatherKernel(
                      layer_, n, leader,
                      local < stg->gather_slots.size()
                          ? stg->gather_slots[local]
                          : simsan::StridedRange{},
                      bytes));
    }
  }
  const SimTime t1 = system.syncAll();
  timing.compute_phase = t1 - t0;

  // Phase 2: all_to_all_single(async_op=True) + wait().
  collective::CollectiveMemory a2a_memory;
  if (san != nullptr) {
    a2a_memory.ranks.resize(static_cast<std::size_t>(p));
    for (int g = 0; g < p; ++g) {
      auto& rank = a2a_memory.ranks[static_cast<std::size_t>(g)];
      rank.device = g;
      rank.send = wholeBuffer(send_buffers_[static_cast<std::size_t>(g)]);
      rank.recv = wholeBuffer(recv_buffers_[static_cast<std::size_t>(g)]);
    }
  }
  auto request = comm_.allToAllSingle(
      matrix, functional ? [this] { copyAllToAllPayload(); }
                         : std::function<void()>(),
      nullptr, san != nullptr ? &a2a_memory : nullptr);
  const SimTime t2 = request.wait(system);
  timing.comm_phase = t2 - t1;
  timing.wire_time = request.completionTime() - request.startTime();

  // Hierarchical: each destination leader demultiplexes the landed
  // per-source-node recv staging before the ordinary unpack runs.
  if (hier) {
    for (int n = 0; n < route_->numNodes(); ++n) {
      const fault::HierStaging* stg =
          route_->staging(n, system.hostNow(n * gpn));
      const int leader = stg->device;
      std::int64_t bytes = 0;
      for (int s = 0; s < p; ++s) {
        if (s / gpn == n) continue;
        for (int d = n * gpn; d < (n + 1) * gpn; ++d) {
          bytes += matrix[static_cast<std::size_t>(s)]
                         [static_cast<std::size_t>(d)];
        }
      }
      simsan::StridedRange span{};
      if (!stg->recv_slots.empty()) {
        std::int64_t total = 0;
        for (const auto& slot : stg->recv_slots) total += slot.len;
        span = simsan::StridedRange::contiguous(
            stg->recv_slots.front().begin, total);
      }
      system.launchKernel(
          leader, emb::buildLeaderScatterKernel(layer_, n, leader, span,
                                                bytes));
    }
  }

  // Phase 3: unpack/rearrangement kernels + sync.
  for (int g = 0; g < p; ++g) {
    auto desc = emb::buildUnpackKernel(
        layer_, g, &recv_buffers_[static_cast<std::size_t>(g)],
        &outputs_[static_cast<std::size_t>(g)], f);
    system.launchKernel(g, std::move(desc));
  }
  const SimTime t3 = system.syncAll();
  timing.unpack_phase = t3 - t2;
  timing.total = t3 - t0;
  PGASEMB_ASSERT(sharding.numGpus() == p, "sharding/system mismatch");
  return timing;
}

namespace {
// Self-registration: the NCCL-collective baseline is created by name
// through the registry.
const RetrieverRegistrar kRegistrar{
    "nccl_collective",
    [](const SystemContext& ctx) -> std::unique_ptr<EmbeddingRetriever> {
      return std::make_unique<CollectiveRetriever>(
          ctx.layer, ctx.comm, ctx.cache, ctx.route, ctx.codec);
    }};
}  // namespace

}  // namespace pgasemb::core

// Linker anchor referenced by registry.cpp so this self-registering
// object survives static-archive selection (see registry.hpp).
extern "C" int pgasemb_retriever_link_nccl_collective() { return 0; }
