#include "core/pipelined_retriever.hpp"

#include <algorithm>

#include "core/registry.hpp"
#include "emb/lookup_kernel.hpp"
#include "emb/unpack_kernel.hpp"
#include "util/expect.hpp"

namespace pgasemb::core {

PipelinedCollectiveRetriever::PipelinedCollectiveRetriever(
    emb::ShardedEmbeddingLayer& layer, collective::Communicator& comm,
    int depth, emb::ReplicaCache* cache)
    : layer_(layer), comm_(comm), depth_(depth), cache_(cache) {
  PGASEMB_CHECK(depth >= 1, "pipeline depth must be >= 1");
  PGASEMB_CHECK(layer.sharding().scheme() == emb::ShardingScheme::kTableWise,
                "pipelined baseline is table-wise only");
  PGASEMB_CHECK(layer.system().mode() == gpu::ExecutionMode::kTimingOnly,
                "the pipelined baseline recycles buffers across in-flight "
                "batches; use timing-only mode");
  auto& system = layer.system();
  const auto& sharding = layer.sharding();
  const int p = system.numGpus();
  const int dim = layer.dim();
  PGASEMB_CHECK(p > 1, "pipelining needs at least 2 GPUs");
  slots_.resize(static_cast<std::size_t>(depth));
  for (auto& slot : slots_) {
    for (int g = 0; g < p; ++g) {
      auto& dev = system.device(g);
      slot.send.push_back(
          dev.alloc(emb::sendBufferElements(sharding, g, dim)));
      slot.recv.push_back(
          dev.alloc(emb::recvBufferElements(sharding, g, dim)));
      slot.out.push_back(dev.alloc(sharding.outputElements(g, dim)));
    }
  }
  for (int g = 0; g < p; ++g) {
    comm_streams_.push_back(&system.createStream(g, "comm"));
  }
  slot_free_.resize(static_cast<std::size_t>(p));
}

PipelinedCollectiveRetriever::~PipelinedCollectiveRetriever() {
  auto& system = layer_.system();
  for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
    for (int g = system.numGpus() - 1; g >= 0; --g) {
      system.device(g).free(it->out[static_cast<std::size_t>(g)]);
      system.device(g).free(it->recv[static_cast<std::size_t>(g)]);
      system.device(g).free(it->send[static_cast<std::size_t>(g)]);
    }
  }
}

gpu::DeviceBuffer& PipelinedCollectiveRetriever::output(int gpu) {
  PGASEMB_CHECK(!slots_.empty(), "no slots");
  auto& out = slots_[static_cast<std::size_t>(
                         (submitted_ > 0 ? submitted_ - 1 : 0) % depth_)]
                  .out;
  PGASEMB_CHECK(gpu >= 0 && gpu < static_cast<int>(out.size()),
                "bad gpu id ", gpu);
  return out[static_cast<std::size_t>(gpu)];
}

BatchTiming PipelinedCollectiveRetriever::runBatch(
    const emb::SparseBatch& batch) {
  auto& system = layer_.system();
  const int p = system.numGpus();

  // Per-batch events: per-GPU kernel-done, per-GPU a2a-done.
  const std::size_t ev_base = events_.size();
  for (int i = 0; i < 2 * p; ++i) {
    events_.push_back(std::make_unique<gpu::GpuEvent>());
  }
  auto kernel_done = [&](int g) -> gpu::GpuEvent& {
    return *events_[ev_base + static_cast<std::size_t>(g)];
  };
  auto a2a_done = [&](int g) -> gpu::GpuEvent& {
    return *events_[ev_base + static_cast<std::size_t>(p + g)];
  };
  // The a2a of the batch that last used this slot must finish reading
  // the send buffer before the new lookup overwrites it.  Batches whose
  // events were released at a drain() are fully complete — their slot
  // needs no wait.
  std::fill(slot_free_.begin(), slot_free_.end(), nullptr);
  if (submitted_ >= depth_ && submitted_ - depth_ >= events_base_batch_) {
    const std::size_t old_base =
        static_cast<std::size_t>(submitted_ - depth_ - events_base_batch_) *
        2 * static_cast<std::size_t>(p);
    for (int g = 0; g < p; ++g) {
      slot_free_[static_cast<std::size_t>(g)] =
          events_[old_base + static_cast<std::size_t>(p + g)].get();
    }
  }

  auto* san = system.sanitizer();
  Slot& slot = slots_[static_cast<std::size_t>(submitted_ % depth_)];
  const auto wholeBuffer = [](const gpu::DeviceBuffer& buf) {
    return simsan::StridedRange::contiguous(buf.offset(), buf.size());
  };

  // Optional replica-cache filter: the pipeline carries misses only.
  // The filter must outlive this runBatch() — the batch's unpack kernel
  // is built one call later — so it is kept until then (filter_ ->
  // pending_filter_ below).
  BatchTiming cache_counters;
  if (cache_ != nullptr) {
    filter_ = std::make_unique<emb::CacheFilter>(layer_, batch, *cache_);
    cache_counters.cache_lookups = filter_->lookups();
    cache_counters.cache_hits = filter_->hits();
    cache_counters.cache_saved_bytes = filter_->savedWireBytes();
  }
  const emb::CacheFilter* f = filter_.get();

  send_matrix_.resize(static_cast<std::size_t>(p));
  for (auto& row : send_matrix_) {
    row.assign(static_cast<std::size_t>(p), 0);
  }
  auto& matrix = send_matrix_;
  for (int g = 0; g < p; ++g) {
    // Slot buffers are recycled across in-flight batches, so the slot —
    // not the builder's caller-agnostic default — names this batch's
    // send buffer for the kernel's declared write effect.
    auto kernel = emb::buildBaselineLookupKernel(
        layer_, batch, g, &slot.send[static_cast<std::size_t>(g)], f);
    for (int d = 0; d < p; ++d) {
      if (d != g) {
        matrix[static_cast<std::size_t>(g)][static_cast<std::size_t>(d)] =
            kernel.send_bytes[static_cast<std::size_t>(d)];
      }
    }
    auto& stream = system.stream(g);
    if (gpu::GpuEvent* slot_free = slot_free_[static_cast<std::size_t>(g)]) {
      stream.enqueueWaitEvent(system.hostNow(g), *slot_free);
    }
    if (f != nullptr) {
      system.launchKernel(g, emb::buildCacheProbeKernel(layer_, *f, g));
    }
    system.launchKernel(g, std::move(kernel.desc));
    stream.enqueueRecord(system.hostNow(g), kernel_done(g));
    // The collective (enqueued below on the comm stream) starts once
    // this GPU's lookup has produced its send buffer.
    comm_streams_[static_cast<std::size_t>(g)]->enqueueWaitEvent(
        system.hostNow(g), kernel_done(g));
    if (f != nullptr) {
      // Serve the hit bags on the compute stream while the all-to-all
      // of the misses rides the comm stream.
      auto serve = emb::buildCacheServeKernel(
          layer_, batch, *f, g, &cache_->replica(g),
          &slot.out[static_cast<std::size_t>(g)]);
      system.launchKernel(g, std::move(serve));
    }
  }

  collective::CollectiveMemory a2a_memory;
  if (san != nullptr) {
    a2a_memory.ranks.resize(static_cast<std::size_t>(p));
    for (int g = 0; g < p; ++g) {
      auto& rank = a2a_memory.ranks[static_cast<std::size_t>(g)];
      rank.device = g;
      rank.send = wholeBuffer(slot.send[static_cast<std::size_t>(g)]);
      rank.recv = wholeBuffer(slot.recv[static_cast<std::size_t>(g)]);
    }
  }
  comm_.allToAllSingle(matrix, nullptr, &comm_streams_,
                       san != nullptr ? &a2a_memory : nullptr);
  for (int g = 0; g < p; ++g) {
    comm_streams_[static_cast<std::size_t>(g)]->enqueueRecord(
        system.hostNow(g), a2a_done(g));
  }

  // Now — with this batch's lookup already on the compute streams, where
  // it overlaps the PREVIOUS batch's in-flight all-to-all — enqueue that
  // previous batch's unpack behind it.
  enqueuePendingUnpack();
  pending_unpack_ev_base_ = static_cast<std::int64_t>(ev_base);
  pending_slot_ = submitted_ % depth_;
  pending_filter_ = std::move(filter_);

  ++submitted_;
  // Host side only enqueues; the amortized batch time is (drain time -
  // start) / batches, measured by the caller.
  BatchTiming timing;
  timing.total = system.hostNow() - last_host_;
  timing.compute_phase = timing.total;
  timing.cache_lookups = cache_counters.cache_lookups;
  timing.cache_hits = cache_counters.cache_hits;
  timing.cache_saved_bytes = cache_counters.cache_saved_bytes;
  last_host_ = system.hostNow();
  return timing;
}

void PipelinedCollectiveRetriever::enqueuePendingUnpack() {
  if (pending_unpack_ev_base_ < 0) return;
  auto& system = layer_.system();
  const int p = system.numGpus();
  const std::size_t base =
      static_cast<std::size_t>(pending_unpack_ev_base_);
  Slot& slot = slots_[static_cast<std::size_t>(pending_slot_)];
  for (int g = 0; g < p; ++g) {
    system.stream(g).enqueueWaitEvent(
        system.hostNow(g),
        *events_[base + static_cast<std::size_t>(p + g)]);
    auto desc = emb::buildUnpackKernel(
        layer_, g, &slot.recv[static_cast<std::size_t>(g)],
        &slot.out[static_cast<std::size_t>(g)], pending_filter_.get());
    system.launchKernel(g, std::move(desc));
  }
  pending_unpack_ev_base_ = -1;
}

SimTime PipelinedCollectiveRetriever::drain() {
  enqueuePendingUnpack();
  const SimTime t = layer_.system().syncAll();
  last_host_ = t;
  drained_through_ = submitted_;
  // Everything enqueued so far has retired, so no stream op or pending
  // simulator event references the event table any more — release it
  // instead of letting it grow for the life of the run. Kept when the
  // sanitizer is attached: recorded events still carry release/acquire
  // provenance that later waits may join against.
  if (layer_.system().sanitizer() == nullptr) {
    events_.clear();
    events_base_batch_ = submitted_;
  }
  return t;
}

SimTime PipelinedCollectiveRetriever::finish() {
  if (submitted_ == drained_through_) return SimTime::zero();
  const SimTime before = last_host_;
  return drain() - before;
}

namespace {
const RetrieverRegistrar kRegistrar{
    "nccl_pipelined",
    [](const SystemContext& ctx) -> std::unique_ptr<EmbeddingRetriever> {
      return std::make_unique<PipelinedCollectiveRetriever>(
          ctx.layer, ctx.comm, ctx.pipeline_depth, ctx.cache);
    }};
}  // namespace

}  // namespace pgasemb::core

// Linker anchor referenced by registry.cpp so this self-registering
// object survives static-archive selection (see registry.hpp).
extern "C" int pgasemb_retriever_link_nccl_pipelined() { return 0; }
