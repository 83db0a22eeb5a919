// Inter-batch pipelined variant of the collective baseline.
//
// The natural systems rebuttal to the paper: even without PGAS, the
// baseline could hide its communication behind the NEXT batch's compute
// by double-buffering — lookup of batch i+1 runs on the compute stream
// while batch i's all-to-all rides a side communication stream and its
// unpack waits on an event. This retriever implements exactly that, so
// the benchmarks can quantify how much of the PGAS win survives the
// strongest software-pipelined baseline (answer: the unpack pass and the
// per-batch control path do — see bench_pipelined).
//
// Timing-only: double buffering recycles output tensors across in-flight
// batches, so the functional data plane is not supported here.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "collective/communicator.hpp"
#include "core/retriever.hpp"
#include "emb/replica_cache.hpp"
#include "gpu/gpu_event.hpp"

namespace pgasemb::core {

class PipelinedCollectiveRetriever final : public EmbeddingRetriever {
 public:
  /// `depth` = in-flight batches (2 = classic double buffering).
  /// `cache` (optional) filters each batch before it enters the
  /// pipeline: the lookup and all-to-all carry misses only, a serve
  /// kernel pools the hit bags on the compute stream.
  PipelinedCollectiveRetriever(emb::ShardedEmbeddingLayer& layer,
                               collective::Communicator& comm,
                               int depth = 2,
                               emb::ReplicaCache* cache = nullptr);
  ~PipelinedCollectiveRetriever() override;

  std::string name() const override { return "nccl_pipelined"; }

  /// Submits the batch into the pipeline and returns the host-time
  /// increment since the previous call — the amortized per-batch cost
  /// once the pipeline is warm. Call drain() after the last batch.
  BatchTiming runBatch(const emb::SparseBatch& batch) override;

  /// Waits for all in-flight batches; returns the final host time.
  SimTime drain();

  /// Shared-lifecycle epilogue: drains the pipeline and returns the
  /// host time the drain consumed beyond the last runBatch(). A no-op
  /// (zero, no sync charged) when nothing is in flight, so calling it
  /// twice is safe.
  SimTime finish() override;

  gpu::DeviceBuffer& output(int gpu) override;

 private:
  struct Slot {
    std::vector<gpu::DeviceBuffer> send;
    std::vector<gpu::DeviceBuffer> recv;
    std::vector<gpu::DeviceBuffer> out;
  };

  emb::ShardedEmbeddingLayer& layer_;
  collective::Communicator& comm_;
  int depth_;
  emb::ReplicaCache* cache_ = nullptr;
  // Cache filter of the current batch, then of the batch whose unpack
  // is pending (its unpack kernel is built one runBatch() later).
  std::unique_ptr<emb::CacheFilter> filter_;
  std::unique_ptr<emb::CacheFilter> pending_filter_;
  std::vector<Slot> slots_;
  std::vector<gpu::Stream*> comm_streams_;  // one per GPU
  // Per GPU, the all-to-all-done event of the batch that last used this
  // batch's slot (null when that batch is known complete); rewritten by
  // every runBatch().
  std::vector<gpu::GpuEvent*> slot_free_;
  // Events live until drain (the simulator may still reference them).
  // A full drain() retires every reference, so the table is released
  // there (see events_base_batch_) instead of growing for the whole run.
  std::vector<std::unique_ptr<gpu::GpuEvent>> events_;
  // Batch index events_[0] belongs to; events of earlier batches were
  // released at a drain() and are guaranteed complete.
  std::int64_t events_base_batch_ = 0;
  // Per-batch all-to-all byte matrix, reused across batches.
  std::vector<std::vector<std::int64_t>> send_matrix_;
  std::int64_t submitted_ = 0;
  std::int64_t drained_through_ = 0;  // submitted_ at the last drain()
  SimTime last_host_ = SimTime::zero();
  // Event-table base of the batch whose unpack is still pending (it is
  // enqueued only after the NEXT batch's lookup, so that lookup overlaps
  // this batch's all-to-all on the comm streams). -1 = none.
  std::int64_t pending_unpack_ev_base_ = -1;
  // Slot index of that pending batch (for simsan buffer attribution).
  std::int64_t pending_slot_ = -1;

  void enqueuePendingUnpack();
};

}  // namespace pgasemb::core
