// Lookup+pooling kernel builders (paper §II-B and Listing 2).
//
// Both retrieval schemes run the same gather/pool compute; they differ in
// where results are written:
//  - baseline: into a local *send buffer* in all-to-all order (so NCCL
//    can ship contiguous chunks), later unpacked on the receiver;
//  - PGAS fused: directly into the (possibly remote) final output tensor
//    via one-sided writes issued as results are produced — no staging,
//    no unpack.
#pragma once

#include <cstdint>
#include <vector>

#include "emb/layer.hpp"
#include "fabric/compression.hpp"
#include "gpu/kernel.hpp"
#include "pgas/message_plan.hpp"
#include "simsan/access.hpp"

namespace pgasemb::emb {

class CacheFilter;  // replica_cache.hpp

/// Warp-coalesced one-sided message granularity (paper Figs 7/10 use
/// 256-byte units; one dim-64 fp32 embedding row is exactly 256 B).
inline constexpr std::int64_t kCoalescedMessageBytes = 256;

struct BaselineLookupKernel {
  gpu::KernelDesc desc;
  /// Payload bytes destined to each GPU (self entry = the local chunk,
  /// which moves as a device-local copy, not over the fabric).
  std::vector<std::int64_t> send_bytes;
};

/// Build GPU `gpu`'s baseline lookup kernel. `send_buffer` receives the
/// pooled embeddings laid out [dst][local table][dst-local sample][col];
/// pass it in every mode — the builder declares the kernel's simsan
/// write effect from it when a checker is attached and runs the
/// functional body only when the buffer is backed and the batch is
/// materialized.  With a cache `filter` only the miss bags are computed
/// and shipped (served bags never enter the send buffer); the filter
/// must outlive the kernel's execution.
BaselineLookupKernel buildBaselineLookupKernel(
    ShardedEmbeddingLayer& layer, const SparseBatch& batch, int gpu,
    gpu::DeviceBuffer* send_buffer, const CacheFilter* filter = nullptr);

struct FusedLookupKernel {
  gpu::KernelDesc desc;  ///< message plan not yet attached (PgasRuntime)
  pgas::MessagePlan plan;
  /// One-sided write footprints into the other GPUs' output tensors
  /// (device-address elements), declared by the builder when a checker
  /// is attached. Hand to PgasRuntime::attachMessagePlan, which logs
  /// them per delivered flow and rides them on KernelDesc::put_effects.
  std::vector<simsan::MemEffect> remote_writes;
};

/// Build GPU `gpu`'s PGAS fused lookup kernel. `outputs[d]` is GPU d's
/// final output tensor ([mini-batch sample][global table][col]); pass
/// the views in every mode — the builder declares the local write
/// effect and the remote put footprints from them when a checker is
/// attached, and runs the functional body (direct remote stores;
/// row-wise sharding accumulates partial sums instead) only when the
/// local view is backed and the batch is materialized.  With a cache
/// `filter` only the miss bags are computed and put — fewer one-sided
/// messages AND fewer per-message headers, so a shorter quiet; the
/// filter must outlive the kernel's execution.
/// With a `codec` the functional body really encodes/decodes values
/// whose destination lies on another node, so the landed outputs carry
/// the measured compression error (table-wise only; row-wise partial
/// sums don't compose with per-value bounds).
FusedLookupKernel buildFusedLookupKernel(
    ShardedEmbeddingLayer& layer, const SparseBatch& batch, int gpu,
    std::vector<gpu::DeviceBuffer>* outputs, int slices,
    const CacheFilter* filter = nullptr,
    fabric::InterNodeCodec* codec = nullptr);

/// Compute cost shared by both kernels (gather + pool + output writes).
SimTime lookupComputeTime(const ShardedEmbeddingLayer& layer,
                          const GpuLookupWork& work);

/// Offset (elements) of (local table, destination, dst-local sample)
/// within a baseline send buffer.
std::int64_t sendBufferIndex(const Sharding& sharding, int gpu,
                             std::int64_t local_table, std::int64_t sample,
                             int col, int dim);

/// Elements in GPU `gpu`'s baseline send buffer.
std::int64_t sendBufferElements(const Sharding& sharding, int gpu, int dim);

/// simsan footprint of GPU `src`'s fused-kernel writes into GPU `dst`'s
/// output tensor, in elements relative to the output buffer start.
/// Table-wise: one run per dst-local sample covering src's table block
/// ([sample][global table][col] layout).  Row-wise: every source
/// accumulates partial sums over the whole tensor.
simsan::StridedRange fusedWriteFootprint(const Sharding& sharding, int src,
                                         int dst, int dim);

}  // namespace pgasemb::emb
