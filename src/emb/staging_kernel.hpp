// Leader staging kernel builders for the hierarchical all-to-all
// (DESIGN.md §12).
//
// The collective retriever, which owns the leader staging, runs two small
// device kernels on each node's leader around the collective:
//  - emb_hier_gather: packs the leader's own inter-node contributions
//    from its send buffer into its slot of the node's gather staging
//    buffer (other members' contributions arrive over NVLink as part of
//    the collective's gather hop);
//  - emb_hier_scatter: demultiplexes the per-source-node recv staging
//    after the aggregated inter-node flows have landed, feeding the
//    ordinary unpack path;
// and, after a leader failover, emb_hier_rebuild on the standby before
// its first gather.
//
// All three are plain streaming kernels (duration from
// CostModel::streamKernelTime) and declare their staging-buffer effects
// so simsan and pgaslint's kernel-mem-effects rule can hold them to the
// same bar as the lookup kernels.
#pragma once

#include <cstdint>

#include "emb/layer.hpp"
#include "gpu/device.hpp"
#include "gpu/kernel.hpp"

namespace pgasemb::emb {

/// Leader kernel packing `bytes` of the leader's own inter-node
/// contributions into its gather slot (`slot` is the slot's range within
/// `device`'s address space).
gpu::KernelDesc buildLeaderGatherKernel(ShardedEmbeddingLayer& layer,
                                        int node, int device,
                                        const simsan::StridedRange& slot,
                                        std::int64_t bytes);

/// Leader kernel demultiplexing `bytes` of landed inter-node traffic out
/// of the node's recv staging (`staging` spans every per-source slot).
gpu::KernelDesc buildLeaderScatterKernel(ShardedEmbeddingLayer& layer,
                                         int node, int device,
                                         const simsan::StridedRange& staging,
                                         std::int64_t bytes);

/// Standby-leader kernel replaying the node's staging layout after a
/// leader failover (DESIGN.md §13): re-initializes the whole staging
/// (`staging`, every gather and recv slot) on the new leader before the
/// batch's gather. The exchange that writes into it waits for it: behind
/// the host sync at depth 1, on an event at depth >= 2.
gpu::KernelDesc buildStagingRebuildKernel(ShardedEmbeddingLayer& layer,
                                          int node, int device,
                                          const simsan::StridedRange& staging,
                                          std::int64_t bytes);

}  // namespace pgasemb::emb
