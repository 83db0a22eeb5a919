#include "emb/staging_kernel.hpp"

#include "util/expect.hpp"

namespace pgasemb::emb {

gpu::KernelDesc buildLeaderGatherKernel(ShardedEmbeddingLayer& layer,
                                        int node, int device,
                                        const simsan::StridedRange& slot,
                                        std::int64_t bytes) {
  PGASEMB_CHECK(bytes >= 0, "negative gather staging size");
  gpu::KernelDesc desc;
  desc.name = "emb_hier_gather.node" + std::to_string(node);
  desc.duration = layer.system().costModel().streamKernelTime(
      static_cast<double>(bytes));
  if (layer.system().sanitizer() != nullptr && !slot.empty()) {
    desc.mem_effects.push_back(
        {device, slot, simsan::AccessKind::kWrite, ""});
  }
  return desc;
}

gpu::KernelDesc buildLeaderScatterKernel(ShardedEmbeddingLayer& layer,
                                         int node, int device,
                                         const simsan::StridedRange& staging,
                                         std::int64_t bytes) {
  PGASEMB_CHECK(bytes >= 0, "negative recv staging size");
  gpu::KernelDesc desc;
  desc.name = "emb_hier_scatter.node" + std::to_string(node);
  desc.duration = layer.system().costModel().streamKernelTime(
      static_cast<double>(bytes));
  if (layer.system().sanitizer() != nullptr && !staging.empty()) {
    desc.mem_effects.push_back(
        {device, staging, simsan::AccessKind::kRead, ""});
  }
  return desc;
}

gpu::KernelDesc buildStagingRebuildKernel(ShardedEmbeddingLayer& layer,
                                          int node, int device,
                                          const simsan::StridedRange& staging,
                                          std::int64_t bytes) {
  PGASEMB_CHECK(bytes >= 0, "negative rebuild staging size");
  gpu::KernelDesc desc;
  desc.name = "emb_hier_rebuild.node" + std::to_string(node);
  desc.duration = layer.system().costModel().streamKernelTime(
      static_cast<double>(bytes));
  if (layer.system().sanitizer() != nullptr && !staging.empty()) {
    desc.mem_effects.push_back(
        {device, staging, simsan::AccessKind::kWrite, ""});
  }
  return desc;
}

}  // namespace pgasemb::emb
