#include "emb/lookup_kernel.hpp"

#include "emb/replica_cache.hpp"
#include "util/expect.hpp"

namespace pgasemb::emb {

SimTime lookupComputeTime(const ShardedEmbeddingLayer& layer,
                          const GpuLookupWork& work) {
  const auto& cm = layer.system().costModel();
  const double dim = static_cast<double>(layer.dim());
  const double outputs = static_cast<double>(work.totalOutputs());
  // CSR offsets + raw indices + gathered rows + pooled output writes.
  const double bytes = outputs * 8.0 + work.gathered_rows * 8.0 +
                       work.gathered_rows * dim * 4.0 +
                       outputs * dim * 4.0;
  const double flops = work.gathered_rows * dim;
  return cm.gatherKernelTime(flops, bytes, work.gathered_rows);
}

std::int64_t sendBufferElements(const Sharding& sharding, int gpu,
                                int dim) {
  return sharding.tablesOn(gpu) * sharding.batchSize() * dim;
}

std::int64_t sendBufferIndex(const Sharding& sharding, int gpu,
                             std::int64_t local_table, std::int64_t sample,
                             int col, int dim) {
  const int dst = sharding.sampleOwner(sample);
  const std::int64_t t_local_count = sharding.tablesOn(gpu);
  const std::int64_t region_base =
      sharding.miniBatchBegin(dst) * t_local_count;
  const std::int64_t in_region =
      local_table * sharding.miniBatchSize(dst) +
      (sample - sharding.miniBatchBegin(dst));
  return (region_base + in_region) * dim + col;
}

BaselineLookupKernel buildBaselineLookupKernel(
    ShardedEmbeddingLayer& layer, const SparseBatch& batch, int gpu,
    gpu::DeviceBuffer* send_buffer, const CacheFilter* filter) {
  const auto& sharding = layer.sharding();
  PGASEMB_CHECK(sharding.scheme() == ShardingScheme::kTableWise,
                "baseline send-buffer layout is table-wise only");
  const GpuLookupWork work =
      filter ? filter->missWork(gpu) : layer.lookupWork(batch, gpu);
  const int p = sharding.numGpus();
  const int dim = layer.dim();

  BaselineLookupKernel out;
  out.desc.name = "emb_lookup_baseline.gpu" + std::to_string(gpu);
  out.desc.duration = lookupComputeTime(layer, work);
  out.send_bytes.resize(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    out.send_bytes[static_cast<std::size_t>(d)] =
        work.outputs_to[static_cast<std::size_t>(d)] * dim * 4;
  }

  if (send_buffer != nullptr) {
    PGASEMB_CHECK(send_buffer->size() >=
                      sendBufferElements(sharding, gpu, dim),
                  "send buffer too small");
    if (layer.system().sanitizer() != nullptr) {
      out.desc.mem_effects.push_back(
          {gpu,
           simsan::StridedRange::contiguous(send_buffer->offset(),
                                            send_buffer->size()),
           simsan::AccessKind::kWrite, ""});
    }
  }
  if (send_buffer != nullptr && send_buffer->backed() &&
      batch.materialized()) {
    out.desc.functional_body = [&layer, &batch, gpu, send_buffer, filter] {
      const auto& sh = layer.sharding();
      const std::int64_t first = sh.firstTableOn(gpu);
      const std::int64_t count = sh.tablesOn(gpu);
      auto dst_span = send_buffer->span();
      for (std::int64_t lt = 0; lt < count; ++lt) {
        for (std::int64_t b = 0; b < sh.batchSize(); ++b) {
          if (filter && filter->bagServed(first + lt, b)) continue;
          const auto pooled = layer.pooledValue(batch, first + lt, b);
          for (int c = 0; c < layer.dim(); ++c) {
            dst_span[static_cast<std::size_t>(
                sendBufferIndex(sh, gpu, lt, b, c, layer.dim()))] =
                pooled[static_cast<std::size_t>(c)];
          }
        }
      }
    };
  }
  return out;
}

FusedLookupKernel buildFusedLookupKernel(
    ShardedEmbeddingLayer& layer, const SparseBatch& batch, int gpu,
    std::vector<gpu::DeviceBuffer>* outputs, int slices,
    const CacheFilter* filter, fabric::InterNodeCodec* codec) {
  PGASEMB_CHECK(slices >= 1, "need at least one slice");
  const auto& sharding = layer.sharding();
  PGASEMB_CHECK(filter == nullptr ||
                    sharding.scheme() == ShardingScheme::kTableWise,
                "the replica cache is table-wise only");
  PGASEMB_CHECK(codec == nullptr ||
                    sharding.scheme() == ShardingScheme::kTableWise,
                "inter-node compression is table-wise only");
  const GpuLookupWork work =
      filter ? filter->missWork(gpu) : layer.lookupWork(batch, gpu);
  const int p = sharding.numGpus();
  const int dim = layer.dim();

  FusedLookupKernel out;
  out.desc.name = "emb_lookup_pgas_fused.gpu" + std::to_string(gpu);
  out.desc.duration = lookupComputeTime(layer, work);

  std::vector<std::int64_t> payload(static_cast<std::size_t>(p), 0);
  for (int d = 0; d < p; ++d) {
    payload[static_cast<std::size_t>(d)] =
        work.outputs_to[static_cast<std::size_t>(d)] * dim * 4;
  }
  out.plan = pgas::makeUniformPlan(payload, gpu, slices,
                                   kCoalescedMessageBytes);

  const bool row_wise = sharding.scheme() == ShardingScheme::kRowWise;
  if (outputs != nullptr) {
    PGASEMB_CHECK(static_cast<int>(outputs->size()) == p,
                  "need one output tensor per GPU");
    if (layer.system().sanitizer() != nullptr) {
      // Local slice of the fused write runs under the stream actor; the
      // one-sided remote writes run under the kernel's put actor until
      // quiet joins them back (PgasRuntime::attachMessagePlan).
      for (int d = 0; d < p; ++d) {
        auto range = fusedWriteFootprint(sharding, gpu, d, dim);
        range.begin += (*outputs)[static_cast<std::size_t>(d)].offset();
        if (d == gpu) {
          out.desc.mem_effects.push_back(
              {d, range,
               row_wise ? simsan::AccessKind::kAtomicAdd
                        : simsan::AccessKind::kWrite,
               ""});
        } else {
          out.remote_writes.push_back(
              {d, range,
               row_wise ? simsan::AccessKind::kAtomicAdd
                        : simsan::AccessKind::kRemoteWrite,
               out.desc.name + ".put"});
        }
      }
    }
  }
  if (outputs != nullptr &&
      (*outputs)[static_cast<std::size_t>(gpu)].backed() &&
      batch.materialized()) {
    out.desc.functional_body = [&layer, &batch, gpu, outputs, row_wise,
                                filter, codec] {
      const auto& sh = layer.sharding();
      const int dim2 = layer.dim();
      const std::int64_t first =
          row_wise ? 0 : sh.firstTableOn(gpu);
      const std::int64_t count =
          row_wise ? sh.totalTables() : sh.tablesOn(gpu);
      for (std::int64_t lt = 0; lt < count; ++lt) {
        const std::int64_t t = first + lt;
        for (std::int64_t b = 0; b < sh.batchSize(); ++b) {
          if (filter && filter->bagServed(t, b)) continue;
          const int dst = sh.sampleOwner(b);
          auto dst_span =
              (*outputs)[static_cast<std::size_t>(dst)].span();
          const auto pooled =
              row_wise ? layer.partialPooledValue(batch, t, b, gpu)
                       : layer.pooledValue(batch, t, b);
          // Puts leaving the node really go through the codec, so the
          // landed outputs carry the measured compression error.
          const bool compress =
              codec != nullptr && codec->crossesNodes(gpu, dst);
          for (int c = 0; c < dim2; ++c) {
            const auto idx = static_cast<std::size_t>(
                sh.outputIndex(b, t, c, dim2));
            const float v = compress
                                ? codec->transcode(
                                      t, pooled[static_cast<std::size_t>(c)])
                                : pooled[static_cast<std::size_t>(c)];
            // One-sided store for table-wise ownership; remote atomic
            // add for row-wise partial sums (paper §V).
            if (row_wise) {
              dst_span[idx] += v;
            } else {
              dst_span[idx] = v;
            }
          }
        }
      }
    };
  }
  return out;
}

simsan::StridedRange fusedWriteFootprint(const Sharding& sharding, int src,
                                         int dst, int dim) {
  if (sharding.scheme() == ShardingScheme::kRowWise) {
    // Row-wise partial sums touch every (sample, table) cell of dst.
    return simsan::StridedRange::contiguous(
        0, sharding.outputElements(dst, dim));
  }
  // Table-wise: dst's output is [mini-batch sample][global table][col];
  // src owns one contiguous table block, hit once per dst-local sample.
  return simsan::StridedRange{
      /*begin=*/sharding.firstTableOn(src) * dim,
      /*len=*/sharding.tablesOn(src) * dim,
      /*stride=*/sharding.totalTables() * dim,
      /*count=*/sharding.miniBatchSize(dst)};
}

}  // namespace pgasemb::emb
