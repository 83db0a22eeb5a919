#include "emb/replica_cache.hpp"

#include <algorithm>
#include <cmath>

#include "emb/lookup_kernel.hpp"
#include "emb/workload.hpp"
#include "util/expect.hpp"

namespace pgasemb::emb {

ReplicaCache::ReplicaCache(ShardedEmbeddingLayer& layer,
                           std::int64_t capacity_rows)
    : layer_(layer) {
  PGASEMB_CHECK(capacity_rows >= 1, "replica cache needs capacity >= 1");
  PGASEMB_CHECK(layer.sharding().scheme() == ShardingScheme::kTableWise,
                "the replica cache filters table-wise exchanges; row-wise "
                "sharding already spreads every row");
  const auto& spec = layer.spec();
  capacity_rows_ = std::min<std::int64_t>(
      capacity_rows, static_cast<std::int64_t>(spec.index_space));
  index_hit_rate_ =
      spec.zipf_alpha > 0.0
          ? zipfTopMass(spec.index_space, spec.zipf_alpha,
                        static_cast<std::uint64_t>(capacity_rows_))
          : static_cast<double>(capacity_rows_) /
                static_cast<double>(spec.index_space);
  auto& system = layer.system();
  const std::int64_t elements =
      spec.total_tables * capacity_rows_ * spec.dim;
  for (int g = 0; g < system.numGpus(); ++g) {
    replicas_.push_back(system.device(g).alloc(elements));
  }
}

ReplicaCache::~ReplicaCache() {
  auto& system = layer_.system();
  for (int g = system.numGpus() - 1; g >= 0; --g) {
    system.device(g).free(replicas_[static_cast<std::size_t>(g)]);
  }
}

const gpu::DeviceBuffer& ReplicaCache::replica(int gpu) const {
  PGASEMB_CHECK(gpu >= 0 && gpu < static_cast<int>(replicas_.size()),
                "bad gpu id ", gpu);
  return replicas_[static_cast<std::size_t>(gpu)];
}

CacheFilter::CacheFilter(const ShardedEmbeddingLayer& layer,
                         const SparseBatch& batch, const ReplicaCache& cache)
    : layer_(layer), materialized_(batch.materialized()) {
  const auto& sharding = layer.sharding();
  const auto& spec = batch.spec();
  const int p = sharding.numGpus();
  const std::int64_t tables = spec.num_tables;
  const std::int64_t batch_size = spec.batch_size;
  const double out_bytes = static_cast<double>(layer.dim()) * 4.0;

  std::vector<std::vector<double>> miss_out(
      static_cast<std::size_t>(p),
      std::vector<double>(static_cast<std::size_t>(p), 0.0));
  std::vector<double> serve_out(static_cast<std::size_t>(p), 0.0);
  std::vector<double> miss_rows(static_cast<std::size_t>(p), 0.0);
  std::vector<double> serve_rows(static_cast<std::size_t>(p), 0.0);
  probed_.assign(static_cast<std::size_t>(p), 0.0);

  if (materialized_) {
    served_.resize(static_cast<std::size_t>(tables));
    for (std::int64_t t = 0; t < tables; ++t) {
      const int owner = sharding.tableOwner(t);
      auto& served = served_[static_cast<std::size_t>(t)];
      served.assign(static_cast<std::size_t>(batch_size), 0);
      const auto offs = batch.offsets(t);
      const auto idxs = batch.indices(t);
      for (std::int64_t s = 0; s < batch_size; ++s) {
        const std::int64_t lo = offs[static_cast<std::size_t>(s)];
        const std::int64_t hi = offs[static_cast<std::size_t>(s) + 1];
        const double bag = static_cast<double>(hi - lo);
        bool all_hot = true;
        for (std::int64_t i = lo; i < hi; ++i) {
          all_hot = all_hot &&
                    cache.hitsIndex(idxs[static_cast<std::size_t>(i)]);
        }
        const int dst = sharding.sampleOwner(s);
        // Both sides classify the bag: the owner partitions its tables'
        // full batch, the destination its mini-batch across all tables.
        probed_[static_cast<std::size_t>(owner)] += bag;
        probed_[static_cast<std::size_t>(dst)] += bag;
        lookups_ += bag;
        if (all_hot) {
          served[static_cast<std::size_t>(s)] = 1;
          serve_out[static_cast<std::size_t>(dst)] += 1.0;
          serve_rows[static_cast<std::size_t>(dst)] += bag;
          hits_ += bag;
          if (dst != owner) saved_wire_bytes_ += out_bytes;
        } else {
          miss_out[static_cast<std::size_t>(owner)]
                  [static_cast<std::size_t>(dst)] += 1.0;
          miss_rows[static_cast<std::size_t>(owner)] += bag;
        }
      }
    }
  } else {
    // Statistical batch: per-table expectations over the pooling
    // distribution. With index-hit probability h, a bag of L indices is
    // served with probability h^L (empty bags trivially), so
    //   P(bag served)          = E[h^L]
    //   E[rows served per bag] = E[L h^L]
    // over L ~ U(min_pooling, maxPoolingOf(t)).  Padded samples past the
    // serving fill (spec.activeSamples(); the mini-batches are
    // contiguous sample ranges, so the first destinations hold the
    // active samples) are NULL bags: trivially served with zero rows,
    // exactly the materialized empty-bag case.
    const double h = cache.indexHitRate();
    const std::int64_t active = spec.activeSamples();
    for (std::int64_t t = 0; t < tables; ++t) {
      const int owner = sharding.tableOwner(t);
      const int m = spec.min_pooling;
      const int M = spec.maxPoolingOf(t);
      double bag_hit = 0.0;
      double hit_rows = 0.0;
      for (int L = m; L <= M; ++L) {
        const double hl = std::pow(h, L);
        bag_hit += hl;
        hit_rows += static_cast<double>(L) * hl;
      }
      const double range = static_cast<double>(M - m + 1);
      bag_hit /= range;
      hit_rows /= range;
      const double avg = spec.avgPoolingOf(t);
      const double a = static_cast<double>(active);
      for (int d = 0; d < p; ++d) {
        const std::int64_t mb = sharding.miniBatchSize(d);
        const std::int64_t active_d = std::clamp<std::int64_t>(
            active - sharding.miniBatchBegin(d), 0, mb);
        const double ad = static_cast<double>(active_d);
        const double pad = static_cast<double>(mb - active_d);
        miss_out[static_cast<std::size_t>(owner)]
                [static_cast<std::size_t>(d)] += ad * (1.0 - bag_hit);
        serve_out[static_cast<std::size_t>(d)] += ad * bag_hit + pad;
        serve_rows[static_cast<std::size_t>(d)] += ad * hit_rows;
        probed_[static_cast<std::size_t>(d)] += ad * avg;
        if (d != owner) {
          saved_wire_bytes_ += (ad * bag_hit + pad) * out_bytes;
        }
      }
      miss_rows[static_cast<std::size_t>(owner)] += a * (avg - hit_rows);
      probed_[static_cast<std::size_t>(owner)] += a * avg;
      lookups_ += a * avg;
      hits_ += a * hit_rows;
    }
  }

  miss_work_.resize(static_cast<std::size_t>(p));
  serve_work_.resize(static_cast<std::size_t>(p));
  for (int g = 0; g < p; ++g) {
    auto& miss = miss_work_[static_cast<std::size_t>(g)];
    miss.gathered_rows = miss_rows[static_cast<std::size_t>(g)];
    miss.outputs_to.assign(static_cast<std::size_t>(p), 0);
    for (int d = 0; d < p; ++d) {
      miss.outputs_to[static_cast<std::size_t>(d)] = std::llround(
          miss_out[static_cast<std::size_t>(g)][static_cast<std::size_t>(d)]);
    }
    auto& serve = serve_work_[static_cast<std::size_t>(g)];
    serve.gathered_rows = serve_rows[static_cast<std::size_t>(g)];
    serve.outputs_to.assign(static_cast<std::size_t>(p), 0);
    serve.outputs_to[static_cast<std::size_t>(g)] =
        std::llround(serve_out[static_cast<std::size_t>(g)]);
  }
}

const GpuLookupWork& CacheFilter::missWork(int gpu) const {
  PGASEMB_CHECK(gpu >= 0 && gpu < static_cast<int>(miss_work_.size()),
                "bad gpu id ", gpu);
  return miss_work_[static_cast<std::size_t>(gpu)];
}

const GpuLookupWork& CacheFilter::serveWork(int gpu) const {
  PGASEMB_CHECK(gpu >= 0 && gpu < static_cast<int>(serve_work_.size()),
                "bad gpu id ", gpu);
  return serve_work_[static_cast<std::size_t>(gpu)];
}

double CacheFilter::probedIndices(int gpu) const {
  PGASEMB_CHECK(gpu >= 0 && gpu < static_cast<int>(probed_.size()),
                "bad gpu id ", gpu);
  return probed_[static_cast<std::size_t>(gpu)];
}

bool CacheFilter::bagServed(std::int64_t table, std::int64_t sample) const {
  PGASEMB_CHECK(materialized_, "bagServed() on a statistical filter");
  PGASEMB_CHECK(table >= 0 &&
                    table < static_cast<std::int64_t>(served_.size()),
                "bad table id ", table);
  const auto& served = served_[static_cast<std::size_t>(table)];
  PGASEMB_CHECK(sample >= 0 &&
                    sample < static_cast<std::int64_t>(served.size()),
                "bad sample id ", sample);
  return served[static_cast<std::size_t>(sample)] != 0;
}

gpu::KernelDesc buildCacheProbeKernel(const ShardedEmbeddingLayer& layer,
                                      const CacheFilter& filter, int gpu) {
  const auto& cm = layer.system().costModel();
  gpu::KernelDesc desc;
  desc.name = "emb_cache_probe.gpu" + std::to_string(gpu);
  desc.duration = cm.cacheProbeTime(filter.probedIndices(gpu));
  return desc;
}

gpu::KernelDesc buildCacheServeKernel(ShardedEmbeddingLayer& layer,
                                      const SparseBatch& batch,
                                      const CacheFilter& filter, int gpu,
                                      const gpu::DeviceBuffer* replica,
                                      gpu::DeviceBuffer* output) {
  gpu::KernelDesc desc;
  desc.name = "emb_cache_serve.gpu" + std::to_string(gpu);
  desc.duration = lookupComputeTime(layer, filter.serveWork(gpu));

  if (replica != nullptr && output != nullptr &&
      layer.system().sanitizer() != nullptr) {
    desc.mem_effects.push_back(
        {gpu,
         simsan::StridedRange::contiguous(replica->offset(),
                                          replica->size()),
         simsan::AccessKind::kRead, ""});
    desc.mem_effects.push_back(
        {gpu,
         simsan::StridedRange::contiguous(output->offset(), output->size()),
         simsan::AccessKind::kWrite, ""});
  }
  if (output != nullptr && output->backed() && batch.materialized()) {
    desc.functional_body = [&layer, &batch, &filter, gpu, output] {
      // The replica holds bit-identical copies of the hot rows, so
      // pooling through the table yields exactly the served value.
      const auto& sh = layer.sharding();
      const int dim = layer.dim();
      auto out = output->span();
      const std::int64_t mb = sh.miniBatchSize(gpu);
      const std::int64_t b0 = sh.miniBatchBegin(gpu);
      for (std::int64_t t = 0; t < sh.totalTables(); ++t) {
        for (std::int64_t s = 0; s < mb; ++s) {
          if (!filter.bagServed(t, b0 + s)) continue;
          const auto pooled = layer.pooledValue(batch, t, b0 + s);
          for (int c = 0; c < dim; ++c) {
            out[static_cast<std::size_t>(
                sh.outputIndex(b0 + s, t, c, dim))] =
                pooled[static_cast<std::size_t>(c)];
          }
        }
      }
    };
  }
  return desc;
}

}  // namespace pgasemb::emb
