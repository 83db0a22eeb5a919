#include "engine/system_builder.hpp"

#include <algorithm>

#include "collective/communicator.hpp"
#include "emb/replica_cache.hpp"
#include "emb/staging_kernel.hpp"
#include "fabric/compression.hpp"
#include "fabric/fabric.hpp"
#include "fault/hier_route.hpp"
#include "fault/injector.hpp"
#include "pgas/runtime.hpp"
#include "simsan/checker.hpp"
#include "simsan/strict.hpp"
#include "util/expect.hpp"

namespace pgasemb::engine {

SystemBuilder::SystemBuilder(const ExperimentConfig& config)
    : config_(config) {
  build();
}

SystemBuilder::~SystemBuilder() = default;

void SystemBuilder::reset() {
  // Reverse construction order: the cache and the layer hold device
  // allocations, the runtime/communicator hold fabric endpoints. The
  // checker outlives the system so teardown frees still report into it.
  route_.reset();
  injector_.reset();
  for (auto& buffer : hier_buffers_) {
    buffer.device()->free(buffer);
  }
  hier_buffers_.clear();
  codec_.reset();
  cache_.reset();
  layer_.reset();
  runtime_.reset();
  comm_.reset();
  fabric_.reset();
  system_.reset();
  strict_.reset();
  sanitizer_.reset();
  build();
}

void SystemBuilder::build() {
  if (config_.simsan || config_.simsan_strict) {
    sanitizer_ = std::make_unique<simsan::Checker>();
    sanitizer_->seedBug(seeded_bug_);
  }
  if (config_.simsan_strict) {
    strict_ = std::make_unique<simsan::StrictEffects>();
  }
  const int nodes = std::max(config_.num_nodes, 1);
  const int per_node = config_.num_gpus / nodes;
  gpu::SystemConfig sys_cfg;
  sys_cfg.num_gpus = config_.num_gpus;
  sys_cfg.num_nodes = nodes;
  sys_cfg.node_barrier_latency = config_.inter_node_link.latency;
  sys_cfg.memory_capacity_bytes = config_.device_memory_bytes;
  sys_cfg.mode = config_.mode;
  sys_cfg.cost_model = config_.cost_model;
  sys_cfg.sanitizer = sanitizer_.get();
  sys_cfg.strict_effects = strict_.get();
  system_ = std::make_unique<gpu::MultiGpuSystem>(sys_cfg);

  std::unique_ptr<fabric::Topology> topo;
  if (config_.num_nodes > 0) {
    topo = std::make_unique<fabric::MultiNodeTopology>(
        config_.num_nodes, per_node, config_.link, config_.inter_node_link,
        config_.nic_shared_queue);
  } else {
    topo = std::make_unique<fabric::NvlinkAllToAllTopology>(config_.num_gpus,
                                                            config_.link);
  }
  fabric_ = std::make_unique<fabric::Fabric>(
      std::move(topo), config_.counter_bucket);

  comm_ = std::make_unique<collective::Communicator>(*system_, *fabric_);
  runtime_ = std::make_unique<pgas::PgasRuntime>(*system_, *fabric_);
  runtime_->setCoalescingEnabled(config_.coalesce_flows);
  layer_ = std::make_unique<emb::ShardedEmbeddingLayer>(
      *system_, config_.layer, config_.sharding);
  if (config_.cache_rows > 0) {
    cache_ = std::make_unique<emb::ReplicaCache>(*layer_, config_.cache_rows);
  }
  if (config_.compress_bound > 0.0 && nodes > 1) {
    // Per-table value range: every weight lies in [-1, 1) and a pooled
    // output sums at most max_pooling rows, so |v| < pooling (floor 1
    // for single-id tables).
    std::vector<double> ranges(
        static_cast<std::size_t>(config_.layer.total_tables));
    for (std::size_t t = 0; t < ranges.size(); ++t) {
      int pooling = config_.layer.max_pooling;
      if (t < config_.layer.table_max_pooling.size()) {
        pooling = config_.layer.table_max_pooling[t];
      }
      ranges[t] = static_cast<double>(std::max(pooling, 1));
    }
    codec_ = std::make_unique<fabric::InterNodeCodec>(
        std::move(ranges), config_.compress_bound, config_.compress_adaptive,
        nodes, per_node, config_.inter_node_link.bandwidth_bytes_per_sec,
        config_.counter_bucket);
  }
  comm_->setCodec(codec_.get());
  runtime_->setCodec(codec_.get());
  if (!config_.faults.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.faults);
    injector_->arm(*system_, *fabric_);
    runtime_->setFaultInjector(injector_.get());
    comm_->setFaultInjector(injector_.get());
  }
  if (config_.hierarchical_a2a && nodes > 1) {
    std::vector<fault::HierStaging> staging;
    std::vector<fault::HierStaging> standby;
    if (config_.sharding == emb::ShardingScheme::kTableWise) {
      buildHierStaging(nodes, per_node, staging, standby);
    }
    // Failover rebuild hook: replay the staging layout on the standby
    // leader as a real device kernel with declared write effects (raw
    // captures are rebuilt with the assembly on every reset()).
    auto* system = system_.get();
    auto* layer = layer_.get();
    auto rebuild = [system, layer](int node, const fault::HierStaging& stg) {
      std::vector<simsan::StridedRange> slots = stg.gather_slots;
      slots.insert(slots.end(), stg.recv_slots.begin(), stg.recv_slots.end());
      std::int64_t elems = 0;
      for (const auto& slot : slots) elems += slot.len;
      system->launchKernel(stg.device,
                           emb::buildStagingRebuildKernel(
                               *layer, node, stg.device, slots, elems * 4));
    };
    route_ = std::make_unique<fault::HierRoute>(
        *fabric_, injector_.get(), std::move(staging), std::move(standby),
        std::move(rebuild));
    comm_->setRoute(route_.get());
    runtime_->setRoute(route_.get());
  }
  if (sanitizer_ != nullptr) {
    // Table shards and other assembly-lifetime allocations are not leaks.
    sanitizer_->setBaseline();
  }
}

void SystemBuilder::buildHierStaging(
    int nodes, int gpus_per_node, std::vector<fault::HierStaging>& staging,
    std::vector<fault::HierStaging>& standby_staging) {
  const auto& sharding = layer_->sharding();
  const int dim = layer_->dim();
  const int num_gpus = config_.num_gpus;
  // Standby staging is provisioned only when the armed plan can move a
  // node's staging leadership and the node has a next healthy GPU to
  // move it to (the failover target, DESIGN.md §13).
  bool leader_fail = false;
  for (const auto& spec : config_.faults.specs) {
    if (spec.kind == fault::FaultKind::kLeaderFail) leader_fail = true;
  }
  const bool standby = leader_fail && gpus_per_node >= 2;
  staging.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    const int leader = n * gpus_per_node;
    // Gather staging: one slot per member holding its full inter-node
    // contribution; recv staging: one slot per source node. Sized from
    // the sharding's worst case, so cache-filtered (smaller) exchanges
    // stay inside the declared ranges.
    std::vector<std::int64_t> member_elems(
        static_cast<std::size_t>(gpus_per_node), 0);
    std::int64_t gather_total = 0;
    for (int local = 0; local < gpus_per_node; ++local) {
      const int g = leader + local;
      std::int64_t elems = 0;
      for (int dst = 0; dst < num_gpus; ++dst) {
        if (dst / gpus_per_node == n) continue;
        elems += sharding.tablesOn(g) * sharding.miniBatchSize(dst) * dim;
      }
      member_elems[static_cast<std::size_t>(local)] = elems;
      gather_total += elems;
    }
    std::vector<std::int64_t> src_elems(static_cast<std::size_t>(nodes), 0);
    std::int64_t recv_total = 0;
    for (int s = 0; s < nodes; ++s) {
      if (s == n) continue;
      std::int64_t elems = 0;
      for (int src = s * gpus_per_node; src < (s + 1) * gpus_per_node;
           ++src) {
        for (int dst = leader; dst < leader + gpus_per_node; ++dst) {
          elems += sharding.tablesOn(src) * sharding.miniBatchSize(dst) * dim;
        }
      }
      src_elems[static_cast<std::size_t>(s)] = elems;
      recv_total += elems;
    }
    // Identical layout on the default leader and (when provisioned) the
    // standby: one gather slot per member, one recv slot per source node.
    const auto carve = [&](int device) {
      auto buffer = system_->device(device).alloc(gather_total + recv_total);
      fault::HierStaging carved;
      carved.device = device;
      std::int64_t pos = buffer.offset();
      for (int local = 0; local < gpus_per_node; ++local) {
        const auto len = member_elems[static_cast<std::size_t>(local)];
        carved.gather_slots.push_back(
            simsan::StridedRange::contiguous(pos, len));
        pos += len;
      }
      for (int s = 0; s < nodes; ++s) {
        const auto len = src_elems[static_cast<std::size_t>(s)];
        carved.recv_slots.push_back(
            simsan::StridedRange::contiguous(pos, len));
        pos += len;
      }
      hier_buffers_.push_back(buffer);
      return carved;
    };
    staging.push_back(carve(leader));
    if (standby) standby_staging.push_back(carve(leader + 1));
  }
}

core::SystemContext SystemBuilder::context() {
  core::SystemContext ctx{*system_, *fabric_, *comm_, *runtime_, *layer_};
  ctx.pgas_slices = config_.pgas_slices;
  ctx.aggregator = config_.use_aggregator ? &config_.aggregator : nullptr;
  ctx.pipeline_depth = config_.pipeline_depth;
  ctx.cache = cache_.get();
  ctx.route = route_.get();
  ctx.codec = codec_.get();
  return ctx;
}

}  // namespace pgasemb::engine
