#include "engine/system_builder.hpp"

#include <algorithm>

#include "collective/communicator.hpp"
#include "emb/replica_cache.hpp"
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
    route_ = std::make_unique<fault::HierRoute>(*fabric_, injector_.get());
    comm_->setRoute(route_.get());
    runtime_->setRoute(route_.get());
  }
  if (sanitizer_ != nullptr) {
    // Table shards and other assembly-lifetime allocations are not leaks.
    sanitizer_->setBaseline();
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
