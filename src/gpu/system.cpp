#include "gpu/system.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace pgasemb::gpu {

MultiGpuSystem::MultiGpuSystem(const SystemConfig& config) : config_(config) {
  PGASEMB_CHECK(config.num_gpus >= 1, "need at least one GPU, got ",
                config.num_gpus);
  PGASEMB_CHECK(config.num_nodes >= 1 &&
                    config.num_gpus % config.num_nodes == 0,
                "num_gpus (", config.num_gpus,
                ") must split evenly across num_nodes (", config.num_nodes,
                ")");
  gpus_per_node_ = config.num_gpus / config.num_nodes;
  hosts_.assign(static_cast<std::size_t>(config.num_nodes), SimTime::zero());
  for (int span = 1; span < config.num_nodes; span *= 2) {
    node_barrier_ += config.node_barrier_latency;
  }
  devices_.reserve(static_cast<std::size_t>(config.num_gpus));
  default_streams_.reserve(static_cast<std::size_t>(config.num_gpus));
  for (int i = 0; i < config.num_gpus; ++i) {
    devices_.push_back(std::make_unique<Device>(
        i, config.memory_capacity_bytes, config.mode, config.sanitizer,
        config.strict_effects));
    default_streams_.push_back(std::make_unique<Stream>(
        simulator_, *devices_.back(), "gpu" + std::to_string(i) + ".default"));
    if (config.sanitizer != nullptr) {
      default_streams_.back()->enableSanitizer(*config.sanitizer);
    }
  }
}

Device& MultiGpuSystem::device(int id) {
  PGASEMB_CHECK(id >= 0 && id < numGpus(), "bad device id ", id);
  return *devices_[static_cast<std::size_t>(id)];
}

Stream& MultiGpuSystem::stream(int id) {
  PGASEMB_CHECK(id >= 0 && id < numGpus(), "bad device id ", id);
  return *default_streams_[static_cast<std::size_t>(id)];
}

Stream& MultiGpuSystem::createStream(int id, const std::string& name) {
  extra_streams_.push_back(std::make_unique<Stream>(
      simulator_, device(id), "gpu" + std::to_string(id) + "." + name));
  if (config_.sanitizer != nullptr) {
    extra_streams_.back()->enableSanitizer(*config_.sanitizer);
  }
  return *extra_streams_.back();
}

void MultiGpuSystem::setKernelObserver(KernelObserver observer) {
  kernel_observer_ = std::move(observer);
  for (auto& dev : devices_) {
    if (kernel_observer_) {
      dev->setKernelSpanObserver(
          [this, id = dev->id()](const std::string& name, SimTime start,
                                 SimTime end, SimTime completion) {
            kernel_observer_(id, name, start, end, completion);
          });
    } else {
      dev->setKernelSpanObserver(nullptr);
    }
  }
}

SimTime MultiGpuSystem::launchKernel(int id, KernelDesc desc) {
  return launchKernelOn(stream(id), std::move(desc));
}

SimTime MultiGpuSystem::hostNow() const {
  return *std::max_element(hosts_.begin(), hosts_.end());
}

SimTime MultiGpuSystem::hostNow(int gpu) const {
  PGASEMB_CHECK(gpu >= 0 && gpu < numGpus(), "bad device id ", gpu);
  return hosts_[hostIndex(gpu)];
}

void MultiGpuSystem::hostAdvance(SimTime duration) {
  for (auto& host : hosts_) host += duration;
}

SimTime MultiGpuSystem::hostAdvance(int gpu, SimTime duration) {
  PGASEMB_CHECK(gpu >= 0 && gpu < numGpus(), "bad device id ", gpu);
  return hosts_[hostIndex(gpu)] += duration;
}

void MultiGpuSystem::hostWaitUntil(SimTime t) {
  for (auto& host : hosts_) host = std::max(host, t);
}

SimTime MultiGpuSystem::launchKernelOn(Stream& stream, KernelDesc desc) {
  const int id = stream.device().id();
  SimTime& host = hosts_[hostIndex(id)];
  if (launch_fault_hook_) {
    // Transient launch failures: the host burns retry time before the
    // launch that finally sticks.
    host += launch_fault_hook_(id, host);
  }
  host += config_.cost_model.kernel_launch_overhead;
  stream.enqueueKernel(host, std::move(desc));
  return host;
}

SimTime MultiGpuSystem::syncAll() {
  simulator_.run();
  if (config_.sanitizer != nullptr) {
    // cudaDeviceSynchronize loop: every stream's history joins the host.
    for (const auto& s : default_streams_) {
      config_.sanitizer->joinActor(simsan::Checker::kHost,
                                   s->sanitizerActor());
    }
    for (const auto& s : extra_streams_) {
      config_.sanitizer->joinActor(simsan::Checker::kHost,
                                   s->sanitizerActor());
    }
  }
  // Each node's host waits for its own GPUs' streams, making one sync
  // call per GPU as in the paper's Listing 2 loop.
  const auto join = [this](Stream& s) {
    SimTime& host = hosts_[hostIndex(s.device().id())];
    host = std::max(host, s.lastCompletion());
  };
  for (const auto& s : default_streams_) join(*s);
  for (const auto& s : extra_streams_) join(*s);
  hostAdvance(config_.cost_model.stream_sync_overhead * gpus_per_node_);
  if (hosts_.size() > 1) {
    // Cross-node barrier of ceil(log2 nodes) rounds: it releases every
    // host once the last one has arrived.
    hostWaitUntil(hostNow() + node_barrier_);
  }
  return hostNow();
}

}  // namespace pgasemb::gpu
