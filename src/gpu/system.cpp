#include "gpu/system.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace pgasemb::gpu {

MultiGpuSystem::MultiGpuSystem(const SystemConfig& config) : config_(config) {
  PGASEMB_CHECK(config.num_gpus >= 1, "need at least one GPU, got ",
                config.num_gpus);
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

SimTime MultiGpuSystem::launchKernelOn(Stream& stream, KernelDesc desc) {
  if (launch_fault_hook_) {
    // Transient launch failures: the host burns retry time before the
    // launch that finally sticks.
    host_now_ += launch_fault_hook_(stream.device().id(), host_now_);
  }
  host_now_ += config_.cost_model.kernel_launch_overhead;
  stream.enqueueKernel(host_now_, std::move(desc));
  return host_now_;
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
  SimTime latest = host_now_;
  for (const auto& s : default_streams_) {
    latest = std::max(latest, s->lastCompletion());
  }
  for (const auto& s : extra_streams_) {
    latest = std::max(latest, s->lastCompletion());
  }
  // One sync call per device, as in the paper's Listing 2 loop.
  host_now_ = latest + config_.cost_model.stream_sync_overhead *
                           static_cast<std::int64_t>(devices_.size());
  return host_now_;
}

}  // namespace pgasemb::gpu
