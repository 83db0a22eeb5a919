// MultiGpuSystem: the simulated multi-GPU machine.
//
// Owns the simulator, the devices, one default stream per device, and one
// host clock per node.  Host-side API calls (kernel launches, stream
// syncs) charge realistic CPU overheads to the clock of the host that
// drives the GPU — these are precisely the "communication control path"
// costs the paper attributes to the collective baseline (§III-A).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gpu/cost_model.hpp"
#include "gpu/device.hpp"
#include "gpu/stream.hpp"
#include "sim/simulator.hpp"

namespace pgasemb::gpu {

struct SystemConfig {
  int num_gpus = 4;
  /// Nodes the GPUs split into, evenly and in order. Each node has its
  /// own host, which drives only that node's GPUs.
  int num_nodes = 1;
  /// One round of the cross-node host barrier that ends syncAll() on more
  /// than one node (the inter-node link latency).
  SimTime node_barrier_latency = SimTime::zero();
  std::int64_t memory_capacity_bytes = 32LL * 1024 * 1024 * 1024;  // V100 32GB
  ExecutionMode mode = ExecutionMode::kTimingOnly;
  CostModel cost_model;
  /// Optional happens-before/bounds/lifetime checker (simsan). Not
  /// owned; must outlive the system. Null (the default) disables every
  /// hook — the simulation is bit-identical either way.
  simsan::Checker* sanitizer = nullptr;
  /// Optional strict-effects recorder (--simsan-strict): observed
  /// memory touches are checked against declared MemEffect footprints.
  /// Not owned; must outlive the system. Requires `sanitizer` (the
  /// findings surface through its Summary). Null disables every hook.
  simsan::StrictEffects* strict_effects = nullptr;
};

class MultiGpuSystem {
 public:
  explicit MultiGpuSystem(const SystemConfig& config);

  int numGpus() const { return static_cast<int>(devices_.size()); }
  ExecutionMode mode() const { return config_.mode; }
  const CostModel& costModel() const { return config_.cost_model; }

  sim::Simulator& simulator() { return simulator_; }
  Device& device(int id);
  Stream& stream(int id);

  /// The attached simsan checker, or null when checking is off.
  simsan::Checker* sanitizer() const { return config_.sanitizer; }

  /// The attached strict-effects recorder, or null (plain simsan / off).
  simsan::StrictEffects* strictEffects() const {
    return config_.strict_effects;
  }

  /// Create an extra stream on device `id` (e.g. a side stream for the
  /// data-parallel MLP so it time-shares with the EMB kernel).
  Stream& createStream(int id, const std::string& name);

  // --- Host clocks ---------------------------------------------------------
  //
  // One host (CPU) per node runs that node's launch and sync loops. The
  // hosts run in parallel and observe each other only at syncAll()'s
  // cross-node barrier and at a collective's wait. Host clocks only move
  // forward. With one node this is the single host of paper Listing 2.

  /// The latest host time over all nodes.
  SimTime hostNow() const;

  /// The time of the host that drives GPU `gpu`.
  SimTime hostNow(int gpu) const;

  /// Charge host CPU time to every node's host (input partitioning, ...).
  void hostAdvance(SimTime duration);

  /// Charge host CPU time to the host that drives GPU `gpu` (per-device
  /// API calls); returns that host's time after the call.
  SimTime hostAdvance(int gpu, SimTime duration);

  /// Block every host until `t` (a host already past it keeps its time).
  void hostWaitUntil(SimTime t);

  /// Launch a kernel on device `id`'s default stream; charges the launch
  /// overhead to the device's host and returns that host's time after
  /// the call.
  SimTime launchKernel(int id, KernelDesc desc);
  SimTime launchKernelOn(Stream& stream, KernelDesc desc);

  /// Fault-injection hook consulted before every kernel launch: returns
  /// the extra host time transient launch failures cost (zero = the
  /// launch succeeds first try). Null (the default) skips the hook
  /// entirely — the launch path is identical to a fault-free build.
  /// Installed by fault::FaultInjector.
  using LaunchFaultHook = std::function<SimTime(int device, SimTime host_now)>;
  void setLaunchFaultHook(LaunchFaultHook hook) {
    launch_fault_hook_ = std::move(hook);
  }

  /// cudaDeviceSynchronize loop (paper Listing 2), run by every node's
  /// host over its own GPUs; with more than one node it ends in a
  /// cross-node host barrier after which every host reads the same time.
  /// Returns that time.
  SimTime syncAll();

  /// Observer invoked at each kernel completion with
  /// (device id, kernel name, compute start, compute end, completion).
  /// Completion > compute end when an in-kernel quiet waited on remote
  /// deliveries. Used by the timeline/Chrome-trace exporters.
  using KernelObserver =
      std::function<void(int device, const std::string& name,
                         SimTime start, SimTime end, SimTime completion)>;
  void setKernelObserver(KernelObserver observer);

 private:
  KernelObserver kernel_observer_;
  LaunchFaultHook launch_fault_hook_;
  SystemConfig config_;
  sim::Simulator simulator_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::unique_ptr<Stream>> default_streams_;
  std::vector<std::unique_ptr<Stream>> extra_streams_;
  int gpus_per_node_ = 1;
  /// ceil(log2 nodes) rounds of the node barrier latency.
  SimTime node_barrier_ = SimTime::zero();
  std::vector<SimTime> hosts_;  ///< one clock per node

  std::size_t hostIndex(int gpu) const {
    return static_cast<std::size_t>(gpu / gpus_per_node_);
  }
};

}  // namespace pgasemb::gpu
