// Chrome-trace (chrome://tracing / Perfetto) exporter for the simulated
// timeline: kernel compute spans, in-kernel quiet tails, and wire flows
// per GPU pair.  Attach to a system + fabric before running, then write
// the JSON; the overlap structure of the two retrieval schemes becomes
// directly visible.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/fabric.hpp"
#include "fault/plan.hpp"
#include "gpu/system.hpp"

namespace pgasemb::trace {

class ChromeTraceRecorder {
 public:
  /// Install observers on `system` and `fabric`. The recorder must
  /// outlive both (or detach() first).
  void attach(gpu::MultiGpuSystem& system, fabric::Fabric& fabric);

  /// Remove the observers.
  void detach();

  std::size_t kernelSpanCount() const { return kernels_.size(); }
  std::size_t flowCount() const { return flows_.size(); }

  /// Add marker spans for an armed fault plan (one lane, one span per
  /// materialized window) so degradation windows line up visually with
  /// the kernel and wire spans they perturb. Feed it
  /// FaultInjector::materialized().
  void markFaultWindows(const std::vector<fault::FaultSpec>& specs);

  /// Serialize to the Chrome trace-event JSON array format.
  std::string toJson() const;

  /// Write toJson() to `path`.
  void writeFile(const std::string& path) const;

  void clear();

 private:
  struct KernelSpan {
    int device;
    std::string name;
    SimTime start;
    SimTime end;
    SimTime completion;
  };
  struct FlowSpan {
    int src;
    int dst;
    std::int64_t bytes;
    std::int64_t messages;
    SimTime start;
    SimTime end;
  };

  gpu::MultiGpuSystem* system_ = nullptr;
  fabric::Fabric* fabric_ = nullptr;
  std::vector<KernelSpan> kernels_;
  std::vector<FlowSpan> flows_;
  std::vector<fault::FaultSpec> faults_;
};

}  // namespace pgasemb::trace
