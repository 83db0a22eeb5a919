// Kernel descriptor for the simulated CUDA runtime.
//
// A kernel occupies its device's compute resource for a precomputed
// duration (from the CostModel).  Its timeline is subdivided into
// `slices`; the PGAS layer uses the slice hook to inject one-sided
// messages *throughout* kernel execution, which is exactly the paper's
// fine-grained overlap mechanism.  `finalize` lets the PGAS layer stretch
// kernel completion to the last remote delivery (nvshmem_quiet
// semantics); for ordinary kernels completion equals compute end.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "simsan/access.hpp"
#include "util/time.hpp"

namespace pgasemb::gpu {

/// When each slice of one launch ends: slice `s` of a kernel whose
/// compute starts at `start` and lasts `duration` ends at
/// start + duration * (s + 1) / slices (whole picoseconds), so the last
/// slice ends exactly at compute end.
struct SliceClock {
  SimTime start;
  SimTime duration;
  int slices = 1;

  SimTime at(int s) const {
    return start + SimTime(duration.count() * (s + 1) / slices);
  }
};

struct KernelDesc {
  std::string name;

  /// Compute-resource occupancy (from CostModel::*KernelTime).
  SimTime duration = SimTime::zero();

  /// Number of timeline subdivisions; `on_slice` fires at the end of each.
  int slices = 1;

  /// Called at the end of slice `i` (0-based) at simulated time `at`,
  /// one simulator event per slice. Slice `slices - 1` fires exactly at
  /// compute end.
  std::function<void(int slice, SimTime at)> on_slice;

  /// Fast path, replacing on_slice's events when set (the PGAS runtime
  /// sets it only when provably safe): called once when compute starts
  /// with the launch's slice clock, it emits every slice itself, each at
  /// its original future time. Timing-identical only when nothing else
  /// can interleave with this kernel's flows between kernel start and
  /// compute end (dedicated pair links, no simsan/faults/counters — see
  /// PgasRuntime::attachMessagePlan).
  std::function<void(const SliceClock& clock)> on_launch;

  /// Host-side functional data-plane work, run once when the kernel
  /// starts. Null in timing-only mode.
  std::function<void()> functional_body;

  /// Maps compute-end time to kernel completion time (>= compute end).
  /// Used for in-kernel communication quiet; null means identity.
  std::function<SimTime(SimTime compute_end)> finalize;

  /// Declared memory footprint, logged under the launching stream's
  /// actor when the kernel starts (simsan only; empty when the checker
  /// is off). Remote one-sided writes are NOT listed here — the PGAS
  /// runtime logs those under its own put actor as slices deliver.
  std::vector<simsan::MemEffect> mem_effects;

  /// Declared one-sided put footprint (set by
  /// PgasRuntime::attachMessagePlan from the retriever's remote_writes;
  /// empty otherwise). Logged by the PGAS put actor, not the stream —
  /// kept on the descriptor so strict-effects mode can treat remote
  /// output ranges as declared while the functional body runs.
  std::vector<simsan::MemEffect> put_effects;
};

}  // namespace pgasemb::gpu
