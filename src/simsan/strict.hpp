// simsan strict-effects mode: shadow verification that a kernel's (or
// transfer's) *observed* simulated-memory touches stay inside its
// *declared* `MemEffect` footprint.
//
// Plain simsan trusts declarations — a kernel that under-declares its
// `mem_effects` silently hides accesses from the race checker (the
// exact failure mode fused computation-communication kernels make easy
// to write).  Strict mode closes that soundness gap with three shadow
// recorders, all passive with respect to simulated timing:
//
//   1. Kernel bodies: while a kernel's functional body runs, every
//      *mutable* `DeviceBuffer::span()` materialization is reported as
//      a touch of that buffer's range.  A touch with no overlapping
//      declared effect (mem_effects or attached put_effects) on that
//      device is an undeclared-effect violation naming the kernel and
//      the range.  (Reads go through the const span overload and are
//      not reported: tables are system-lifetime and read-shared.)
//   2. PGAS puts: each launch's logical flows are totaled per
//      destination and checked against the declared put footprint —
//      a flow to an undeclared destination, or cumulative payload
//      exceeding the declared byte budget (4 B per fp32 element),
//      fails naming the kernel, the destination, and the declared
//      range.  Retransmissions re-send the *same* logical flow, so
//      only the first attempt is counted.
//   3. Collectives: per-rank transfer bytes are checked against the
//      declared CollectiveMemory send/recv ranges; a payload-bearing
//      collective with no declared memory at all is itself a finding.
//      Control-plane transfers (<= kControlPlaneBytes, e.g. sync
//      flags) are exempt.
//
// Violations surface through the owning Checker's Summary as
// `undeclared-effect` entries (mergeInto), so they fail the same
// `clean()` gate tests and benches already use.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "simsan/access.hpp"
#include "simsan/checker.hpp"

namespace pgasemb::simsan {

class StrictEffects;

/// Per-kernel-launch tracker for one-sided put flows (recorder #2).
/// Created by PgasRuntime::attachMessagePlan when strict mode is on and
/// shared by the per-slice flow closures.
class StrictPutTracker {
 public:
  /// Reports one logical flow of `payload_bytes` to `dst`.
  void flow(int dst, std::int64_t payload_bytes);

 private:
  friend class StrictEffects;
  StrictPutTracker(StrictEffects* owner, std::string kernel,
                   const std::vector<MemEffect>& declared);

  struct PerDst {
    int dst = 0;
    std::int64_t budget_bytes = 0;
    std::int64_t sent_bytes = 0;
    std::string declared;  ///< rendered range list for the message
    bool reported = false;
  };

  PerDst* find(int dst);

  StrictEffects* owner_;
  std::string kernel_;
  std::vector<PerDst> per_dst_;
  bool reported_undeclared_dst_ = false;
};

/// Per-collective-launch tracker (recorder #3). Created by
/// collective::Communicator::launch; the communicator points its
/// active-scope cursor here around each rank's synchronous inject call
/// so `transfer()` observations attribute to the right collective.
class StrictCollectiveTracker {
 public:
  /// Reports one fabric transfer issued by this collective.
  void transfer(int src, int dst, std::int64_t payload_bytes);

 private:
  friend class StrictEffects;
  StrictCollectiveTracker(StrictEffects* owner, std::string label,
                          std::vector<MemEffect> send,
                          std::vector<MemEffect> recv);

  struct PerRank {
    std::int64_t bytes = 0;
    bool reported = false;
  };

  StrictEffects* owner_;
  std::string label_;
  std::vector<MemEffect> send_;  ///< declared per-rank send (read) ranges
  std::vector<MemEffect> recv_;  ///< declared per-rank recv (write) ranges
  std::vector<PerRank> sent_;    ///< indexed by src rank (grown on demand)
  std::vector<PerRank> received_;
  bool reported_no_memory_ = false;
};

class StrictEffects {
 public:
  /// Transfers at or below this payload are control-plane (sync flags,
  /// doorbells) and carry no declared memory.
  static constexpr std::int64_t kControlPlaneBytes = 8;

  // --- recorder #1: kernel functional-body scope -------------------------

  /// Opens a kernel scope (the simulator is single-threaded; scopes do
  /// not nest). `effects` / `put_effects` must outlive the scope.
  void beginKernel(const std::string& name,
                   const std::vector<MemEffect>& effects,
                   const std::vector<MemEffect>& put_effects);
  void endKernel();

  /// Shadow touch from a mutable DeviceBuffer::span() materialization.
  /// Ignored outside a kernel scope (host-side staging/verification).
  void touch(int device, std::int64_t offset, std::int64_t size);

  // --- recorders #2 / #3 --------------------------------------------------

  std::shared_ptr<StrictPutTracker> trackPuts(
      std::string kernel, const std::vector<MemEffect>& declared);

  std::shared_ptr<StrictCollectiveTracker> trackCollective(
      std::string label, std::vector<MemEffect> send,
      std::vector<MemEffect> recv);

  // --- results ------------------------------------------------------------

  int findings() const { return findings_total_; }

  /// Folds the strict findings into a checker summary (counts, total,
  /// and the recorded violation list, capped like the checker's own).
  void mergeInto(Summary& summary) const;

 private:
  friend class StrictPutTracker;
  friend class StrictCollectiveTracker;

  void addFinding(std::string message);

  // Active kernel scope (recorder #1).
  bool in_kernel_ = false;
  std::string kernel_name_;
  const std::vector<MemEffect>* kernel_effects_ = nullptr;
  const std::vector<MemEffect>* kernel_put_effects_ = nullptr;
  // (device, begin) pairs already reported for this kernel name, to
  // keep one finding per distinct escape rather than one per batch.
  std::vector<std::string> reported_touches_;

  std::vector<Violation> violations_;
  int findings_total_ = 0;
};

}  // namespace pgasemb::simsan
