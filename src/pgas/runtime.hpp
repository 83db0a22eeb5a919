// PGAS runtime: attaches one-sided communication to simulated kernels.
//
// `attachMessagePlan` is the heart of the paper's mechanism: it wires a
// kernel descriptor so that each timeline slice injects its one-sided
// messages into the fabric the moment they are "generated", and the
// kernel completes only when compute is done AND the last remote write
// has been delivered (nvshmem_quiet semantics).  The communication is
// thereby overlapped with — and normally hidden inside — the compute
// window.
#pragma once

#include <memory>
#include <vector>

#include "fabric/compression.hpp"
#include "fabric/fabric.hpp"
#include "gpu/kernel.hpp"
#include "gpu/system.hpp"
#include "pgas/aggregator.hpp"
#include "pgas/message_plan.hpp"
#include "pgas/symmetric_heap.hpp"
#include "simsan/access.hpp"
#include "util/pool.hpp"

namespace pgasemb::fault {
class FaultInjector;
class HierRoute;
}

namespace pgasemb::pgas {

class PgasRuntime {
 public:
  PgasRuntime(gpu::MultiGpuSystem& system, fabric::Fabric& fabric);

  SymmetricHeap& heap() { return heap_; }
  fabric::Fabric& fabric() { return fabric_; }

  /// Attach the fault injector: every one-sided put gains delivery
  /// tracking with timeout-driven retransmission (capped exponential
  /// backoff), and quiet waits for the last *acknowledged* delivery —
  /// retransmits re-enter the fabric and are counted in its
  /// ResilienceStats.  Null (the default) keeps the original direct
  /// path, bit-identical to a fault-free build.  Not owned; must
  /// outlive the runtime.
  void setFaultInjector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Route one-sided traffic hierarchically through `route` (DESIGN.md
  /// §12): a slice's inter-node flows are forwarded src -> node leader
  /// -> remote leader -> dst. The source leader holds each remote node's
  /// gathered slices and ships them as one bulk leader->leader message
  /// once its wire size clears the route's message-rate floor, or at
  /// the kernel's last slice — so only a kernel's remainder (or a
  /// message an armed injector ships early) can pay the NIC's
  /// per-message rate padding.  quiet() covers the forwarded hops:
  /// kernel completion waits for the final scatter delivery.  Under an
  /// armed fault injector the hops are delivery-tracked reliable puts,
  /// the route elects the leaders (leader-fail failover; a held message
  /// ships before a slice goes to a new leader), and node pairs the
  /// route marks degraded fall back to direct per-flow puts, counted in
  /// ResilienceStats.  Null (the default) keeps every put flat.  Not
  /// owned.
  void setRoute(const fault::HierRoute* route) { route_ = route; }

  /// Attach the inter-node compression codec: a flow whose route
  /// crosses nodes ships InterNodeCodec::encode's wire size — per flow
  /// on direct puts (flat mode and degraded node pairs, with or without
  /// an armed injector; a retransmit re-sends the compressed size), on
  /// each shipped leader->leader message in hierarchical mode.  Strict
  /// effects and put conservation keep accounting the original payload
  /// (compression is a wire-format concern, not a protocol one).  Not
  /// owned; must outlive the runtime.
  void setCodec(fabric::InterNodeCodec* codec) { codec_ = codec; }

  /// Master switch for the TimingOnly slice-coalescing fast path
  /// (--no-coalesce escape hatch). Even when enabled, a kernel's slices
  /// are only coalesced when it is provably result-identical: TimingOnly
  /// mode, no simsan checker or strict put tracker, no fault injector,
  /// no codec, flat routing, and
  /// Fabric::coalescingSafe() (dedicated pair links, no flow observer,
  /// no armed fault windows). Default on.
  void setCoalescingEnabled(bool enabled) { coalesce_enabled_ = enabled; }

  /// Wire `desc` so its slices emit `plan`'s flows from GPU `src` and its
  /// completion implements quiet (waits for the last delivery).  If
  /// `aggregator` is non-null the plan is first rewritten through the
  /// async aggregator model. One PutEmitter per launch emits the
  /// kernel's puts over routes resolved before its first slice fires.
  ///
  /// `remote_writes` declares the destination-memory footprint of the
  /// kernel's one-sided puts for simsan (one effect per destination GPU;
  /// `effect.device` selects which flows it covers).  When a checker is
  /// attached, the puts run under a dedicated side actor forked from the
  /// source GPU's default-stream actor, and the quiet in `finalize` joins
  /// that side actor back — so stripping `finalize` loses both the timing
  /// wait AND the happens-before edge, exactly like skipping
  /// nvshmem_quiet on real hardware.
  void attachMessagePlan(gpu::KernelDesc& desc, int src, MessagePlan plan,
                         const AggregatorParams* aggregator = nullptr,
                         std::vector<simsan::MemEffect> remote_writes = {});

  /// Put conservation: the payload every attached plan declared, and the
  /// payload whose delivery a quiet latched. Equal once every launched
  /// kernel has completed; a put that is never sent (or a held message
  /// that is never shipped) leaves them apart.
  std::int64_t declaredPutBytes() const { return declared_put_bytes_; }
  std::int64_t latchedPutBytes() const { return latched_put_bytes_; }

 private:
  class PutEmitter;

  gpu::MultiGpuSystem& system_;
  fabric::Fabric& fabric_;
  SymmetricHeap heap_;
  fault::FaultInjector* injector_ = nullptr;
  fabric::InterNodeCodec* codec_ = nullptr;
  const fault::HierRoute* route_ = nullptr;
  bool coalesce_enabled_ = true;
  /// Recycles the per-launch emitters instead of hitting the allocator
  /// for each one.
  util::SharedPool<PutEmitter> emitter_pool_;
  std::int64_t declared_put_bytes_ = 0;
  std::int64_t latched_put_bytes_ = 0;
  /// Scratch for the slice being emitted: a closed-form plan's shares, or
  /// a forwarded explicit slice grouped by destination node.
  std::vector<SliceFlow> slice_scratch_;
};

}  // namespace pgasemb::pgas
