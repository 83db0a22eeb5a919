#include "pgas/runtime.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "fault/injector.hpp"
#include "simsan/strict.hpp"
#include "util/expect.hpp"

namespace pgasemb::pgas {

PgasRuntime::PgasRuntime(gpu::MultiGpuSystem& system, fabric::Fabric& fabric)
    : system_(system), fabric_(fabric), heap_(system) {
  PGASEMB_CHECK(fabric.numGpus() >= system.numGpus(),
                "fabric topology smaller than the GPU system");
}

namespace {

/// One slice's flows grouped by destination node, each group in plan
/// order. Regrouping a slice is one counting pass over its flows, so
/// forwarding is linear in the flows however many nodes there are. A
/// slice already in node order (every closed-form slice is) is grouped
/// in place; any other is scattered into scratch that grows to the
/// widest slice once and is then reused.
class NodeGroups {
 public:
  NodeGroups() = default;
  NodeGroups(int nodes, int gpus_per_node)
      : gpus_per_node_(gpus_per_node),
        begin_(static_cast<std::size_t>(nodes) + 1),
        cursor_(static_cast<std::size_t>(nodes)) {}

  int nodes() const { return static_cast<int>(cursor_.size()); }

  void regroup(std::span<const SliceFlow> flows) {
    std::fill(begin_.begin(), begin_.end(), 0);
    bool in_order = true;
    std::size_t prev = 0;
    for (const auto& f : flows) {
      const std::size_t node = nodeOf(f);
      in_order = in_order && node >= prev;
      prev = node;
      ++begin_[node + 1];
    }
    std::partial_sum(begin_.begin(), begin_.end(), begin_.begin());
    if (in_order) {
      grouped_ = flows;
      return;
    }
    if (scratch_.size() < flows.size()) scratch_.resize(flows.size());
    std::copy(begin_.begin(), begin_.end() - 1, cursor_.begin());
    for (const auto& f : flows) scratch_[cursor_[nodeOf(f)]++] = f;
    grouped_ = {scratch_.data(), flows.size()};
  }

  /// The current slice's flows to `node`.
  std::span<const SliceFlow> to(int node) const {
    const auto n = static_cast<std::size_t>(node);
    return grouped_.subspan(begin_[n], begin_[n + 1] - begin_[n]);
  }

 private:
  std::size_t nodeOf(const SliceFlow& f) const {
    return static_cast<std::size_t>(f.dst / gpus_per_node_);
  }

  int gpus_per_node_ = 1;
  /// The current slice in node order: the slice itself or `scratch_`.
  std::span<const SliceFlow> grouped_;
  std::vector<SliceFlow> scratch_;
  /// Node n's flows are grouped_[begin_[n], begin_[n + 1]).
  std::vector<std::size_t> begin_;
  std::vector<std::size_t> cursor_;  ///< fill position per node
};

}  // namespace

void PgasRuntime::attachMessagePlan(gpu::KernelDesc& desc, int src,
                                    MessagePlan plan, CommCounter* counter,
                                    const AggregatorParams* aggregator,
                                    std::vector<simsan::MemEffect> remote_writes) {
  PGASEMB_CHECK(src >= 0 && src < system_.numGpus(), "bad source PE ", src);
  if (aggregator != nullptr) {
    plan = aggregatePlan(plan, desc.duration, *aggregator);
  }
  SliceCursor cursor(std::move(plan));

  desc.slices = cursor.plan().slices;

  // Slice-coalescing eligibility: every condition under which running
  // the slice callbacks synchronously at kernel start (with their
  // original timestamps) is provably result-identical to one simulator
  // event per slice.  Anything that observes per-message *event order*
  // — the simsan checker, fault drop windows (via the injector or armed
  // links), per-injection comm counters, flow observers — re-arms the
  // per-message path; so does a shared-resource topology, where another
  // source's flow could interleave on the same link.
  desc.coalesce_slices = coalesce_enabled_ &&
                         system_.mode() == gpu::ExecutionMode::kTimingOnly &&
                         system_.sanitizer() == nullptr &&
                         injector_ == nullptr && counter == nullptr &&
                         codec_ == nullptr && !hierarchical_ &&
                         fabric_.coalescingSafe();

  auto quiet = quiet_pool_.make();

  // The declared put footprint rides on the descriptor so strict mode
  // can treat remote output ranges as declared while the functional
  // body runs (the body writes them directly; the flows model timing).
  desc.put_effects = remote_writes;
  // Strict-effects put tracker: totals each launch's *logical* flows
  // per destination against the declared footprint (a retransmitted
  // put re-sends the same logical flow, so attempts are not re-counted).
  std::shared_ptr<simsan::StrictPutTracker> strict_puts;
  if (auto* strict = system_.strictEffects()) {
    strict_puts = strict->trackPuts(desc.name, remote_writes);
  }

  // Node structure, read once per plan: on every topology GPU g sits on
  // node g / gpusPerNode(), and a node's default leader is its first GPU.
  const auto& topo = fabric_.topology();
  const int gpn = topo.gpusPerNode();
  const int src_node = src / gpn;
  // Hierarchical forwarding stays on under an armed injector: the
  // leader hops are delivery-tracked reliable puts, and only node
  // pairs inside a NIC fault window fall back to direct per-flow puts
  // (per-pair degraded mode — see DESIGN.md §13).
  const bool hier = hierarchical_ && topo.numNodes() > 1;
  NodeGroups groups;  // forwarding scratch, sized only when forwarding
  if (hier) groups = NodeGroups(topo.numNodes(), gpn);

  desc.on_slice = [this, src, gpn, src_node, hier, counter, quiet,
                   strict_puts, remote_writes = std::move(remote_writes),
                   cursor = std::move(cursor), groups = std::move(groups)](
                      int slice, SimTime at) mutable {
    auto* san = system_.sanitizer();
    if (san != nullptr && quiet->side_actor < 0) {
      // The in-kernel put engine: inherits what the launching stream had
      // observed, then runs concurrently with everything until quiet.
      quiet->side_actor = san->forkActor(
          "gpu" + std::to_string(src) + ".pgas_put",
          system_.stream(src).sanitizerActor());
    }
    // One delivery-tracking callback per slice, not per put: the flow
    // loop retargets `attempt_payload` instead of materializing a fresh
    // std::function for every transfer.
    std::int64_t attempt_payload = 0;
    const fault::FaultInjector::AttemptFn on_attempt =
        [counter, &attempt_payload](SimTime attempt_at,
                                    const fabric::Fabric::Delivery&) {
          if (counter != nullptr) counter->record(attempt_at, attempt_payload);
        };
    const auto flows = cursor.slice(slice);
    // Common put bookkeeping once the *final* delivery time is known:
    // quiet latches it, the comm counter records the original payload at
    // injection time, and the simsan window spans injection -> landing
    // (for forwarded puts the leader staging hops are timing-only; the
    // collective retriever's staging buffers are where simsan certifies
    // the gather/scatter interleavings).
    const auto log_put = [&](const SliceFlow& f, SimTime delivered) {
      quiet->last_delivery = std::max(quiet->last_delivery, delivered);
      if (counter != nullptr) counter->record(at, f.payload_bytes);
      if (san != nullptr) {
        for (const auto& effect : remote_writes) {
          if (effect.device != f.dst) continue;
          san->access(quiet->side_actor, effect.device, effect.range,
                      effect.kind, at, delivered, effect.label);
        }
      }
    };
    // Delivery-tracked direct put (under faults): flap-dropped attempts
    // are retransmitted after timeout + backoff at the same wire size,
    // every injection counts its original payload toward comm volume,
    // and quiet waits on the *acknowledged* delivery. Returns the acked
    // delivery time.
    const auto reliable_direct = [&](const SliceFlow& f,
                                     std::int64_t wire_bytes) {
      attempt_payload = f.payload_bytes;
      const auto r = injector_->reliablePut(src, f.dst, wire_bytes,
                                            f.n_messages, at, on_attempt);
      const bool buggy = injector_->plan().bug_retransmit_without_quiet &&
                         r.retransmitted();
      // Seeded bug (simsan certification): quiet latches the loss time of
      // the dropped attempt instead of the acked retransmit, so kernel
      // completion no longer covers the recovered write.
      quiet->last_delivery = std::max(quiet->last_delivery,
                                      buggy ? r.first_loss : r.acked);
      if (san != nullptr) {
        for (const auto& effect : remote_writes) {
          if (effect.device != f.dst) continue;
          if (!buggy) {
            san->access(quiet->side_actor, effect.device, effect.range,
                        effect.kind, at, r.acked, effect.label);
            continue;
          }
          // The original attempt dies at the flap...
          san->access(quiet->side_actor, effect.device, effect.range,
                      effect.kind, at, r.first_loss, effect.label);
          // ...and the retransmit engine lands the write without being
          // re-armed under quiet: its actor is never joined, so the
          // landing races with whoever consumes the destination.
          const auto rogue = san->forkActor(
              "gpu" + std::to_string(src) + ".pgas_put.retransmit",
              quiet->side_actor);
          san->access(rogue, effect.device, effect.range, effect.kind,
                      r.first_loss, r.acked, effect.label + ".retransmit");
        }
      }
      return r.acked;
    };
    // Direct one-sided put: the flat path, intra-node flows, and
    // degraded node pairs. A flow that leaves the node is encoded on its
    // way out when a codec is attached (the 256-byte messages shrink but
    // their count — and hence the NIC message-rate padding — does not),
    // with or without an armed injector. Returns the (acked) delivery.
    const auto direct = [&](const SliceFlow& f) {
      std::int64_t wire_bytes = f.payload_bytes;
      if (codec_ != nullptr && f.payload_bytes > 0 &&
          f.payload_bytes % 4 == 0 && f.dst / gpn != src_node) {
        wire_bytes = fabric::InterNodeCodec::compressedBytes(
            f.payload_bytes, codec_->aggregateBits(src_node, at));
        codec_->recordFlow(f.payload_bytes, wire_bytes);
        codec_->recordEgress(src_node, at, wire_bytes);
      }
      if (injector_ != nullptr) return reliable_direct(f, wire_bytes);
      const auto d = fabric_.transfer(src, f.dst, wire_bytes, f.n_messages, at);
      log_put(f, d.delivered);
      return d.delivered;
    };
    if (strict_puts != nullptr) {
      for (const auto& f : flows) strict_puts->flow(f.dst, f.payload_bytes);
    }
    if (!hier) {
      for (const auto& f : flows) direct(f);
      return;
    }
    groups.regroup(flows);
    for (const SliceFlow& f : groups.to(src_node)) {
      direct(f);  // intra-node: NVLink, never forwarded
    }
    // Hierarchical forwarding (DESIGN.md §12): per destination node,
    // this slice's inter-node puts ride three hops —
    //   1. NVLink gather: src -> own node leader (summed payload, the
    //      original message count; free when src IS the leader);
    //   2. one aggregated bulk message leader -> leader over the NIC
    //      (n_messages = 1 kills the per-256-byte rate padding; the
    //      codec, when attached, encodes this hop);
    //   3. NVLink scatter: remote leader -> each destination GPU.
    // Forwarding hop: plain transfer when fault-free, delivery-tracked
    // reliable put (retransmitted on drop) when an injector is armed.
    const auto hop = [&](int a, int b, std::int64_t bytes,
                         std::int64_t msgs, SimTime t) {
      if (injector_ == nullptr) {
        return fabric_.transfer(a, b, bytes, msgs, t).delivered;
      }
      return injector_->reliablePut(a, b, bytes, msgs, t).acked;
    };
    // Under a leader-fail window the injector's fault domains re-elect
    // the next healthy GPU on the node (counted as a failover).
    const int leader_s = injector_ != nullptr
                             ? injector_->leaderAt(src_node, at)
                             : src_node * gpn;
    for (int node = 0; node < groups.nodes(); ++node) {
      if (node == src_node) continue;
      const auto group = groups.to(node);
      if (injector_ != nullptr &&
          injector_->pairDegraded(src_node, node, at)) {
        // Per-pair degraded mode: a NIC fault window covers one of the
        // endpoint nodes, so this pair's traffic skips the leader
        // staging (a dropped aggregate would couple the whole node into
        // one retransmit domain) and goes direct, flow by flow. Every
        // healthy pair below keeps the hierarchy.
        SimTime last = at;
        for (const SliceFlow& f : group) last = std::max(last, direct(f));
        if (!group.empty()) injector_->recordHierFallback(at, last);
        continue;
      }
      std::int64_t to_node = 0;
      std::int64_t msgs = 0;
      for (const SliceFlow& f : group) {
        to_node += f.payload_bytes;
        msgs += f.n_messages;
      }
      if (to_node == 0) {
        // Nothing to ship; empty puts complete at injection.
        for (const SliceFlow& f : group) log_put(f, at);
        continue;
      }
      SimTime staged = at;
      if (src != leader_s) {
        staged = hop(src, leader_s, to_node, msgs, at);
      }
      std::int64_t wire_bytes = to_node;
      if (codec_ != nullptr && to_node % 4 == 0) {
        wire_bytes = fabric::InterNodeCodec::compressedBytes(
            to_node, codec_->aggregateBits(src_node, staged));
        codec_->recordFlow(to_node, wire_bytes);
        codec_->recordEgress(src_node, staged, wire_bytes);
      }
      const int leader_d = injector_ != nullptr
                               ? injector_->leaderAt(node, staged)
                               : node * gpn;
      const SimTime landed = hop(leader_s, leader_d, wire_bytes, 1, staged);
      for (const SliceFlow& f : group) {
        SimTime done = landed;
        if (f.dst != leader_d) {
          done = hop(leader_d, f.dst, f.payload_bytes, f.n_messages, landed);
        }
        log_put(f, done);
      }
    }
  };

  desc.finalize = [this, src, quiet](SimTime compute_end) {
    // nvshmem_quiet: kernel completion waits for remote-write delivery,
    // and (for simsan) publishes the put engine's writes to the stream.
    auto* san = system_.sanitizer();
    if (san != nullptr && quiet->side_actor >= 0) {
      san->joinActor(system_.stream(src).sanitizerActor(),
                     quiet->side_actor);
    }
    return std::max(compute_end, quiet->last_delivery);
  };
}

}  // namespace pgasemb::pgas
