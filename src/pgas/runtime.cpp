#include "pgas/runtime.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <string>

#include "fault/hier_route.hpp"
#include "fault/injector.hpp"
#include "simsan/strict.hpp"
#include "util/expect.hpp"

namespace pgasemb::pgas {

PgasRuntime::PgasRuntime(gpu::MultiGpuSystem& system, fabric::Fabric& fabric)
    : system_(system), fabric_(fabric), heap_(system) {
  PGASEMB_CHECK(fabric.numGpus() >= system.numGpus(),
                "fabric topology smaller than the GPU system");
}

/// One launch's one-sided puts (DESIGN.md §9). Every per-kernel decision
/// is made once, at attach: the plan's rows and every fault-free route
/// (direct per destination and the gather to the own leader; the
/// hierarchical route holds the leader -> leader and scatter routes and
/// each leader route's rate floor). A slice steps a closed-form plan's
/// rows in place, node by node when forwarding, and sends their shares
/// straight over those routes, in the order the links must see them; a
/// forwarded share is held at the source leader until its node's message
/// clears the floor (DESIGN.md §12). The fault injector, simsan, the
/// strict put tracker, the codec and the route are branches on
/// per-kernel constants. A coalesced launch steps each row's dedicated
/// route over every slice instead.
class PgasRuntime::PutEmitter {
 public:
  PutEmitter(PgasRuntime& runtime, int src, MessagePlan plan,
             std::shared_ptr<simsan::StrictPutTracker> strict,
             std::vector<simsan::MemEffect> remote_writes);

  int slices() const { return plan_.slices; }

  /// Emits slice `s`, which must be the next one, at `at`.
  void slice(int s, SimTime at);

  /// Emits every slice of a coalesced launch, each at its clock time.
  void launch(const gpu::SliceClock& clock);

  /// nvshmem_quiet: kernel completion waits for remote-write delivery,
  /// and (for simsan) the put engine's writes are published to the
  /// stream.
  SimTime quiet(SimTime compute_end);

 private:
  using Route = fabric::Fabric::Route;

  /// A closed-form row with no messages in the current slice sends
  /// nothing; an explicit plan's flows are always sent.
  bool idle(const SliceFlow& f) const {
    return closed_ && f.n_messages == 0;
  }
  /// An explicit plan's slice `s`, in plan order.
  std::span<const SliceFlow> sliceOf(int s) const {
    const auto i = static_cast<std::size_t>(s);
    return {plan_.flows.data() + plan_.slice_begin[i],
            plan_.slice_begin[i + 1] - plan_.slice_begin[i]};
  }
  /// Steps a closed-form plan's rows [begin, end) to the current slice:
  /// each row's share lands at the row's place in the slice scratch.
  std::span<const SliceFlow> stepRows(std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      scratch_[i] = splits_[i].next(plan_.message_bytes, plan_.slices);
    }
    return {scratch_.data() + begin, end - begin};
  }
  /// Points node_begin_ at `flows` grouped by destination node.
  void countNodes(std::span<const SliceFlow> flows);
  /// Groups an explicit slice's `flows` by destination node, plan order
  /// within a node, into the runtime's slice scratch.
  void groupByNode(std::span<const SliceFlow> flows);
  /// The current slice's flows to `node`: a closed-form plan's rows for
  /// the node are stepped here, an explicit slice was grouped by node.
  std::span<const SliceFlow> toNode(int node) {
    const auto n = static_cast<std::size_t>(node);
    if (closed_) return stepRows(node_begin_[n], node_begin_[n + 1]);
    return {scratch_.data() + node_begin_[n],
            node_begin_[n + 1] - node_begin_[n]};
  }

  void forward(int s, SimTime at);
  void forwardToNode(int node, std::span<const SliceFlow> group, SimTime at,
                     int leader_s, bool last);
  /// Ships node `node`'s held message from its leader at `at`.
  void ship(int node, SimTime at);
  SimTime reliableDirect(const SliceFlow& f, std::int64_t wire_bytes,
                         SimTime at);

  // Direct one-sided put: the flat path, intra-node flows, and degraded
  // node pairs (which exist only under an armed injector, so a forwarded
  // source sends only its own node's flows over direct_). A flow that
  // leaves the node is encoded on its way out when a codec is attached
  // (the 256-byte messages shrink but their count — and hence the NIC
  // message-rate padding — does not), with or without an armed
  // injector. Returns the (acked) delivery.
  SimTime direct(const SliceFlow& f, SimTime at) {
    return direct(f,
                  codec_ == nullptr
                      ? f.payload_bytes
                      : codec_->encode(src_, f.dst, f.payload_bytes, at),
                  at);
  }
  // A direct put of `wire_bytes`: what a flow that stays on its node
  // sends, since the codec leaves it unencoded.
  SimTime direct(const SliceFlow& f, std::int64_t wire_bytes, SimTime at) {
    if (injector_ != nullptr) return reliableDirect(f, wire_bytes, at);
    const SimTime delivered =
        fabric_.send(direct_[static_cast<std::size_t>(f.dst - direct_base_)],
                     wire_bytes, f.n_messages, at)
            .delivered;
    logPut(f, at, delivered);
    return delivered;
  }

  // One forwarding hop from GPU a to GPU b. Fault-free, the leaders are
  // the nodes' first GPUs and the flow takes `route`, the resolved
  // a -> b route. Under an armed injector, whose faults the route's
  // elections follow, it is a delivery-tracked reliable put
  // (retransmitted on drop) from a to b and `route` is unused. A hop
  // that stays on its GPU is free.
  SimTime hop(const Route& route, int a, int b, std::int64_t bytes,
              std::int64_t msgs, SimTime at) {
    if (a == b) return at;
    if (injector_ == nullptr) {
      return fabric_.send(route, bytes, msgs, at).delivered;
    }
    return injector_->reliablePut(a, b, bytes, msgs, at).acked;
  }

  // Common put bookkeeping once the *final* delivery time is known: quiet
  // latches it, and simsan logs the put.
  void logPut(const SliceFlow& f, SimTime at, SimTime delivered) {
    last_delivery_ = std::max(last_delivery_, delivered);
    latched_bytes_ += f.payload_bytes;
    if (san_ != nullptr) logAccess(f.dst, at, delivered);
  }
  // simsan's window for a put to `dst` spans injection -> landing (for
  // forwarded puts the leader staging hops are timing-only; the
  // collective retriever's staging buffers are where simsan certifies
  // the gather/scatter interleavings).
  void logAccess(int dst, SimTime at, SimTime delivered) {
    for (const auto& effect : remote_writes_) {
      if (effect.device != dst) continue;
      san_->access(side_actor_, effect.device, effect.range, effect.kind, at,
                   delivered, effect.label);
    }
  }

  gpu::MultiGpuSystem& system_;
  fabric::Fabric& fabric_;
  simsan::Checker* const san_;
  fault::FaultInjector* const injector_;
  fabric::InterNodeCodec* const codec_;
  /// Hierarchical forwarding (null = flat): it stays on under an armed
  /// injector, whose leader hops are delivery-tracked reliable puts, and
  /// only node pairs the route marks degraded fall back to direct
  /// per-flow puts (DESIGN.md §13).
  const fault::HierRoute* const route_;
  const std::shared_ptr<simsan::StrictPutTracker> strict_;
  const std::vector<simsan::MemEffect> remote_writes_;
  const int src_;
  /// Node structure: on every topology GPU g sits on node g / gpn_, and
  /// a node's default leader is its first GPU.
  const int gpn_;
  const int src_node_;
  const bool closed_;
  const MessagePlan plan_;
  int next_ = 0;

  /// Closed form: each row's split, in row order.
  std::vector<RowSplit> splits_;
  /// The runtime's scratch for the slice being emitted (a closed-form
  /// plan's shares, or a forwarded explicit slice grouped by node): only
  /// one slice is emitted at a time, so every launch shares it.
  std::vector<SliceFlow>& scratch_;
  /// Forwarding: the current slice's flows to node n are
  /// [node_begin_[n], node_begin_[n + 1]) of its node-ordered flows;
  /// fixed for a closed-form plan, whose rows are in destination order.
  std::vector<std::size_t> node_begin_;
  std::vector<std::size_t> fill_;  ///< groupByNode's position per node

  /// Resolved fault-free routes. direct_[d - direct_base_] is the route
  /// from src to GPU d for every d it sends to directly: every GPU, or
  /// only its own node's when forwarding.
  std::vector<Route> direct_;
  int direct_base_ = 0;
  Route gather_;  ///< src -> own node's leader

  /// Forwarding only: node n's gathered, not yet shipped slices. All of
  /// them reached one source leader, outside any degraded period. Only
  /// slices with payload are held, so a hold without bytes is empty.
  struct Hold {
    std::int64_t bytes = 0;  ///< payload gathered, before the codec
    int leader = -1;         ///< the source leader it was gathered to
    SimTime staged;          ///< when its last slice reached that leader
    /// Fixed at attach: the wire bytes a message to the node needs to
    /// clear its route's rate floor, and the payload that reaches them
    /// at the codec's widest and narrowest widths.
    std::int64_t floor = 0;
    std::int64_t at_widest = 0;
    std::int64_t at_narrowest = 0;
  };
  std::vector<Hold> holds_;
  // True when `hold`'s message, shipped now, would clear its route's
  // rate floor: its wire size (after the codec, without counting a codec
  // decision) reaches the floor. The payload bounds at the codec's two
  // widths settle it without asking the codec which width it would pick,
  // except for a payload between them.
  bool clearsFloor(const Hold& hold) const {
    if (codec_ == nullptr || hold.bytes % 4 != 0) {
      return hold.bytes >= hold.floor;
    }
    if (hold.bytes < hold.at_widest) return false;
    if (hold.bytes >= hold.at_narrowest) return true;
    return fabric::InterNodeCodec::compressedBytes(
               hold.bytes, codec_->peekBits(src_node_, hold.staged)) >=
           hold.floor;
  }
  /// held_[d]: the payload and messages the hold of GPU d's node carries
  /// to d, which one scatter delivers when the hold ships.
  struct Held {
    std::int64_t bytes = 0;
    std::int64_t messages = 0;
  };
  std::vector<Held> held_;
  /// With a simsan checker attached only: node n's held puts, each as
  /// its destination and injection in hold order, and a ship's scatter
  /// delivery per GPU of the node, so the checker logs every put.
  struct Injection {
    int dst;
    SimTime at;
  };
  std::vector<std::vector<Injection>> injections_;
  std::vector<SimTime> scattered_;

  std::int64_t& latched_bytes_;  ///< the runtime's put-conservation total

  SimTime last_delivery_ = SimTime::zero();  ///< quiet waits for it
  simsan::ActorId side_actor_ = -1;          ///< this kernel's put engine
};

PgasRuntime::PutEmitter::PutEmitter(
    PgasRuntime& runtime, int src, MessagePlan plan,
    std::shared_ptr<simsan::StrictPutTracker> strict,
    std::vector<simsan::MemEffect> remote_writes)
    : system_(runtime.system_),
      fabric_(runtime.fabric_),
      san_(runtime.system_.sanitizer()),
      injector_(runtime.injector_),
      codec_(runtime.codec_),
      route_(runtime.route_),
      strict_(std::move(strict)),
      remote_writes_(std::move(remote_writes)),
      src_(src),
      gpn_(runtime.fabric_.topology().gpusPerNode()),
      src_node_(src / gpn_),
      closed_(plan.closedForm()),
      plan_(std::move(plan)),
      scratch_(runtime.slice_scratch_),
      latched_bytes_(runtime.latched_put_bytes_) {
  for (const SliceFlow& f : plan_.flows) {
    PGASEMB_CHECK(f.dst >= 0 && f.dst < fabric_.numGpus(),
                  "bad destination PE ", f.dst);
  }
  if (closed_) {
    splits_.reserve(plan_.flows.size());
    for (const SliceFlow& row : plan_.flows) {
      splits_.emplace_back(row, plan_.slices);
    }
  }
  const bool hier = route_ != nullptr;
  const int direct_count = hier ? gpn_ : fabric_.numGpus();
  direct_base_ = hier ? src_node_ * gpn_ : 0;
  direct_.reserve(static_cast<std::size_t>(direct_count));
  for (int d = direct_base_; d < direct_base_ + direct_count; ++d) {
    direct_.push_back(fabric_.route(src_, d));
  }
  if (!hier) return;

  const auto nodes = static_cast<std::size_t>(route_->numNodes());
  gather_ = fabric_.route(src_, src_node_ * gpn_);
  holds_.resize(nodes);
  for (std::size_t n = 0; n < nodes; ++n) {
    Hold& hold = holds_[n];
    hold.floor = route_->rateFloor(src_node_, static_cast<int>(n));
    if (codec_ != nullptr) {
      hold.at_widest = fabric::InterNodeCodec::minPayloadFor(
          hold.floor, codec_->widestBits());
      hold.at_narrowest = fabric::InterNodeCodec::minPayloadFor(
          hold.floor, codec_->narrowestBits());
    }
  }
  held_.resize(nodes * static_cast<std::size_t>(gpn_));
  if (san_ != nullptr) {
    injections_.resize(nodes);
    scattered_.resize(static_cast<std::size_t>(gpn_));
  }
  node_begin_.resize(nodes + 1);
  if (closed_) {
    countNodes(plan_.flows);
  } else {
    fill_.resize(nodes);
  }
}

void PgasRuntime::PutEmitter::countNodes(std::span<const SliceFlow> flows) {
  std::fill(node_begin_.begin(), node_begin_.end(), 0);
  for (const SliceFlow& f : flows) {
    ++node_begin_[static_cast<std::size_t>(f.dst / gpn_) + 1];
  }
  std::partial_sum(node_begin_.begin(), node_begin_.end(),
                   node_begin_.begin());
}

void PgasRuntime::PutEmitter::groupByNode(std::span<const SliceFlow> flows) {
  countNodes(flows);
  std::copy(node_begin_.begin(), node_begin_.end() - 1, fill_.begin());
  scratch_.resize(flows.size());
  for (const SliceFlow& f : flows) {
    scratch_[fill_[static_cast<std::size_t>(f.dst / gpn_)]++] = f;
  }
}

void PgasRuntime::PutEmitter::slice(int s, SimTime at) {
  PGASEMB_CHECK(s == next_ && s < plan_.slices, "slice ", s,
                " emitted out of order: next slice is ", next_, " of ",
                plan_.slices);
  ++next_;
  if (san_ != nullptr && side_actor_ < 0) {
    // The in-kernel put engine: inherits what the launching stream had
    // observed, then runs concurrently with everything until quiet.
    side_actor_ = san_->forkActor("gpu" + std::to_string(src_) + ".pgas_put",
                                  system_.stream(src_).sanitizerActor());
  }
  // A closed-form plan's rows are stepped in place into the scratch, an
  // explicit plan's slice is read where it lies.
  if (closed_) scratch_.resize(splits_.size());
  if (route_ == nullptr) {
    for (const SliceFlow& f :
         closed_ ? stepRows(0, splits_.size()) : sliceOf(s)) {
      if (!idle(f)) direct(f, at);
    }
  } else {
    forward(s, at);
  }
  if (strict_ != nullptr) {
    // Strict effects total each launch's *logical* flows per destination
    // against the declared footprint (a retransmitted put re-sends the
    // same logical flow, so attempts are not re-counted), in plan order:
    // the scratch now holds every share of a closed-form slice.
    for (const SliceFlow& f :
         closed_ ? std::span<const SliceFlow>(scratch_) : sliceOf(s)) {
      if (!idle(f)) strict_->flow(f.dst, f.payload_bytes);
    }
  }
}

void PgasRuntime::PutEmitter::launch(const gpu::SliceClock& clock) {
  PGASEMB_ASSERT(clock.slices == plan_.slices && next_ == 0,
                 "a coalesced launch emits every slice of a fresh plan");
  if (!closed_) {
    for (int s = 0; s < clock.slices; ++s) slice(s, clock.at(s));
    return;
  }
  // Coalescing guarantees flat routing over links no other (src, dst)
  // pair uses and nothing that observes the order of flows across links
  // (no codec, simsan, injector or strict tracker). So stepping one row
  // over every slice hands its links the same flows, in the same order
  // and at the same times, as slice by slice: Link::occupy steps each
  // link's FIFO through finish(s) = max(arrival(s), finish(s - 1)) +
  // service(s). That holds only while this kernel is its links' one
  // sender. A collective that the same GPU launches on another stream
  // while the kernel runs shares them, and then waits behind the last
  // slice, which slice-by-slice emission would not yet have reserved
  // (nothing in the tree overlaps the two today).
  std::int64_t sent_bytes = 0;
  for (std::size_t i = 0; i < plan_.flows.size(); ++i) {
    const Route& route = direct_[static_cast<std::size_t>(plan_.flows[i].dst)];
    RowSplit& split = splits_[i];
    for (int s = 0; s < plan_.slices; ++s) {
      const SliceFlow share = split.next(plan_.message_bytes, plan_.slices);
      if (share.n_messages == 0) continue;
      sent_bytes += share.payload_bytes;
      last_delivery_ = std::max(
          last_delivery_, fabric_.send(route, share.payload_bytes,
                                       share.n_messages, clock.at(s))
                              .delivered);
    }
  }
  latched_bytes_ += sent_bytes;
  next_ = plan_.slices;
}

SimTime PgasRuntime::PutEmitter::quiet(SimTime compute_end) {
  for (const Hold& hold : holds_) {
    PGASEMB_ASSERT(hold.bytes == 0, "quiet on GPU ", src_, " with ",
                   hold.bytes, " B still held at its node leader");
  }
  if (san_ != nullptr && side_actor_ >= 0) {
    san_->joinActor(system_.stream(src_).sanitizerActor(), side_actor_);
  }
  return std::max(compute_end, last_delivery_);
}

// Hierarchical forwarding (DESIGN.md §12) of slice `s`, node by node.
void PgasRuntime::PutEmitter::forward(int s, SimTime at) {
  if (!closed_) groupByNode(sliceOf(s));
  // Intra-node flows go first, direct over NVLink and never forwarded: a
  // non-leader's flow to its own leader shares the NVLink that this
  // slice's gathers take, so it is granted before them.
  for (const SliceFlow& f : toNode(src_node_)) {
    if (!idle(f)) direct(f, f.payload_bytes, at);
  }
  // Under a leader-fail window the route elects the next healthy GPU
  // on the node (counted as a failover).
  const int leader_s = route_->leader(src_node_, at);
  const bool last = next_ == plan_.slices;
  const int nodes = static_cast<int>(holds_.size());
  for (int node = 0; node < nodes; ++node) {
    if (node != src_node_) {
      forwardToNode(node, toNode(node), at, leader_s, last);
    }
  }
}

// Per destination node, a slice's inter-node puts ride three hops —
//   1. NVLink gather: src -> own node leader (summed payload, the
//      original message count; free when src IS the leader), as the
//      slice is computed;
//   2. one bulk message leader -> leader over the NIC, once the leader
//      holds enough of the node's slices for its wire size (after the
//      codec) to clear the route's message-rate floor, or at the
//      kernel's last slice;
//   3. NVLink scatter: remote leader -> one combined flow per
//      destination GPU.
// Without a rate ceiling, or when one slice clears the floor, every
// slice ships as it is gathered.
void PgasRuntime::PutEmitter::forwardToNode(int node,
                                            std::span<const SliceFlow> group,
                                            SimTime at, int leader_s,
                                            bool last) {
  Hold& hold = holds_[static_cast<std::size_t>(node)];
  if (route_->degraded(src_node_, node, at)) {
    // Per-pair degraded mode: a NIC fault window covers one of the
    // endpoint nodes, so this pair's traffic skips the leader staging (a
    // dropped aggregate would couple the whole node into one retransmit
    // domain) and goes direct, flow by flow. Every healthy pair keeps
    // the hierarchy. What the leader held from before the window ships
    // first, so no message spans a degraded period.
    if (hold.bytes != 0) ship(node, hold.staged);
    SimTime last_done = at;
    bool sent = false;
    for (const SliceFlow& f : group) {
      if (idle(f)) continue;
      sent = true;
      last_done = std::max(last_done, direct(f, at));
    }
    if (sent) injector_->recordHierFallback(at, last_done);
    return;
  }
  std::int64_t to_node = 0;
  std::int64_t msgs = 0;
  bool sent = false;
  for (const SliceFlow& f : group) {
    if (idle(f)) continue;
    sent = true;
    to_node += f.payload_bytes;
    msgs += f.n_messages;
  }
  if (sent && to_node == 0) {
    // Nothing to ship; empty puts complete at injection.
    for (const SliceFlow& f : group) {
      if (!idle(f)) logPut(f, at, at);
    }
  } else if (sent) {
    // A message leaves from one leader: what the old leader held ships
    // before a slice is gathered to a re-elected one.
    if (hold.bytes != 0 && hold.leader != leader_s) {
      ship(node, hold.staged);
    }
    const SimTime staged = hop(gather_, src_, leader_s, to_node, msgs, at);
    hold.bytes += to_node;
    hold.leader = leader_s;
    hold.staged = std::max(hold.staged, staged);
    for (const SliceFlow& f : group) {
      if (idle(f)) continue;
      Held& to = held_[static_cast<std::size_t>(f.dst)];
      to.bytes += f.payload_bytes;
      to.messages += f.n_messages;
      if (san_ != nullptr) {
        injections_[static_cast<std::size_t>(node)].push_back({f.dst, at});
      }
    }
  }
  if (hold.bytes == 0) return;
  if (last) {
    ship(node, std::max(hold.staged, at));
  } else if (clearsFloor(hold)) {
    ship(node, hold.staged);
  }
}

void PgasRuntime::PutEmitter::ship(int node, SimTime at) {
  Hold& hold = holds_[static_cast<std::size_t>(node)];
  const int leader_d = route_->leader(node, at);
  const std::int64_t wire_bytes =
      codec_ == nullptr ? hold.bytes
                        : codec_->encodeEgress(src_node_, hold.bytes, at);
  const SimTime landed = hop(route_->leaderRoute(src_node_, node),
                             hold.leader, leader_d, wire_bytes, 1, at);
  // One combined scatter per destination GPU. Every GPU the hold
  // carries nothing to would deliver at `landed`, which no scatter
  // precedes, so quiet latches the last scatter's delivery.
  const int base = node * gpn_;
  SimTime last = landed;
  for (int i = 0; i < gpn_; ++i) {
    Held& to = held_[static_cast<std::size_t>(base + i)];
    SimTime done = landed;
    if (to.bytes + to.messages != 0) {
      done = hop(route_->scatterRoute(base + i), leader_d, base + i,
                 to.bytes, to.messages, landed);
      last = std::max(last, done);
      to = Held{};
    }
    if (san_ != nullptr) scattered_[static_cast<std::size_t>(i)] = done;
  }
  last_delivery_ = std::max(last_delivery_, last);
  latched_bytes_ += hold.bytes;
  if (san_ != nullptr) {
    auto& puts = injections_[static_cast<std::size_t>(node)];
    for (const Injection& p : puts) {
      logAccess(p.dst, p.at, scattered_[static_cast<std::size_t>(p.dst - base)]);
    }
    puts.clear();
  }
  hold.bytes = 0;
  hold.staged = SimTime::zero();
}

// Delivery-tracked direct put (under faults): flap-dropped attempts are
// retransmitted after timeout + backoff at the same wire size, and quiet
// waits on the *acknowledged* delivery. Returns the acked delivery time.
SimTime PgasRuntime::PutEmitter::reliableDirect(const SliceFlow& f,
                                                std::int64_t wire_bytes,
                                                SimTime at) {
  const auto r =
      injector_->reliablePut(src_, f.dst, wire_bytes, f.n_messages, at);
  // A bug a test seeds on the checker: quiet latches the loss time of
  // the dropped attempt instead of the acked retransmit, so kernel
  // completion no longer covers the recovered write.
  const bool buggy =
      r.retransmitted() && san_ != nullptr &&
      san_->seeded(simsan::SeededBug::kRetransmitWithoutQuiet);
  last_delivery_ = std::max(last_delivery_, buggy ? r.first_loss : r.acked);
  latched_bytes_ += f.payload_bytes;
  if (san_ != nullptr) {
    for (const auto& effect : remote_writes_) {
      if (effect.device != f.dst) continue;
      if (!buggy) {
        san_->access(side_actor_, effect.device, effect.range, effect.kind,
                     at, r.acked, effect.label);
        continue;
      }
      // The original attempt dies at the flap...
      san_->access(side_actor_, effect.device, effect.range, effect.kind, at,
                   r.first_loss, effect.label);
      // ...and the retransmit engine lands the write without being
      // re-armed under quiet: its actor is never joined, so the landing
      // races with whoever consumes the destination.
      const auto rogue = san_->forkActor(
          "gpu" + std::to_string(src_) + ".pgas_put.retransmit",
          side_actor_);
      san_->access(rogue, effect.device, effect.range, effect.kind,
                   r.first_loss, r.acked, effect.label + ".retransmit");
    }
  }
  return r.acked;
}

void PgasRuntime::attachMessagePlan(gpu::KernelDesc& desc, int src,
                                    MessagePlan plan,
                                    const AggregatorParams* aggregator,
                                    std::vector<simsan::MemEffect> remote_writes) {
  PGASEMB_CHECK(src >= 0 && src < system_.numGpus(), "bad source PE ", src);
  if (aggregator != nullptr) {
    plan = aggregatePlan(plan, desc.duration, *aggregator);
  }
  PGASEMB_CHECK(plan.wellFormed(), "malformed message plan");
  declared_put_bytes_ += plan.totalPayloadBytes();

  // The declared put footprint rides on the descriptor so strict mode
  // can treat remote output ranges as declared while the functional
  // body runs (the body writes them directly; the flows model timing).
  desc.put_effects = remote_writes;
  std::shared_ptr<simsan::StrictPutTracker> strict_puts;
  if (auto* strict = system_.strictEffects()) {
    strict_puts = strict->trackPuts(desc.name, remote_writes);
  }
  auto emitter =
      emitter_pool_.make(*this, src, std::move(plan), std::move(strict_puts),
                         std::move(remote_writes));
  desc.slices = emitter->slices();
  desc.on_slice = [emitter](int s, SimTime at) { emitter->slice(s, at); };
  desc.finalize = [emitter](SimTime compute_end) {
    return emitter->quiet(compute_end);
  };

  // Slice-coalescing eligibility: every condition under which emitting
  // the whole launch at kernel start (each slice at its original time)
  // is provably result-identical to one simulator event per slice.
  // Anything that observes per-message *event order* — the simsan
  // checker, the strict put tracker, fault drop windows (via the
  // injector or armed links), the codec's egress history, flow
  // observers — re-arms the per-message path; so does forwarding or a
  // shared-resource topology, where another source's flow could
  // interleave on the same link.
  if (coalesce_enabled_ &&
      system_.mode() == gpu::ExecutionMode::kTimingOnly &&
      system_.sanitizer() == nullptr && system_.strictEffects() == nullptr &&
      injector_ == nullptr && codec_ == nullptr && route_ == nullptr &&
      fabric_.coalescingSafe()) {
    desc.on_launch = [emitter](const gpu::SliceClock& clock) {
      emitter->launch(clock);
    };
  }
}

}  // namespace pgasemb::pgas
