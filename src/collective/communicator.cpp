#include "collective/communicator.hpp"

#include <algorithm>

#include "fault/hier_route.hpp"
#include "fault/injector.hpp"
#include "util/expect.hpp"

namespace pgasemb::collective {

Communicator::Communicator(gpu::MultiGpuSystem& system,
                           fabric::Fabric& fabric)
    : system_(system), fabric_(fabric) {
  PGASEMB_CHECK(fabric.numGpus() >= system.numGpus(),
                "fabric topology smaller than the GPU system");
}

fabric::Fabric::Delivery Communicator::xfer(int src, int dst,
                                            std::int64_t payload_bytes,
                                            std::int64_t n_messages,
                                            SimTime at) {
  if (strict_active_ != nullptr) {
    strict_active_->transfer(src, dst, payload_bytes);
  }
  const std::int64_t wire_bytes =
      codec_ == nullptr ? payload_bytes
                        : codec_->encode(src, dst, payload_bytes, at);
  return hierXfer(src, dst, wire_bytes, n_messages, at, protoEff());
}

fabric::Fabric::Delivery Communicator::hierXfer(int src, int dst,
                                                std::int64_t payload_bytes,
                                                std::int64_t n_messages,
                                                SimTime at,
                                                double bandwidth_fraction) {
  if (injector_ != nullptr) {
    return injector_->reliableCollective(src, dst, payload_bytes, n_messages,
                                         at, bandwidth_fraction);
  }
  return fabric_.transfer(src, dst, payload_bytes, n_messages, at,
                          bandwidth_fraction);
}

SimTime Communicator::xferChunked(int src, int dst, std::int64_t bytes,
                                  SimTime& at, SimTime chunk_overhead) {
  SimTime done = at;
  std::int64_t remaining = bytes;
  while (remaining > 0) {
    const std::int64_t chunk = std::min(remaining, kChunkBytes);
    at += chunk_overhead;  // proxy progression per chunk
    const auto d = xfer(src, dst, chunk, /*n_messages=*/1, at);
    done = std::max(done, d.delivered);
    remaining -= chunk;
  }
  return done;
}

SimTime Communicator::sendChunked(int from, int to, std::int64_t bytes,
                                  SimTime& inject_at, SimTime chunk_overhead,
                                  double bandwidth_fraction) {
  SimTime done = inject_at;
  std::int64_t remaining = bytes;
  while (remaining > 0) {
    const std::int64_t chunk = std::min(remaining, kChunkBytes);
    inject_at += chunk_overhead;  // proxy progression per chunk
    const auto d = hierXfer(from, to, chunk, /*n_messages=*/1, inject_at,
                            bandwidth_fraction);
    done = std::max(done, d.delivered);
    remaining -= chunk;
  }
  return done;
}

int Communicator::leaderOf(int node,
                           const detail::CollectiveState& state) const {
  const auto& staging = state.memory.staging;
  return staging.empty() ? route_->leader(node, state.launched_at)
                         : staging[static_cast<std::size_t>(node)].device;
}

Request Communicator::launch(
    const std::string& label,
    std::function<SimTime(int src, SimTime start,
                          detail::CollectiveState& state)> inject,
    std::function<void()> on_complete,
    const std::vector<gpu::Stream*>* streams,
    const CollectiveMemory* memory) {
  PGASEMB_CHECK(streams == nullptr ||
                    static_cast<int>(streams->size()) == system_.numGpus(),
                "need one stream per GPU");
  const int n = system_.numGpus();
  auto state = state_pool_.make();
  state->devices_pending = n;
  state->on_complete = std::move(on_complete);
  state->done_callbacks.resize(static_cast<std::size_t>(n));
  state->launched_at = system_.hostNow();
  if (memory != nullptr) state->memory = *memory;
  if (system_.sanitizer() != nullptr) {
    state->label = label;
    state->actors.assign(static_cast<std::size_t>(n), -1);
    state->op_start.assign(static_cast<std::size_t>(n), SimTime::zero());
  }
  if (auto* strict = system_.strictEffects()) {
    // Translate the declared per-rank staging ranges into the tracker's
    // effect lists (device doubles as the rank key for collectives).
    std::vector<simsan::MemEffect> send;
    std::vector<simsan::MemEffect> recv;
    if (memory != nullptr) {
      for (const auto& mem : memory->ranks) {
        if (mem.device < 0) continue;
        send.push_back({mem.device, mem.send, simsan::AccessKind::kRead, ""});
        recv.push_back({mem.device, mem.recv, simsan::AccessKind::kWrite, ""});
      }
    }
    state->strict =
        strict->trackCollective(label, std::move(send), std::move(recv));
  }

  // Share one copy of the injection function between the per-device ops
  // — `inject` closes over the collective's payload description (e.g.
  // the all-to-all byte matrix), which would otherwise be deep-copied
  // once per device.
  auto inject_fn = std::make_shared<
      std::function<SimTime(int, SimTime, detail::CollectiveState&)>>(
      std::move(inject));

  // Each rank's host triggers the collective once for it (proxy enqueue).
  for (int src = 0; src < n; ++src) {
    const SimTime triggered = system_.hostAdvance(
        src, system_.costModel().collective_trigger_overhead);
    gpu::Stream& stream = streams != nullptr
                              ? *(*streams)[static_cast<std::size_t>(src)]
                              : system_.stream(src);
    stream.enqueue(
        triggered, label,
        [this, src, state, inject_fn, stream_ptr = &stream](
            SimTime start, std::function<void(SimTime)> done) {
          // Attribute this rank's transfers to this collective (injects
          // run synchronously; save/restore tolerates nesting).
          auto* const prev_strict = strict_active_;
          strict_active_ = state->strict.get();
          const SimTime local_end = (*inject_fn)(src, start, *state);
          strict_active_ = prev_strict;
          state->first_start = std::min(state->first_start, start);
          state->completion = std::max(state->completion, local_end);
          state->done_callbacks[static_cast<std::size_t>(src)] =
              std::move(done);
          if (!state->actors.empty()) {
            state->actors[static_cast<std::size_t>(src)] =
                stream_ptr->sanitizerActor();
            state->op_start[static_cast<std::size_t>(src)] = start;
          }
          if (--state->devices_pending == 0) {
            // Everything on the wire; delivery times are known. Release
            // all device ops at the global completion time (a collective
            // retires together, like an NCCL kernel waiting on its peers).
            system_.simulator().scheduleAt(state->completion, [this, state] {
              state->completed = true;
              sanitizeHierarchical(*state);
              sanitizeCompletion(*state);
              for (auto& cb : state->done_callbacks) cb(state->completion);
            });
          }
        });
  }
  return Request(state);
}

void Communicator::sanitizeCompletion(detail::CollectiveState& state) {
  auto* san = system_.sanitizer();
  if (san == nullptr || state.actors.empty()) return;
  // Each rank's op reads its send buffer and writes its recv buffer over
  // its [op start, collective completion] window.
  for (std::size_t r = 0; r < state.memory.ranks.size(); ++r) {
    if (r >= state.actors.size() || state.actors[r] < 0) continue;
    const auto& mem = state.memory.ranks[r];
    if (mem.device < 0) continue;
    san->access(state.actors[r], mem.device, mem.send,
                simsan::AccessKind::kRead, state.op_start[r],
                state.completion,
                state.label + ".send.gpu" + std::to_string(r));
    san->access(state.actors[r], mem.device, mem.recv,
                simsan::AccessKind::kWrite, state.op_start[r],
                state.completion,
                state.label + ".recv.gpu" + std::to_string(r));
  }
  // Retire-together barrier: every participant has observed every other
  // participant's op once the collective completes.
  for (const auto actor : state.actors) {
    if (actor >= 0) san->release(actor, &state);
  }
  for (const auto actor : state.actors) {
    if (actor >= 0) san->acquire(actor, &state);
  }
}

void Communicator::sanitizeHierarchical(detail::CollectiveState& state) {
  auto* san = system_.sanitizer();
  if (san == nullptr || state.actors.empty() || state.hier_sync.empty() ||
      state.memory.staging.empty()) {
    return;
  }
  auto& topo = fabric_.topology();
  const int nodes = topo.numNodes();
  const auto actor_of = [&](int gpu) {
    return state.actors[static_cast<std::size_t>(gpu)];
  };
  const auto gkey = [&](int node) {
    return static_cast<void*>(&state.hier_sync[static_cast<std::size_t>(node)]);
  };
  const auto ikey = [&](int s, int d) {
    return static_cast<void*>(
        &state.hier_sync[static_cast<std::size_t>(nodes + s * nodes + d)]);
  };
  // Every access goes to the staging the caller declared for the node,
  // which a standby's rebuild, if any, already precedes (DESIGN.md §13).
  const auto staging_of =
      [&](int node) -> const CollectiveMemory::Staging& {
    return state.memory.staging[static_cast<std::size_t>(node)];
  };
  // Member contributions land in disjoint per-member slots of the leader
  // staging buffer.
  for (const auto& g : state.hier_gathers) {
    const int node = topo.nodeOf(g.src);
    const int local = g.src - topo.nodeLeader(node);
    const auto& stg = staging_of(node);
    san->access(actor_of(g.src), stg.device,
                stg.gather_slots[static_cast<std::size_t>(local)],
                simsan::AccessKind::kWrite, g.at, g.delivered,
                state.label + ".hier_gather.gpu" + std::to_string(g.src));
    san->release(actor_of(g.src), gkey(node));
  }
  // The leader's aggregated inter flow reads every member slot (ordered
  // behind the gathers by the per-node sync) and writes one per-source
  // slot of the destination leader's recv staging.
  for (const auto& i : state.hier_inters) {
    const auto& src_stg = staging_of(i.src_node);
    const simsan::ActorId leader = actor_of(src_stg.device);
    san->acquire(leader, gkey(i.src_node));
    for (const auto& slot : src_stg.gather_slots) {
      san->access(leader, src_stg.device, slot, simsan::AccessKind::kRead,
                  i.at, i.delivered,
                  state.label + ".hier_inter.read.node" +
                      std::to_string(i.src_node));
    }
    const auto& dst_stg = staging_of(i.dst_node);
    san->access(leader, dst_stg.device,
                dst_stg.recv_slots[static_cast<std::size_t>(i.src_node)],
                simsan::AccessKind::kWrite, i.at, i.delivered,
                state.label + ".hier_inter.node" + std::to_string(i.src_node) +
                    "->" + std::to_string(i.dst_node));
    san->release(leader, ikey(i.src_node, i.dst_node));
  }
  // Each destination rank scatters out of the recv slot its source node
  // filled; the acquire mirrors the inter-flow-delivered dependency the
  // timing model enforces (dropped by the seeded bug).
  for (const auto& s : state.hier_scatters) {
    const simsan::ActorId dst_actor = actor_of(s.dst);
    const int dst_node = topo.nodeOf(s.dst);
    if (s.synced) san->acquire(dst_actor, ikey(s.src_node, dst_node));
    const auto& stg = staging_of(dst_node);
    san->access(dst_actor, stg.device,
                stg.recv_slots[static_cast<std::size_t>(s.src_node)],
                simsan::AccessKind::kRead, s.at, s.delivered,
                state.label + ".hier_scatter.gpu" + std::to_string(s.dst));
  }
}

SimTime Communicator::hierarchicalInject(
    int src, SimTime start,
    const std::vector<std::vector<std::int64_t>>& matrix,
    SimTime chunk_overhead, detail::CollectiveState& state) {
  auto& topo = fabric_.topology();
  const int n = system_.numGpus();
  const int nodes = topo.numNodes();
  const int my_node = topo.nodeOf(src);
  const int my_leader = leaderOf(my_node, state);
  const bool log = system_.sanitizer() != nullptr && !state.actors.empty();
  if (state.hier_pairs.empty()) {
    state.hier_pairs.resize(static_cast<std::size_t>(nodes) * nodes);
    if (log) {
      state.hier_sync.resize(static_cast<std::size_t>(nodes) +
                             static_cast<std::size_t>(nodes) * nodes);
    }
  }
  const auto row = [&](int s) -> const std::vector<std::int64_t>& {
    return matrix[static_cast<std::size_t>(s)];
  };
  const auto degraded = [&](int dst_node) {
    return route_->degraded(my_node, dst_node, state.launched_at);
  };

  SimTime last = start;
  SimTime inject_at = start;
  // Intra-node destinations keep the flat chunked path (xfer also
  // charges the strict tracker, intra logical == physical).
  for (int dst = 0; dst < n; ++dst) {
    if (dst == src || topo.nodeOf(dst) != my_node) continue;
    const std::int64_t bytes = row(src)[static_cast<std::size_t>(dst)];
    SimTime at = start;
    last = std::max(last, xferChunked(src, dst, bytes, at, chunk_overhead));
    inject_at = std::max(inject_at, at);
  }
  // Per-pair degraded mode (DESIGN.md §13): node pairs inside a NIC
  // fault window skip the leader staging — a dropped aggregate would
  // couple the whole node into one retransmit domain — and ship their
  // flows flat, per destination GPU (xfer reissues dropped chunks,
  // charges the strict tracker and compresses inter-node chunks). Every
  // healthy pair below keeps the hierarchy.
  for (int dst_node = 0; dst_node < nodes; ++dst_node) {
    if (dst_node == my_node || !degraded(dst_node)) continue;
    const int base_d = topo.nodeLeader(dst_node);
    SimTime fallback_last = start;
    bool any = false;
    for (int dst = base_d; dst < base_d + topo.gpusPerNode(); ++dst) {
      const std::int64_t bytes = row(src)[static_cast<std::size_t>(dst)];
      SimTime at = start;
      fallback_last = std::max(
          fallback_last, xferChunked(src, dst, bytes, at, chunk_overhead));
      any = any || bytes > 0;
    }
    last = std::max(last, fallback_last);
    if (any && injector_ != nullptr) {
      injector_->recordHierFallback(start, fallback_last);
    }
  }
  // Strict-effects accounting is logical: each (src, dst) pair is
  // charged its original payload exactly once, regardless of the 3-hop
  // physical route (forwarded hops would overdraw the leader's budget).
  // Degraded pairs were already charged per chunk by xfer above.
  if (strict_active_ != nullptr) {
    for (int dst = 0; dst < n; ++dst) {
      if (topo.nodeOf(dst) == my_node || degraded(topo.nodeOf(dst))) continue;
      const std::int64_t bytes = row(src)[static_cast<std::size_t>(dst)];
      if (bytes > 0) strict_active_->transfer(src, dst, bytes);
    }
  }
  // Stage this member's per-destination-node contribution at the leader.
  SimTime gather_first = inject_at;
  SimTime gather_last = inject_at;
  bool gathered = false;
  for (int dst_node = 0; dst_node < nodes; ++dst_node) {
    if (dst_node == my_node || degraded(dst_node)) continue;
    std::int64_t to_node = 0;
    for (int dst = topo.nodeLeader(dst_node);
         dst < topo.nodeLeader(dst_node) + topo.gpusPerNode(); ++dst) {
      to_node += row(src)[static_cast<std::size_t>(dst)];
    }
    SimTime delivered = inject_at;
    if (to_node > 0 && src != my_leader) {
      if (!gathered) gather_first = inject_at;
      delivered = sendChunked(src, my_leader, to_node, inject_at,
                              chunk_overhead, protoEff());
      gather_last = std::max(gather_last, delivered);
      gathered = true;
    }
    auto& pair = state.hier_pairs[static_cast<std::size_t>(my_node) * nodes +
                                  dst_node];
    ++pair.contributions;
    pair.ready = std::max(pair.ready, delivered);
    pair.raw_bytes += to_node;
    last = std::max(last, delivered);
    if (pair.contributions == topo.gpusPerNode() && pair.raw_bytes > 0) {
      last = std::max(last, injectInterAndScatter(my_node, dst_node, pair,
                                                  matrix, chunk_overhead,
                                                  state));
    }
  }
  // One staging-slot write record per member (the leader's own slot is
  // filled by its emb_hier_gather kernel before the collective; the
  // zero-cost local record keeps the slot ordered under its actor).
  if (log) {
    state.hier_gathers.push_back(
        {src, gathered ? gather_first : start,
         gathered ? gather_last : start});
  }
  return last;
}

SimTime Communicator::injectInterAndScatter(
    int src_node, int dst_node, const detail::HierPair& pair,
    const std::vector<std::vector<std::int64_t>>& matrix,
    SimTime chunk_overhead, detail::CollectiveState& state) {
  auto& topo = fabric_.topology();
  // The leaders run the staging endpoints; the topology defaults stay
  // the iteration bases (node membership is fixed by layout).
  const int leader_s = leaderOf(src_node, state);
  const int leader_d = leaderOf(dst_node, state);
  const int base_s = topo.nodeLeader(src_node);
  const int base_d = topo.nodeLeader(dst_node);
  auto* san = system_.sanitizer();
  const bool log = san != nullptr && !state.actors.empty();
  // Compress the aggregated payload for the wire (the staged buffer is
  // contiguous, so the codec sees one flow per node pair).
  const std::int64_t wire_bytes =
      codec_ == nullptr
          ? pair.raw_bytes
          : codec_->encode(leader_s, leader_d, pair.raw_bytes, pair.ready);
  // The aggregated flow is a one-sided bulk RDMA out of a pre-staged
  // contiguous buffer: no per-peer protocol staging, so it rides the NIC
  // at full fraction (contrast protoEff() on the flat path).
  SimTime inject_at = pair.ready;
  const SimTime inter_done =
      sendChunked(leader_s, leader_d, wire_bytes, inject_at, chunk_overhead,
                  /*bandwidth_fraction=*/1.0);
  if (log) {
    state.hier_inters.push_back({src_node, dst_node, pair.ready, inter_done});
  }
  // Destination-side scatter over NVLink. A bug a test seeds on the
  // checker fires the scatter when the inter flow is injected instead of
  // delivered.
  const bool buggy =
      san != nullptr && san->seeded(simsan::SeededBug::kScatterBeforeInterFlow);
  const SimTime scatter_start = buggy ? pair.ready : inter_done;
  SimTime last = inter_done;
  for (int dst = base_d; dst < base_d + topo.gpusPerNode(); ++dst) {
    std::int64_t bytes = 0;
    for (int src = base_s; src < base_s + topo.gpusPerNode(); ++src) {
      bytes += matrix[static_cast<std::size_t>(src)]
                     [static_cast<std::size_t>(dst)];
    }
    if (bytes == 0) continue;
    SimTime done = scatter_start;
    if (dst != leader_d) {
      SimTime at = scatter_start;
      done = sendChunked(leader_d, dst, bytes, at, chunk_overhead, protoEff());
    }
    last = std::max(last, done);
    if (log) {
      state.hier_scatters.push_back({dst, src_node, scatter_start, done,
                                     !buggy});
    }
  }
  return last;
}

Request Communicator::allToAllSingle(
    const std::vector<std::vector<std::int64_t>>& send_bytes,
    std::function<void()> on_complete,
    const std::vector<gpu::Stream*>* streams,
    const CollectiveMemory* memory) {
  const int n = system_.numGpus();
  PGASEMB_CHECK(static_cast<int>(send_bytes.size()) == n,
                "send_bytes must have one row per GPU");
  for (const auto& row : send_bytes) {
    PGASEMB_CHECK(static_cast<int>(row.size()) == n,
                  "send_bytes rows must have one entry per GPU");
  }
  const SimTime chunk_overhead =
      system_.costModel().collective_chunk_overhead;
  auto matrix = send_bytes;  // keep alive in the closure
  return launch(
      "all_to_all_single",
      [this, matrix, chunk_overhead](int src, SimTime start,
                                     detail::CollectiveState& state) {
        if (route_ != nullptr) {
          return hierarchicalInject(src, start, matrix, chunk_overhead,
                                    state);
        }
        SimTime last = start;
        for (int dst = 0; dst < system_.numGpus(); ++dst) {
          if (dst == src) continue;
          SimTime at = start;
          last = std::max(
              last, xferChunked(src, dst,
                                matrix[static_cast<std::size_t>(src)]
                                      [static_cast<std::size_t>(dst)],
                                at, chunk_overhead));
        }
        return last;
      },
      std::move(on_complete), streams, memory);
}

Request Communicator::allReduce(std::int64_t total_bytes,
                                std::function<void()> on_complete) {
  PGASEMB_CHECK(total_bytes >= 0, "negative all-reduce size");
  const int n = system_.numGpus();
  const std::int64_t block = n > 0 ? total_bytes / n : 0;
  // Ring all-reduce: reduce-scatter then all-gather, 2(p-1) chained steps.
  return launch(
      "all_reduce",
      [this, block, n](int src, SimTime start, detail::CollectiveState&) {
        const int next = (src + 1) % n;
        SimTime t = start;
        for (int step = 0; step < 2 * (n - 1); ++step) {
          const auto d = xfer(src, next, block, 1, t);
          t = d.delivered;
        }
        return t;
      },
      std::move(on_complete));
}

Request Communicator::ringShiftRounds(std::int64_t bytes_per_round,
                                      int rounds,
                                      std::function<void()> on_complete) {
  PGASEMB_CHECK(bytes_per_round >= 0 && rounds >= 0, "bad ring-shift spec");
  const int n = system_.numGpus();
  const SimTime round_sync =
      system_.costModel().stream_sync_overhead +
      system_.costModel().collective_trigger_overhead;
  // Each round is a separate collective call with a synchronization in
  // between (the baseline backward-pass pattern), so rounds pay the
  // control-path overhead repeatedly.
  return launch(
      "ring_shift",
      [this, bytes_per_round, rounds, n, round_sync](
          int src, SimTime start, detail::CollectiveState&) {
        const int next = (src + 1) % n;
        SimTime t = start;
        for (int r = 0; r < rounds; ++r) {
          const auto d = xfer(src, next, bytes_per_round, 1, t);
          t = d.delivered + round_sync;
        }
        return t;
      },
      std::move(on_complete));
}

}  // namespace pgasemb::collective
