#include "collective/communicator.hpp"

#include <algorithm>
#include <numeric>

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
  forEachChunk(bytes, at, chunk_overhead, [&](std::int64_t chunk, SimTime t) {
    done = std::max(done, xfer(src, dst, chunk, /*n_messages=*/1, t).delivered);
  });
  return done;
}

void Communicator::deliver(std::span<const fabric::Fabric::Flow> flows,
                           std::span<SimTime* const> done) {
  std::vector<fabric::Fabric::Delivery> out;
  if (injector_ == nullptr) {
    out = fabric_.sendInArrivalOrder(flows);
  } else {
    // Under an armed injector each flow goes whole through its reissue
    // path, in injection order.
    out.resize(flows.size());
    std::vector<std::size_t> order(flows.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      return flows[a].at < flows[b].at;
    });
    for (const std::size_t i : order) {
      const auto& f = flows[i];
      out[i] = hierXfer(f.route.src, f.route.dst, f.payload_bytes,
                        f.n_messages, f.at, f.bandwidth_fraction);
    }
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    *done[i] = std::max(*done[i], out[i].delivered);
  }
}

int Communicator::leaderOf(int node,
                           const detail::CollectiveState& state) const {
  const auto& staging = state.memory.staging;
  return staging.empty() ? route_->leader(node, state.first_start)
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
          // Ops start in simulated-time order, so the first one sets the
          // start every member's inject routes at.
          state->first_start = std::min(state->first_start, start);
          // Attribute this rank's transfers to this collective (injects
          // run synchronously; save/restore tolerates nesting).
          auto* const prev_strict = strict_active_;
          strict_active_ = state->strict.get();
          const SimTime local_end = (*inject_fn)(src, start, *state);
          strict_active_ = prev_strict;
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
    return route_->degraded(my_node, dst_node, state.first_start);
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
  // Pairwise staging: at step k this member stages its contribution for
  // node (my_node + k) mod nodes at its leader, so each step's pairs get
  // ready together and their flows leave for distinct nodes.
  SimTime gather_first = inject_at;
  SimTime gather_last = inject_at;
  bool gathered = false;
  for (int k = 1; k < nodes; ++k) {
    const int dst_node = (my_node + k) % nodes;
    if (degraded(dst_node)) continue;
    std::int64_t to_node = 0;
    for (int dst = topo.nodeLeader(dst_node);
         dst < topo.nodeLeader(dst_node) + topo.gpusPerNode(); ++dst) {
      to_node += row(src)[static_cast<std::size_t>(dst)];
    }
    SimTime delivered = inject_at;
    if (to_node > 0 && src != my_leader) {
      if (!gathered) gather_first = inject_at;
      forEachChunk(to_node, inject_at, chunk_overhead,
                   [&](std::int64_t chunk, SimTime at) {
                     delivered = std::max(
                         delivered, hierXfer(src, my_leader, chunk,
                                             /*n_messages=*/1, at, protoEff())
                                        .delivered);
                   });
      gather_last = std::max(gather_last, delivered);
      gathered = true;
    }
    auto& pair = state.hier_pairs[static_cast<std::size_t>(my_node) * nodes +
                                  dst_node];
    pair.ready = std::max(pair.ready, delivered);
    pair.raw_bytes += to_node;
    last = std::max(last, delivered);
  }
  // One staging-slot write record per member (the leader's own slot is
  // filled by its emb_hier_gather kernel before the collective; the
  // zero-cost local record keeps the slot ordered under its actor).
  if (log) {
    state.hier_gathers.push_back(
        {src, gathered ? gather_first : start,
         gathered ? gather_last : start});
  }
  // The last member to stage (launch counts it down once this returns)
  // ships every pair, so the collective retires after all of them land.
  if (state.devices_pending == 1) {
    last = std::max(last, shipStaged(matrix, chunk_overhead, state));
  }
  return last;
}

SimTime Communicator::shipStaged(
    const std::vector<std::vector<std::int64_t>>& matrix,
    SimTime chunk_overhead, detail::CollectiveState& state) {
  auto& topo = fabric_.topology();
  const int nodes = topo.numNodes();
  const int gpn = topo.gpusPerNode();
  auto* san = system_.sanitizer();
  const bool log = san != nullptr && !state.actors.empty();
  const auto pair = [&](int p) -> detail::HierPair& {
    return state.hier_pairs[static_cast<std::size_t>(p)];
  };
  // Staged pairs p = src_node * nodes + dst_node, in (source, destination)
  // order, which breaks ties between equal arrivals. The codec encodes
  // each at its readiness time, in readiness order (the staged buffer is
  // contiguous, so it sees one flow per node pair).
  std::vector<int> staged;
  for (int p = 0; p < nodes * nodes; ++p) {
    if (pair(p).raw_bytes > 0) staged.push_back(p);
  }
  std::vector<int> by_ready = staged;
  std::stable_sort(by_ready.begin(), by_ready.end(),
                   [&](int a, int b) { return pair(a).ready < pair(b).ready; });
  for (const int p : by_ready) {
    auto& pr = pair(p);
    pr.wire_bytes = codec_ == nullptr
                        ? pr.raw_bytes
                        : codec_->encode(leaderOf(p / nodes, state),
                                         leaderOf(p % nodes, state),
                                         pr.raw_bytes, pr.ready);
  }
  // Leader to leader. The aggregated flow is a one-sided bulk RDMA out of
  // a pre-staged contiguous buffer: no per-peer protocol staging, so it
  // rides the NIC at full fraction (contrast protoEff() on the flat path).
  std::vector<fabric::Fabric::Flow> flows;
  std::vector<SimTime*> done;
  for (const int p : staged) {
    auto& pr = pair(p);
    pr.delivered = pr.ready;
    const auto route = fabric_.route(leaderOf(p / nodes, state),
                                     leaderOf(p % nodes, state));
    SimTime at = pr.ready;
    forEachChunk(pr.wire_bytes, at, chunk_overhead,
                 [&](std::int64_t chunk, SimTime t) {
                   flows.push_back({route, chunk, 1, t, 1.0});
                   done.push_back(&pr.delivered);
                 });
  }
  deliver(flows, done);
  // Each pair's scatters over NVLink, once its flow has landed. A bug a
  // test seeds on the checker fires them when the flow is injected.
  const bool buggy =
      san != nullptr && san->seeded(simsan::SeededBug::kScatterBeforeInterFlow);
  std::vector<detail::HierScatterLog> scatters;
  scatters.reserve(staged.size() * static_cast<std::size_t>(gpn));
  flows.clear();
  done.clear();
  for (const int p : staged) {
    // The leaders run the staging endpoints; the topology defaults stay
    // the iteration bases (node membership is fixed by layout).
    const int base_s = topo.nodeLeader(p / nodes);
    const int base_d = topo.nodeLeader(p % nodes);
    const int leader_d = leaderOf(p % nodes, state);
    const SimTime start = buggy ? pair(p).ready : pair(p).delivered;
    for (int dst = base_d; dst < base_d + gpn; ++dst) {
      std::int64_t bytes = 0;
      for (int src = base_s; src < base_s + gpn; ++src) {
        bytes += matrix[static_cast<std::size_t>(src)]
                       [static_cast<std::size_t>(dst)];
      }
      if (bytes == 0) continue;
      auto& scatter = scatters.emplace_back(
          detail::HierScatterLog{dst, p / nodes, start, start, !buggy});
      if (dst == leader_d) continue;
      const auto route = fabric_.route(leader_d, dst);
      SimTime at = start;
      forEachChunk(bytes, at, chunk_overhead,
                   [&](std::int64_t chunk, SimTime t) {
                     flows.push_back({route, chunk, 1, t, protoEff()});
                     done.push_back(&scatter.delivered);
                   });
    }
  }
  deliver(flows, done);
  SimTime last = SimTime::zero();
  for (const int p : staged) {
    last = std::max(last, pair(p).delivered);
    if (log) {
      state.hier_inters.push_back(
          {p / nodes, p % nodes, pair(p).ready, pair(p).delivered});
    }
  }
  for (const auto& scatter : scatters) {
    last = std::max(last, scatter.delivered);
    if (log) state.hier_scatters.push_back(scatter);
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
                                std::function<void()> on_complete,
                                const std::vector<gpu::Stream*>* streams) {
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
      std::move(on_complete), streams);
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
