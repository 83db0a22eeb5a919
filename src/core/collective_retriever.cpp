#include "core/collective_retriever.hpp"

#include <algorithm>

#include "core/registry.hpp"
#include "emb/lookup_kernel.hpp"
#include "emb/staging_kernel.hpp"
#include "emb/unpack_kernel.hpp"
#include "fault/hier_route.hpp"
#include "fault/injector.hpp"
#include "util/expect.hpp"

namespace pgasemb::core {

CollectiveRetriever::CollectiveRetriever(emb::ShardedEmbeddingLayer& layer,
                                         collective::Communicator& comm,
                                         int depth, emb::ReplicaCache* cache,
                                         const fault::HierRoute* route,
                                         fabric::InterNodeCodec* codec)
    : layer_(layer), comm_(comm), depth_(depth), cache_(cache),
      route_(route), codec_(codec) {
  PGASEMB_CHECK(depth >= 1, "pipeline depth must be >= 1");
  PGASEMB_CHECK(layer.sharding().scheme() == emb::ShardingScheme::kTableWise,
                "the collective baseline implements table-wise sharding "
                "(the paper's scheme)");
  auto& system = layer.system();
  const auto& sharding = layer.sharding();
  const int p = system.numGpus();
  const int dim = layer.dim();
  PGASEMB_CHECK(depth == 1 || p > 1, "pipelining needs at least 2 GPUs");
  slots_.resize(static_cast<std::size_t>(depth));
  for (auto& slot : slots_) {
    for (int g = 0; g < p; ++g) {
      auto& dev = system.device(g);
      slot.out.push_back(dev.alloc(sharding.outputElements(g, dim)));
      if (p > 1) {
        slot.send.push_back(
            dev.alloc(emb::sendBufferElements(sharding, g, dim)));
        slot.recv.push_back(
            dev.alloc(emb::recvBufferElements(sharding, g, dim)));
      }
    }
  }
  for (int g = 0; depth > 1 && g < p; ++g) {
    comm_streams_.push_back(&system.createStream(g, "comm"));
  }
  for (int n = 0; route_ != nullptr && n < route_->numNodes(); ++n) {
    staging_.push_back(carveStaging(n, n * route_->gpusPerNode()));
  }
  standby_.resize(staging_.size());
  memory_.staging.resize(staging_.size());
}

CollectiveRetriever::~CollectiveRetriever() {
  auto& system = layer_.system();
  for (auto it = staging_buffers_.rbegin(); it != staging_buffers_.rend();
       ++it) {
    it->device()->free(*it);
  }
  for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
    for (int g = system.numGpus() - 1; g >= 0; --g) {
      for (auto* buffers : {&it->recv, &it->send, &it->out}) {
        if (!buffers->empty()) {
          system.device(g).free((*buffers)[static_cast<std::size_t>(g)]);
        }
      }
    }
  }
}

gpu::DeviceBuffer& CollectiveRetriever::output(int gpu) {
  const std::int64_t latest = submitted_ > 0 ? submitted_ - 1 : 0;
  auto& out = slots_[static_cast<std::size_t>(latest % depth_)].out;
  PGASEMB_CHECK(gpu >= 0 && gpu < static_cast<int>(out.size()),
                "bad gpu id ", gpu);
  return out[static_cast<std::size_t>(gpu)];
}

BatchTiming CollectiveRetriever::runBatch(const emb::SparseBatch& batch) {
  auto& system = layer_.system();
  const int p = system.numGpus();
  const bool pipelined = depth_ > 1;
  const bool functional =
      system.mode() == gpu::ExecutionMode::kFunctional &&
      batch.materialized();
  Slot& slot = slots_[static_cast<std::size_t>(submitted_ % depth_)];
  BatchTiming timing;
  const SimTime t0 = system.hostNow();

  if (p == 1) {
    // Single GPU: no layout conversion — the lookup writes the final
    // tensor directly (as PyTorch does without a process group).
    auto fused =
        emb::buildFusedLookupKernel(layer_, batch, 0, &slot.out, /*slices=*/1);
    system.launchKernel(0, std::move(fused.desc));
    timing.total = timing.compute_phase = system.syncAll() - t0;
    return timing;
  }

  // Optional replica-cache filter: hit bags are pooled from the local
  // replica by a serve kernel; only the misses are looked up, shipped
  // and unpacked. A pipelined batch keeps it, and in Functional mode a
  // copy of the batch, until a drain retires the batch.
  InFlight* flight = nullptr;
  if (pipelined) {
    flight = &in_flight_.emplace_back(p, static_cast<int>(staging_.size()));
    if (functional) flight->batch.emplace(batch);
  }
  const emb::SparseBatch& in =
      flight != nullptr && flight->batch ? *flight->batch : batch;
  std::optional<emb::CacheFilter> blocking_filter;
  auto& filter = flight != nullptr ? flight->filter : blocking_filter;
  if (cache_ != nullptr) {
    filter.emplace(layer_, in, *cache_);
    timing.cache_lookups = filter->lookups();
    timing.cache_hits = filter->hits();
    timing.cache_saved_bytes = filter->savedWireBytes();
  }
  const emb::CacheFilter* f = filter ? &*filter : nullptr;

  launchLookups(in, slot, f, flight);
  launchStaging(/*gather=*/true, flight);

  if (!pipelined) {
    const SimTime t1 = system.syncAll();
    timing.compute_phase = t1 - t0;
    // all_to_all_single(async_op=True) + wait().
    auto request = exchange(slot, /*land_at_wait=*/functional);
    const SimTime t2 = request.wait(system);
    timing.comm_phase = t2 - t1;
    timing.wire_time = request.completionTime() - request.startTime();
    // The leader demux, unpack/rearrangement kernels + sync.
    launchStaging(/*gather=*/false, nullptr);
    launchUnpacks(slot, f, nullptr);
    const SimTime t3 = system.syncAll();
    timing.unpack_phase = t3 - t2;
    timing.total = t3 - t0;
    return timing;
  }

  exchange(slot, /*land_at_wait=*/false);
  if (functional) {
    // Land the exchange as it retires, before any a2a_done: the first
    // comm stream to get here lands it all. No send buffer is overwritten
    // before its own GPU's a2a_done.
    for (int g = 0; g < p; ++g) {
      comm_streams_[static_cast<std::size_t>(g)]->enqueueFixed(
          system.hostNow(g), "all_to_all_single.land", SimTime::zero(),
          [this, &slot, flight] {
            if (!flight->landed) landExchange(slot);
            flight->landed = true;
          });
    }
  }
  launchStaging(/*gather=*/false, flight);
  for (int g = 0; g < p; ++g) {
    comm_streams_[static_cast<std::size_t>(g)]->enqueueRecord(
        system.hostNow(g), flight->a2a_done[static_cast<std::size_t>(g)]);
  }
  // With this batch's lookup already on the compute streams, where it
  // overlaps the previous batch's exchange, enqueue that batch's unpack.
  enqueuePendingUnpack();
  pending_ = submitted_++;
  timing.total = system.hostNow() - last_host_;
  timing.compute_phase = timing.total;
  last_host_ = system.hostNow();
  return timing;
}

void CollectiveRetriever::launchLookups(const emb::SparseBatch& batch,
                                        Slot& slot, const emb::CacheFilter* f,
                                        InFlight* flight) {
  auto& system = layer_.system();
  const int p = system.numGpus();
  // The exchange that last read this slot's send buffers must finish
  // before the new lookups overwrite them.
  InFlight* reused =
      flight != nullptr ? inFlight(submitted_ - depth_) : nullptr;
  send_matrix_.resize(static_cast<std::size_t>(p));
  for (int g = 0; g < p; ++g) {
    const auto i = static_cast<std::size_t>(g);
    auto& stream = system.stream(g);
    auto kernel =
        emb::buildBaselineLookupKernel(layer_, batch, g, &slot.send[i], f);
    send_matrix_[i] = kernel.send_bytes;
    send_matrix_[i][i] = 0;  // the local chunk is a device-local copy
    if (reused != nullptr) {
      stream.enqueueWaitEvent(system.hostNow(g), reused->a2a_done[i]);
    }
    if (f != nullptr) {
      system.launchKernelOn(stream, emb::buildCacheProbeKernel(layer_, *f, g));
    }
    system.launchKernelOn(stream, std::move(kernel.desc));
    if (flight != nullptr) {
      // The exchange on the comm stream waits for this send buffer.
      stream.enqueueRecord(system.hostNow(g), flight->lookup_done[i]);
      comm_streams_[i]->enqueueWaitEvent(system.hostNow(g),
                                         flight->lookup_done[i]);
    }
    if (f != nullptr) {
      system.launchKernelOn(
          stream, emb::buildCacheServeKernel(layer_, batch, *f, g,
                                             &cache_->replica(g),
                                             &slot.out[i]));
    }
  }
}

void CollectiveRetriever::launchStaging(bool gather, InFlight* flight) {
  if (route_ == nullptr) return;
  // Hierarchical all-to-all (DESIGN.md §12): each node's leader packs its
  // own inter-node contribution into its gather staging before the
  // exchange (the members' arrive over NVLink inside the collective) and
  // demultiplexes the landed recv staging after it. The leader is picked
  // once per batch, when its gather launches; the exchange and the demux
  // keep that pick. A pipeline runs these kernels on the leader's comm
  // stream and orders them against the neighbouring batches (DESIGN.md
  // §6).
  auto& system = layer_.system();
  const int p = system.numGpus();
  const int gpn = route_->gpusPerNode();
  const int nodes = route_->numNodes();
  const auto bytes_from = [this](int s, int d) {
    return send_matrix_[static_cast<std::size_t>(s)]
                       [static_cast<std::size_t>(d)];
  };
  std::vector<int> rebuilt;
  for (int n = 0; n < nodes; ++n) {
    const auto i = static_cast<std::size_t>(n);
    if (gather && pickStaging(n, flight)) rebuilt.push_back(n);
    const Staging& stg = memory_.staging[i];
    const int leader = stg.device;
    gpu::Stream& stream = leaderStream(leader, flight);
    std::int64_t bytes = 0;
    if (gather) {
      for (int d = 0; d < p; ++d) {
        if (d / gpn != n) bytes += bytes_from(leader, d);
      }
      // The leader packs its own contribution into its local-rank slot
      // (slot 0 for the default leader, the standby's rank otherwise).
      system.launchKernelOn(
          stream, emb::buildLeaderGatherKernel(
                      layer_, n, leader,
                      stg.gather_slots[static_cast<std::size_t>(
                          leader - n * gpn)],
                      bytes));
      if (flight == nullptr) continue;
      // The leader's compute stream waits for the gather: the previous
      // batch's unpack cannot take the device first and hold up this
      // exchange.
      auto& gathered = flight->gathered[i];
      stream.enqueueRecord(system.hostNow(leader), gathered);
      system.stream(leader).enqueueWaitEvent(system.hostNow(leader),
                                             gathered);
      InFlight* previous = inFlight(submitted_ - 1);
      for (int m = 0; previous != nullptr && m < nodes; ++m) {
        if (m != n) {
          stream.enqueueWaitEvent(
              system.hostNow(leader),
              previous->staging_free[static_cast<std::size_t>(m)]);
        }
      }
      continue;
    }
    for (int s = 0; s < p; ++s) {
      if (s / gpn == n) continue;
      for (int d = n * gpn; d < (n + 1) * gpn; ++d) bytes += bytes_from(s, d);
    }
    const simsan::StridedRange& first = stg.recv_slots.front();
    system.launchKernelOn(
        stream, emb::buildLeaderScatterKernel(
                    layer_, n, leader,
                    simsan::StridedRange::contiguous(
                        first.begin,
                        stg.recv_slots.back().envelopeEnd() - first.begin),
                    bytes));
    if (flight != nullptr) {
      stream.enqueueRecord(system.hostNow(leader), flight->staging_free[i]);
    }
  }
  // Every rank's exchange writes into a rebuilt staging, so at depth >= 2
  // each comm stream waits for the gather that follows the rebuild (at
  // depth 1 the host sync before the exchange orders them).
  for (const int n : rebuilt) {
    for (int g = 0; flight != nullptr && g < p; ++g) {
      comm_streams_[static_cast<std::size_t>(g)]->enqueueWaitEvent(
          system.hostNow(g), flight->gathered[static_cast<std::size_t>(n)]);
    }
  }
}

gpu::Stream& CollectiveRetriever::leaderStream(int leader, InFlight* flight) {
  return flight != nullptr
             ? *comm_streams_[static_cast<std::size_t>(leader)]
             : layer_.system().stream(leader);
}

bool CollectiveRetriever::pickStaging(int n, InFlight* flight) {
  auto& system = layer_.system();
  const auto i = static_cast<std::size_t>(n);
  const SimTime at = system.hostNow(n * route_->gpusPerNode());
  const int leader = route_->leader(n, at);
  if (leader == staging_[i].device) {
    memory_.staging[i] = staging_[i];
    return false;
  }
  // Leadership moved onto the standby (DESIGN.md §13): its staging is
  // allocated on the elected GPU the first time, and rebuilt once per
  // fail window, before that batch's gather.
  if (standby_[i].device < 0) standby_[i] = carveStaging(n, leader);
  memory_.staging[i] = standby_[i];
  const auto window = std::make_pair(n, route_->failWindow(n, at));
  if (std::find(rebuilt_.begin(), rebuilt_.end(), window) != rebuilt_.end()) {
    return false;
  }
  rebuilt_.push_back(window);
  comm_.faultInjector()->recordStagingRebuild();
  const Staging& stg = standby_[i];
  const simsan::StridedRange whole = simsan::StridedRange::contiguous(
      stg.gather_slots.front().begin,
      stg.recv_slots.back().envelopeEnd() - stg.gather_slots.front().begin);
  gpu::Stream& stream = leaderStream(leader, flight);
  auto* san = system.sanitizer();
  if (san != nullptr &&
      san->seeded(simsan::SeededBug::kRebuildWithoutRequiet)) {
    // A bug a test seeds on the checker: the rebuild's staging writes run
    // under a forked, never-joined rogue actor, and nothing orders the
    // exchange's writes after them.
    const std::string node = "node" + std::to_string(n);
    const auto rogue =
        san->forkActor(node + ".hier_rebuild.rogue", stream.sanitizerActor());
    san->access(rogue, leader, whole, simsan::AccessKind::kWrite, at, at,
                "emb_hier_rebuild." + node);
    return false;
  }
  system.launchKernelOn(stream, emb::buildStagingRebuildKernel(
                                    layer_, n, leader, whole, whole.len * 4));
  return true;
}

CollectiveRetriever::Staging CollectiveRetriever::carveStaging(int node,
                                                              int device) {
  // One gather slot per member, holding its whole inter-node
  // contribution, then one recv slot per source node; sized from the
  // sharding's worst case, so cache-filtered (smaller) exchanges stay
  // inside the declared ranges.
  const auto& sh = layer_.sharding();
  const int gpn = route_->gpusPerNode();
  const std::int64_t dim = layer_.dim();
  const auto sum_on = [gpn](int n, auto per_gpu) {
    std::int64_t sum = 0;
    for (int g = n * gpn; g < (n + 1) * gpn; ++g) sum += per_gpu(g);
    return sum;
  };
  const auto tables = [&sh](int g) { return sh.tablesOn(g); };
  const std::int64_t samples =
      sum_on(node, [&sh](int g) { return sh.miniBatchSize(g); });
  std::vector<std::int64_t> lens;
  for (int g = node * gpn; g < (node + 1) * gpn; ++g) {
    lens.push_back(sh.tablesOn(g) * (sh.batchSize() - samples) * dim);
  }
  for (int s = 0; s < route_->numNodes(); ++s) {
    lens.push_back(s == node ? 0 : sum_on(s, tables) * samples * dim);
  }
  std::int64_t total = 0;
  for (const std::int64_t len : lens) total += len;
  staging_buffers_.push_back(layer_.system().device(device).alloc(total));
  Staging stg;
  stg.device = device;
  std::int64_t pos = staging_buffers_.back().offset();
  for (std::size_t k = 0; k < lens.size(); ++k) {
    auto& slots = k < static_cast<std::size_t>(gpn) ? stg.gather_slots
                                                     : stg.recv_slots;
    slots.push_back(simsan::StridedRange::contiguous(pos, lens[k]));
    pos += lens[k];
  }
  return stg;
}

collective::Request CollectiveRetriever::exchange(Slot& slot,
                                                  bool land_at_wait) {
  auto& system = layer_.system();
  const bool san = system.sanitizer() != nullptr;
  const auto whole = [](const gpu::DeviceBuffer& buf) {
    return simsan::StridedRange::contiguous(buf.offset(), buf.size());
  };
  memory_.ranks.clear();
  for (int g = 0; san && g < system.numGpus(); ++g) {
    const auto i = static_cast<std::size_t>(g);
    memory_.ranks.push_back({g, whole(slot.send[i]), whole(slot.recv[i])});
  }
  return comm_.allToAllSingle(
      send_matrix_,
      land_at_wait ? [this, &slot] { landExchange(slot); }
                   : std::function<void()>(),
      depth_ == 1 ? nullptr : &comm_streams_, &memory_);
}

void CollectiveRetriever::landExchange(Slot& slot) {
  // Functional landing of the all-to-all: each (src, dst) region is
  // [src-local table][dst-local sample][col] on both sides, the local
  // self chunk included. Cross-node values really pass through the
  // codec, landing the measured quantization error.
  const auto& sh = layer_.sharding();
  const int p = sh.numGpus();
  for (int src = 0; src < p; ++src) {
    const auto send = slot.send[static_cast<std::size_t>(src)].span();
    for (int dst = 0; dst < p; ++dst) {
      auto recv = slot.recv[static_cast<std::size_t>(dst)].span();
      const bool compress =
          codec_ != nullptr && codec_->crossesNodes(src, dst);
      const std::int64_t per_table = sh.miniBatchSize(dst) * layer_.dim();
      const std::int64_t send_base =
          sh.miniBatchBegin(dst) * sh.tablesOn(src) * layer_.dim();
      const std::int64_t first = sh.firstTableOn(src);
      for (std::int64_t i = 0; i < sh.tablesOn(src) * per_table; ++i) {
        const float v = send[static_cast<std::size_t>(send_base + i)];
        recv[static_cast<std::size_t>(first * per_table + i)] =
            compress ? codec_->transcode(first + i / per_table, v) : v;
      }
    }
  }
}

void CollectiveRetriever::launchUnpacks(Slot& slot,
                                        const emb::CacheFilter* f,
                                        InFlight* flight) {
  auto& system = layer_.system();
  for (int g = 0; g < system.numGpus(); ++g) {
    const auto i = static_cast<std::size_t>(g);
    auto& stream = system.stream(g);
    if (flight != nullptr) {
      stream.enqueueWaitEvent(system.hostNow(g), flight->a2a_done[i]);
    }
    system.launchKernelOn(
        stream, emb::buildUnpackKernel(layer_, g, &slot.recv[i],
                                       &slot.out[i], f));
  }
}

void CollectiveRetriever::enqueuePendingUnpack() {
  if (pending_ < 0) return;
  InFlight* flight = inFlight(pending_);
  launchUnpacks(slots_[static_cast<std::size_t>(pending_ % depth_)],
                flight->filter ? &*flight->filter : nullptr, flight);
  pending_ = -1;
}

SimTime CollectiveRetriever::finish() {
  if (pending_ < 0) return SimTime::zero();
  auto& system = layer_.system();
  const SimTime before = last_host_;
  enqueuePendingUnpack();
  last_host_ = system.syncAll();
  // Everything enqueued has run: release the in-flight records instead
  // of letting them grow for the whole run. Kept when the sanitizer is
  // attached: their events carry provenance later waits may join.
  if (system.sanitizer() == nullptr) {
    in_flight_.clear();
    retired_ = submitted_;
  }
  return last_host_ - before;
}

namespace {
// Self-registration: both collective baselines are created by name
// through the registry, blocking and pipelined at the configured depth.
std::unique_ptr<EmbeddingRetriever> make(const SystemContext& ctx,
                                         int depth) {
  return std::make_unique<CollectiveRetriever>(
      ctx.layer, ctx.comm, depth, ctx.cache, ctx.route, ctx.codec);
}
const RetrieverRegistrar kBlocking{
    "nccl_collective", [](const SystemContext& ctx) { return make(ctx, 1); }};
const RetrieverRegistrar kPipelined{
    "nccl_pipelined",
    [](const SystemContext& ctx) { return make(ctx, ctx.pipeline_depth); }};
}  // namespace

}  // namespace pgasemb::core

// Linker anchor referenced by registry.cpp so this self-registering
// object survives static-archive selection (see registry.hpp).
extern "C" int pgasemb_retriever_link_nccl_collective() { return 0; }
