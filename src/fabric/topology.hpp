// Interconnect topologies.
//
// A topology owns the directed links of a system and maps (src GPU, dst
// GPU) to the ordered sequence of links a flow traverses.
//
//  - NvlinkAllToAllTopology: the paper's testbed — every GPU pair is
//    directly connected (DGX V100, NVLink), one dedicated directed link
//    per ordered pair, so pairwise flows never contend.
//  - MultiNodeTopology: the future-work target — NVLink inside a node,
//    and one shared NIC up-link/down-link per node for inter-node flows
//    (higher latency, lower bandwidth, message-rate-limited), which is
//    where the async aggregator pays off.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "fabric/link.hpp"
#include "util/expect.hpp"

namespace pgasemb::fabric {

class Topology {
 public:
  virtual ~Topology() = default;

  virtual int numGpus() const = 0;

  /// Ordered links a flow from `src` to `dst` traverses. Empty for local
  /// (src == dst) transfers. Every route is built once, with the
  /// topology, so a transfer walks its route without allocating.
  std::span<Link* const> route(int src, int dst) const {
    PGASEMB_CHECK(src >= 0 && src < route_gpus_ && dst >= 0 &&
                      dst < route_gpus_,
                  "bad route endpoints ", src, "->", dst);
    const auto pair = static_cast<std::size_t>(src) * route_gpus_ + dst;
    return {route_links_.data() + route_begin_[pair],
            route_begin_[pair + 1] - route_begin_[pair]};
  }

  /// All links (for counters/reset/utilization reports).
  virtual std::vector<Link*> links() = 0;

  // --- Node structure (topology-aware routing) ----------------------------
  // Single-node topologies keep the defaults: one node holding every GPU,
  // so every pair classifies as intra-node.

  /// Routing class of a (src, dst) GPU pair: intra-node NVLink or
  /// inter-node NIC.  Local (src == dst) pairs are intra by convention.
  virtual LinkClass routeClass(int src, int dst) const {
    (void)src;
    (void)dst;
    return LinkClass::kIntra;
  }

  virtual int numNodes() const { return 1; }
  virtual int gpusPerNode() const { return numGpus(); }
  virtual int nodeOf(int gpu) const {
    (void)gpu;
    return 0;
  }

  /// Leader GPU of a node (the rank that stages hierarchical all-to-all
  /// traffic): the node's first GPU.  This is the *default* leadership;
  /// under a leader-fail fault window the injector's fault domains
  /// re-elect the next GPU on the node (see fault::NodeFaultDomains).
  int nodeLeader(int node) const { return node * gpusPerNode(); }

  /// The NIC links (up then down) of a node, for node-scoped fault
  /// arming. Single-node topologies have none.
  virtual std::vector<Link*> nicLinks(int node) {
    (void)node;
    return {};
  }

  /// True when every ordered (src, dst) pair routes over links used by
  /// no other pair, so flows from different sources can never contend.
  /// This is the topological safety condition for the TimingOnly
  /// per-flow coalescing fast path: reordering one source's injections
  /// relative to other sources' events cannot change any link grant.
  /// Shared-resource topologies (NVSwitch ports, ring hops, NICs) must
  /// keep the default `false`.
  virtual bool dedicatedPairLinks() const { return false; }

 protected:
  /// Fills the route table. Each concrete topology's constructor calls
  /// it once its links exist: `hops(src, dst, out)` appends the links of
  /// the src -> dst route (src != dst) to `out`.
  template <typename Hops>
  void buildRoutes(Hops&& hops) {
    route_gpus_ = numGpus();
    const auto n = static_cast<std::size_t>(route_gpus_);
    route_begin_.assign(n * n + 1, 0);
    for (int s = 0; s < route_gpus_; ++s) {
      for (int d = 0; d < route_gpus_; ++d) {
        route_begin_[static_cast<std::size_t>(s) * n + d] =
            route_links_.size();
        if (s != d) hops(s, d, route_links_);
      }
    }
    route_begin_.back() = route_links_.size();
  }

 private:
  int route_gpus_ = 0;
  /// Every route's links back to back; pair (s, d)'s route is
  /// route_links_[route_begin_[s * n + d], route_begin_[s * n + d + 1]).
  std::vector<Link*> route_links_;
  std::vector<std::size_t> route_begin_;
};

/// Fully connected single-node NVLink system (the paper's DGX).
class NvlinkAllToAllTopology final : public Topology {
 public:
  NvlinkAllToAllTopology(int num_gpus, const LinkParams& params);

  int numGpus() const override { return num_gpus_; }
  std::vector<Link*> links() override;
  bool dedicatedPairLinks() const override { return true; }

  Link& link(int src, int dst);

 private:
  int num_gpus_;
  // Dense (src, dst) matrix of directed links; diagonal unused.
  std::vector<std::unique_ptr<Link>> links_;
};

/// NVSwitch-style topology: every GPU has one full-bandwidth up link and
/// one down link to a central crossbar (DGX-2 / NVSwitch systems). All
/// of a GPU's egress traffic shares its up port, so fan-out flows
/// contend at the port rather than pairwise (contrast with
/// NvlinkAllToAllTopology's dedicated pair links).
class NvSwitchTopology final : public Topology {
 public:
  NvSwitchTopology(int num_gpus, const LinkParams& port_params);

  int numGpus() const override { return num_gpus_; }
  std::vector<Link*> links() override;

 private:
  int num_gpus_;
  std::vector<std::unique_ptr<Link>> up_;
  std::vector<std::unique_ptr<Link>> down_;
};

/// Unidirectional ring: GPU i connects to (i+1) % n; a flow to a
/// non-neighbor traverses every intermediate hop (store-and-forward).
/// Models constrained consumer multi-GPU boxes without full NVLink
/// meshes.
class RingTopology final : public Topology {
 public:
  RingTopology(int num_gpus, const LinkParams& params);

  int numGpus() const override { return num_gpus_; }
  std::vector<Link*> links() override;

 private:
  int num_gpus_;
  std::vector<std::unique_ptr<Link>> hops_;  // hops_[i]: i -> (i+1)%n
};

/// Multiple NVLink nodes joined by per-node NIC links.
///
/// With `shared_nic_queue` set, a node's down link serializes through
/// the up link's FIFO, modeling the NIC's single DMA engine: concurrent
/// flows touching one node's NIC in either direction contend per node
/// instead of per direction.
class MultiNodeTopology final : public Topology {
 public:
  MultiNodeTopology(int num_nodes, int gpus_per_node,
                    const LinkParams& intra_params,
                    const LinkParams& inter_params,
                    bool shared_nic_queue = false);

  int numGpus() const override { return num_nodes_ * gpus_per_node_; }
  std::vector<Link*> links() override;

  LinkClass routeClass(int src, int dst) const override {
    return nodeOf(src) == nodeOf(dst) ? LinkClass::kIntra : LinkClass::kInter;
  }
  int numNodes() const override { return num_nodes_; }
  int gpusPerNode() const override { return gpus_per_node_; }
  int nodeOf(int gpu) const override { return gpu / gpus_per_node_; }
  std::vector<Link*> nicLinks(int node) override;

 private:
  int num_nodes_;
  int gpus_per_node_;
  std::vector<std::unique_ptr<Link>> intra_links_;  // per (node, src, dst)
  std::vector<std::unique_ptr<Link>> nic_up_;       // per node
  std::vector<std::unique_ptr<Link>> nic_down_;     // per node
};

}  // namespace pgasemb::fabric
