#include "fabric/topology.hpp"

#include <string>

#include "util/expect.hpp"

namespace pgasemb::fabric {

NvlinkAllToAllTopology::NvlinkAllToAllTopology(int num_gpus,
                                               const LinkParams& params)
    : num_gpus_(num_gpus) {
  PGASEMB_CHECK(num_gpus >= 1, "need at least one GPU");
  links_.resize(static_cast<std::size_t>(num_gpus) * num_gpus);
  for (int s = 0; s < num_gpus; ++s) {
    for (int d = 0; d < num_gpus; ++d) {
      if (s == d) continue;
      links_[static_cast<std::size_t>(s) * num_gpus + d] =
          std::make_unique<Link>(
              "nvlink." + std::to_string(s) + "->" + std::to_string(d),
              params);
    }
  }
  buildRoutes([this](int s, int d, std::vector<Link*>& out) {
    out.push_back(&link(s, d));
  });
}

Link& NvlinkAllToAllTopology::link(int src, int dst) {
  PGASEMB_CHECK(src >= 0 && src < num_gpus_ && dst >= 0 && dst < num_gpus_ &&
                    src != dst,
                "bad link endpoints ", src, "->", dst);
  return *links_[static_cast<std::size_t>(src) * num_gpus_ + dst];
}

std::vector<Link*> NvlinkAllToAllTopology::links() {
  std::vector<Link*> out;
  for (auto& l : links_) {
    if (l) out.push_back(l.get());
  }
  return out;
}

NvSwitchTopology::NvSwitchTopology(int num_gpus,
                                   const LinkParams& port_params)
    : num_gpus_(num_gpus) {
  PGASEMB_CHECK(num_gpus >= 1, "need at least one GPU");
  for (int g = 0; g < num_gpus; ++g) {
    up_.push_back(std::make_unique<Link>(
        "nvswitch.gpu" + std::to_string(g) + ".up", port_params));
    down_.push_back(std::make_unique<Link>(
        "nvswitch.gpu" + std::to_string(g) + ".down", port_params));
  }
  buildRoutes([this](int s, int d, std::vector<Link*>& out) {
    out.push_back(up_[static_cast<std::size_t>(s)].get());
    out.push_back(down_[static_cast<std::size_t>(d)].get());
  });
}

std::vector<Link*> NvSwitchTopology::links() {
  std::vector<Link*> out;
  for (auto& l : up_) out.push_back(l.get());
  for (auto& l : down_) out.push_back(l.get());
  return out;
}

RingTopology::RingTopology(int num_gpus, const LinkParams& params)
    : num_gpus_(num_gpus) {
  PGASEMB_CHECK(num_gpus >= 1, "need at least one GPU");
  for (int g = 0; g < num_gpus; ++g) {
    hops_.push_back(std::make_unique<Link>(
        "ring." + std::to_string(g) + "->" +
            std::to_string((g + 1) % num_gpus),
        params));
  }
  buildRoutes([this](int s, int d, std::vector<Link*>& out) {
    for (int hop = s; hop != d; hop = (hop + 1) % num_gpus_) {
      out.push_back(hops_[static_cast<std::size_t>(hop)].get());
    }
  });
}

std::vector<Link*> RingTopology::links() {
  std::vector<Link*> out;
  for (auto& l : hops_) out.push_back(l.get());
  return out;
}

MultiNodeTopology::MultiNodeTopology(int num_nodes, int gpus_per_node,
                                     const LinkParams& intra_params,
                                     const LinkParams& inter_params,
                                     bool shared_nic_queue)
    : num_nodes_(num_nodes), gpus_per_node_(gpus_per_node) {
  PGASEMB_CHECK(num_nodes >= 1 && gpus_per_node >= 1,
                "need at least one node and one GPU per node");
  const int n = numGpus();
  intra_links_.resize(static_cast<std::size_t>(n) * n);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d || nodeOf(s) != nodeOf(d)) continue;
      intra_links_[static_cast<std::size_t>(s) * n + d] =
          std::make_unique<Link>(
              "nvlink." + std::to_string(s) + "->" + std::to_string(d),
              intra_params);
    }
  }
  for (int node = 0; node < num_nodes; ++node) {
    nic_up_.push_back(std::make_unique<Link>(
        "nic" + std::to_string(node) + ".up", inter_params));
    nic_down_.push_back(std::make_unique<Link>(
        "nic" + std::to_string(node) + ".down", inter_params));
    nic_up_.back()->setLinkClass(LinkClass::kInter);
    nic_down_.back()->setLinkClass(LinkClass::kInter);
    if (shared_nic_queue) {
      nic_down_.back()->setWireQueue(&nic_up_.back()->fifo());
    }
  }
  buildRoutes([this, n](int s, int d, std::vector<Link*>& out) {
    if (nodeOf(s) == nodeOf(d)) {
      out.push_back(intra_links_[static_cast<std::size_t>(s) * n + d].get());
      return;
    }
    out.push_back(nic_up_[static_cast<std::size_t>(nodeOf(s))].get());
    out.push_back(nic_down_[static_cast<std::size_t>(nodeOf(d))].get());
  });
}

std::vector<Link*> MultiNodeTopology::nicLinks(int node) {
  PGASEMB_CHECK(node >= 0 && node < num_nodes_, "bad NIC node ", node);
  return {nic_up_[static_cast<std::size_t>(node)].get(),
          nic_down_[static_cast<std::size_t>(node)].get()};
}

std::vector<Link*> MultiNodeTopology::links() {
  std::vector<Link*> out;
  for (auto& l : intra_links_) {
    if (l) out.push_back(l.get());
  }
  for (auto& l : nic_up_) out.push_back(l.get());
  for (auto& l : nic_down_) out.push_back(l.get());
  return out;
}

}  // namespace pgasemb::fabric
