#include "core/registry.hpp"

#include <sstream>

#include "util/expect.hpp"

// Linker anchors exported by the builtin strategies' translation units
// (see RetrieverRegistrar in registry.hpp). Referencing them here pulls
// those objects — and their self-registrations — into any binary that
// uses the registry.
extern "C" {
int pgasemb_retriever_link_nccl_collective();
int pgasemb_retriever_link_pgas_fused();
}

namespace pgasemb::core {

RetrieverRegistry& RetrieverRegistry::instance() {
  static RetrieverRegistry registry;
  static const int force_link = pgasemb_retriever_link_nccl_collective() +
                                pgasemb_retriever_link_pgas_fused();
  (void)force_link;
  return registry;
}

void RetrieverRegistry::add(const std::string& name, Factory factory) {
  PGASEMB_CHECK(!name.empty(), "retriever name must be non-empty");
  factories_[name] = std::move(factory);
}

bool RetrieverRegistry::contains(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::unique_ptr<EmbeddingRetriever> RetrieverRegistry::create(
    const std::string& name, const SystemContext& ctx) const {
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::ostringstream msg;
    msg << "unknown retriever '" << name << "'; registered:";
    for (const auto& known : names()) msg << " " << known;
    throw InvalidArgumentError(msg.str());
  }
  return it->second(ctx);
}

std::vector<std::string> RetrieverRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

}  // namespace pgasemb::core
