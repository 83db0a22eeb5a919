// RetrieverRegistry: string-keyed factories that make retrieval
// strategies pluggable end-to-end.
//
// Every strategy registers a factory under a stable name
// ("nccl_collective", "pgas_fused", "nccl_pipelined", ...).  The factory
// receives a SystemContext — the fully assembled simulated system — so a
// new strategy is one self-registering .cpp file; no enum, no harness
// switch, no bench edits.  ScenarioRunner (src/engine) and the bench
// `--retrievers=a,b,c` flag resolve names through this registry.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/retriever.hpp"
#include "pgas/aggregator.hpp"

namespace pgasemb {
namespace collective {
class Communicator;
}
namespace emb {
class ReplicaCache;
}
namespace fabric {
class Fabric;
class InterNodeCodec;
}
namespace fault {
class HierRoute;
}
namespace pgas {
class PgasRuntime;
}
}  // namespace pgasemb

namespace pgasemb::core {

/// Everything a retriever factory may wire against: the assembled
/// simulated system plus the strategy knobs from ExperimentConfig.
/// Built by engine::SystemBuilder; references outlive the retriever.
struct SystemContext {
  gpu::MultiGpuSystem& system;
  fabric::Fabric& fabric;
  collective::Communicator& comm;
  pgas::PgasRuntime& runtime;
  emb::ShardedEmbeddingLayer& layer;

  /// PGAS fused: kernel-timeline subdivisions for message injection.
  int pgas_slices = 128;
  /// PGAS fused: optional async aggregator (multi-node, paper §V).
  const pgas::AggregatorParams* aggregator = nullptr;
  /// Pipelined collective: in-flight batches (2 = double buffering).
  int pipeline_depth = 2;
  /// Hot-row replica cache (nullptr = disabled); retrievers that honor
  /// it serve hit bags from the local replica and exchange only misses.
  emb::ReplicaCache* cache = nullptr;

  /// Hierarchical routing across nodes (nullptr = flat). SystemBuilder
  /// already routes the communicator and the PGAS runtime through it;
  /// retrievers ask it which leaders their kernels use. The route holds
  /// no buffers: the collective retriever carves, picks and rebuilds the
  /// leader staging and declares it to each exchange.
  const fault::HierRoute* route = nullptr;
  /// Inter-node error-bounded codec (nullptr = compression off). The
  /// fabric-side wire accounting is already wired; Functional-mode
  /// retrievers pass it to their kernels so landed cross-node values
  /// carry the measured quantization error.
  fabric::InterNodeCodec* codec = nullptr;
};

class RetrieverRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<EmbeddingRetriever>(const SystemContext&)>;

  /// The process-wide registry (builtins are registered on first use).
  static RetrieverRegistry& instance();

  /// Registers `factory` under `name`. Re-registering a name replaces
  /// the previous factory (last registration wins).
  void add(const std::string& name, Factory factory);

  bool contains(const std::string& name) const;

  /// Instantiates the named strategy against `ctx`. Throws
  /// InvalidArgumentError listing the known names if `name` is not
  /// registered.
  std::unique_ptr<EmbeddingRetriever> create(const std::string& name,
                                             const SystemContext& ctx) const;

  /// Sorted registered names.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, Factory> factories_;
};

/// Self-registration helper: a namespace-scope
///   static const RetrieverRegistrar reg{"my_scheme", factory};
/// in the strategy's own .cpp registers it before main() runs.  Builtin
/// strategies living in this static library additionally export a
/// `pgasemb_retriever_link_<name>` anchor that registry.cpp references,
/// so the linker cannot drop their objects from binaries that only ever
/// name them as strings.
struct RetrieverRegistrar {
  RetrieverRegistrar(const std::string& name,
                     RetrieverRegistry::Factory factory) {
    RetrieverRegistry::instance().add(name, std::move(factory));
  }
};

}  // namespace pgasemb::core
