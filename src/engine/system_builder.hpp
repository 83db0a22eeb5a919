// SystemBuilder: assembles the simulated system an ExperimentConfig
// describes — devices, interconnect fabric, collective communicator,
// PGAS runtime, and the sharded embedding layer — and hands it to
// retriever factories as a core::SystemContext.
//
// The builder owns the assembly and can reset() it onto a fresh clock,
// so one builder serves any number of retriever runs (ScenarioRunner
// resets before each run; the simulation is deterministic, so a rebuilt
// system reproduces the seed harness bit-for-bit).
#pragma once

#include <memory>

#include "core/registry.hpp"
#include "engine/experiment.hpp"
#include "simsan/checker.hpp"

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
class FaultInjector;
class HierRoute;
}
namespace pgas {
class PgasRuntime;
}
namespace simsan {
class StrictEffects;
}
}  // namespace pgasemb

namespace pgasemb::engine {

class SystemBuilder {
 public:
  /// Copies `config`; the stored copy backs the aggregator pointer in
  /// context(), so it must not be mutated between reset() and the last
  /// use of a retriever built from that context.
  explicit SystemBuilder(const ExperimentConfig& config);
  ~SystemBuilder();

  SystemBuilder(const SystemBuilder&) = delete;
  SystemBuilder& operator=(const SystemBuilder&) = delete;

  /// Tears the assembly down (reverse construction order) and rebuilds
  /// it from the stored config on a fresh simulation clock.
  void reset();

  const ExperimentConfig& config() const { return config_; }

  gpu::MultiGpuSystem& system() { return *system_; }
  fabric::Fabric& fabric() { return *fabric_; }
  collective::Communicator& comm() { return *comm_; }
  pgas::PgasRuntime& runtime() { return *runtime_; }
  emb::ShardedEmbeddingLayer& layer() { return *layer_; }

  /// The hot-row replica cache of the current assembly, or nullptr when
  /// ExperimentConfig::cache_rows is 0. Invalidated by reset().
  emb::ReplicaCache* cache() { return cache_.get(); }

  /// The simsan checker attached to the current assembly, or nullptr
  /// when ExperimentConfig::simsan is off. Invalidated by reset().
  simsan::Checker* sanitizer() { return sanitizer_.get(); }

  /// Tests only: plants `bug` in the attached checker and in every one a
  /// later reset() attaches, so a test can check that simsan catches it
  /// by name. A run without simsan never takes a seeded path.
  void seedBug(simsan::SeededBug bug) {
    seeded_bug_ = bug;
    if (sanitizer_ != nullptr) sanitizer_->seedBug(bug);
  }

  /// The strict-effects recorder, or nullptr when
  /// ExperimentConfig::simsan_strict is off. Invalidated by reset().
  simsan::StrictEffects* strictEffects() { return strict_.get(); }

  /// The armed fault injector of the current assembly, or nullptr when
  /// ExperimentConfig::faults is empty. Invalidated by reset().
  fault::FaultInjector* faultInjector() { return injector_.get(); }

  /// The inter-node codec, or nullptr when ExperimentConfig::
  /// compress_bound is 0 or the topology is single-node. Invalidated by
  /// reset().
  fabric::InterNodeCodec* codec() { return codec_.get(); }

  /// The retriever-factory view of the current assembly. Invalidated by
  /// reset(); any retriever built from it must be destroyed first.
  core::SystemContext context();

 private:
  void build();

  ExperimentConfig config_;
  simsan::SeededBug seeded_bug_ = simsan::SeededBug::kNone;
  // Destroyed after the system (teardown frees report into it).
  std::unique_ptr<simsan::Checker> sanitizer_;
  std::unique_ptr<simsan::StrictEffects> strict_;
  std::unique_ptr<gpu::MultiGpuSystem> system_;
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<collective::Communicator> comm_;
  std::unique_ptr<pgas::PgasRuntime> runtime_;
  std::unique_ptr<emb::ShardedEmbeddingLayer> layer_;
  std::unique_ptr<emb::ReplicaCache> cache_;  // holds layer allocations
  // Armed against the system + fabric; runtime/comm hold raw pointers to
  // it, so it is torn down before them and rebuilt fresh on reset().
  std::unique_ptr<fault::FaultInjector> injector_;
  // Inter-node codec; runtime/comm hold raw pointers, torn down with the
  // assembly on reset().
  std::unique_ptr<fabric::InterNodeCodec> codec_;
  // Hierarchical route over the fabric and the injector; runtime/comm
  // hold raw pointers, torn down first on reset().
  std::unique_ptr<fault::HierRoute> route_;
};

}  // namespace pgasemb::engine
