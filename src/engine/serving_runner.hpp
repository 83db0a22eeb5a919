// ServingRunner: the open-loop serving front end — load generator ->
// dynamic batcher -> BatchExecutor — reporting per-query tail latency.
//
// Queries arrive on the simulated clock independent of service times
// (open loop); the batcher forms fixed-shape batches (padding the tail
// with NULL inputs) and the executor runs them back to back, advancing
// the host clocks through idle gaps. Per-query latency = arrival ->
// host-observed completion of the query's batch; its queueing component
// is arrival -> batch close. The SLO fallback fires on the sliding
// per-query p95 (BatchExecutor query mode), so retriever choice adapts
// to load, and a fault plan can run underneath for brownout scenarios.
#pragma once

#include <string>
#include <vector>

#include "engine/system_builder.hpp"

namespace pgasemb::engine {

struct NamedResult;

class ServingRunner {
 public:
  /// `config.serving.enabled()` must be true.
  explicit ServingRunner(const ExperimentConfig& config);

  const ExperimentConfig& config() const { return builder_.config(); }
  SystemBuilder& builder() { return builder_; }

  /// Rebuilds the system and serves the full query stream through
  /// `retriever_name`, returning the closed-loop fields plus a
  /// populated ExperimentResult::serving section.
  ExperimentResult run(const std::string& retriever_name);

  /// run() for each name, in order (same seeded query stream each).
  std::vector<NamedResult> runAll(const std::vector<std::string>& names);

 private:
  SystemBuilder builder_;
};

}  // namespace pgasemb::engine
