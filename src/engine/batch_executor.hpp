// BatchExecutor: the per-batch execution body both front ends share.
//
// The closed-loop ScenarioRunner and the open-loop ServingRunner differ
// only in where batches come from (a fixed schedule vs a dynamic
// batcher over a query stream) and in what feeds the SLO tracker
// (per-batch totals vs per-query latencies). Everything else — run the
// batch, record its timing, evaluate the SLO, drain and swap to the
// fallback retriever, drain at end of run — lives here, once, so the
// two paths cannot drift.
#pragma once

#include <memory>
#include <string>

#include "core/fallback.hpp"
#include "core/retriever.hpp"
#include "engine/system_builder.hpp"

namespace pgasemb::engine {

class BatchExecutor {
 public:
  /// How the SLO tracker is fed. Batch mode evaluates each batch total
  /// and swaps inline (the historical closed-loop behaviour); query
  /// mode leaves the tracker to recordQueryLatency() and defers the
  /// swap to the next maybeSwap() call, between batches.
  enum class SloMode { kPerBatch, kPerQuery };

  /// Creates the initial retriever from the registry. The builder must
  /// already be reset() onto a fresh clock.
  BatchExecutor(SystemBuilder& builder, const std::string& retriever_name,
                SloMode slo_mode = SloMode::kPerBatch);

  /// Runs one batch on the active retriever and records its timing into
  /// `result` (stats + per_batch). In batch mode also feeds the SLO
  /// tracker and performs a pending fallback swap immediately.
  core::BatchTiming runOne(const emb::SparseBatch& batch,
                           ExperimentResult& result);

  /// Query mode: feed one end-to-end query latency to the SLO tracker.
  /// Returns true when the tracker fired and a swap is now pending.
  bool recordQueryLatency(SimTime latency);

  /// Performs a pending fallback swap: drain the active retriever
  /// (recorded as a DrainEntry; the drain time joins stats.total as
  /// before), then recreate from the registry as core::kFallbackRetriever.
  /// Returns true when a swap actually happened.
  bool maybeSwap(ExperimentResult& result);

  /// End of schedule: drain in-flight batches (pipelined strategies)
  /// into stats.total.
  void finishRun(ExperimentResult& result);

  /// The active retriever's output tensor on `gpu` (simsan epilogue).
  const gpu::DeviceBuffer& output(int gpu) const;

  /// Frees the retriever's working buffers (before a leak audit).
  void destroyRetriever() { retriever_.reset(); }

  const std::string& activeName() const { return active_; }
  std::int64_t fallbackSwitches() const { return fallback_switches_; }
  const core::SloTracker& slo() const { return slo_; }

 private:
  void requestSwapIfEligible();

  SystemBuilder& builder_;
  std::unique_ptr<core::EmbeddingRetriever> retriever_;
  core::SloTracker slo_;
  SloMode slo_mode_;
  std::string active_;
  std::int64_t fallback_switches_ = 0;
  int batches_run_ = 0;
  bool swap_pending_ = false;
};

/// The shared run epilogue: resilience accounting, the simsan
/// output-consumption + leak audit, wire counters, and the ncu-style
/// lookup throughput (computed from `throughput_batch`, the full-shape
/// statistical batch). Destroys the executor's retriever when simsan
/// is attached (the leak audit requires it).
void finalizeResult(SystemBuilder& builder, BatchExecutor& exec,
                    const emb::SparseBatch& throughput_batch,
                    ExperimentResult& result);

}  // namespace pgasemb::engine
