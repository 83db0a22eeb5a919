// The benchmark's four workloads and the metric record they produce.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

/// Retrievers every workload reports per-layer numbers for; a workload
/// that does not run one reports its metrics as 0.
inline const std::vector<std::string> kRetrievers = {
    "nccl_collective", "pgas_fused", "nccl_pipelined"};
/// The two retrievers every workload runs (and the end-to-end metrics
/// are keyed by).
inline const std::vector<std::string> kMainRetrievers = {"nccl_collective",
                                                         "pgas_fused"};
/// serve_skewed's offered-load sweep (queries per simulated second).
inline const std::vector<double> kServeRates = {16000, 24000, 32000, 40000,
                                                48000, 56000, 64000};
/// serve_skewed's per-query latency limit on p99.
inline constexpr double kServeP99LimitMs = 2.0;
/// serve_skewed's reference rate for the latency metrics: below both
/// retrievers' knees, where p99 is steady from seed to seed.
inline constexpr double kServeRefQps = 24000;

const std::vector<std::string>& workloadNames();

/// Metric name -> value. Names follow `[A-Za-z0-9_.-]+`.
using Values = std::map<std::string, double>;

/// Host cost of one run (one retriever/pairing, or one serving rate).
struct RunHost {
  double setup_ns = 0.0;         ///< assembly + the run's first batch
  std::vector<double> batch_ns;  ///< each later batch (or step)
};

/// One repetition of a workload: every retriever/pairing is set up and
/// run once for the workload's fixed run length.
struct Rep {
  Values sim;     ///< simulated metrics; identical for equal seeds
  Values traced;  ///< layer metrics that need the trace (traced reps only)
  std::map<std::string, RunHost> host;  ///< by run name
  std::int64_t attempted = 0;  ///< batches, steps and queries
  std::int64_t failed = 0;
  std::vector<std::string> errors;
};

/// Runs one repetition of `workload` for `seed`. With the tracer enabled,
/// spans and the kernel log are recorded and Rep::traced is filled.
Rep runRep(const std::string& workload, std::uint64_t seed, Tracer& tracer);

/// Functional-mode replay of a reduced copy of `workload` (same topology,
/// routing, cache and compression): retriever outputs are checked against
/// the serial reference and predictions across retrievers. Only
/// attempted/failed/errors are filled.
Rep replayFunctional(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
