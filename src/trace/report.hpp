// Reporters shared by the benchmark binaries: paper-style speedup
// tables, scaling-factor charts, breakdown bars, and comm-volume traces.
//
// All reporters consume engine::NamedResult runs keyed by registry name,
// so they render any subset of retrievers the benches sweep. The first
// run in a point is the reference (the paper's NCCL baseline in the
// default sweeps); speedups are reference over the last run.
#pragma once

#include <string>
#include <vector>

#include "engine/scenario_runner.hpp"

namespace pgasemb::trace {

/// Presentation metadata for a registry name: chart legend label, short
/// table/CSV key, and plot marker. Unknown names fall back to the raw
/// registry name and its first character.
struct RunStyle {
  std::string display;
  std::string short_name;
  char marker;
};
RunStyle runStyle(const std::string& retriever);

/// Lowercase short key for CSV columns and compact console rows
/// ("baseline", "pgas", "pipelined", ...).
std::string runKey(const std::string& retriever);

/// One scaling data point: every retriever's result at `gpus`.
struct ScalingPoint {
  int gpus = 0;
  std::vector<engine::NamedResult> runs;

  /// Reference run (first; the baseline in the default sweeps).
  const engine::NamedResult& reference() const;
  /// Treatment run (last; PGAS fused in the default sweeps).
  const engine::NamedResult& treatment() const;
  const engine::NamedResult* find(const std::string& retriever) const;

  /// reference avg-batch time / treatment avg-batch time. Returns 0.0
  /// (no crash, no inf) when the point is empty or the treatment time
  /// is not positive.
  double speedup() const;
};

/// Renders the paper's speedup table ("Speedup | 2 GPUs | 3 GPUs | 4
/// GPUs") plus the geometric mean, from multi-GPU points: one row per
/// non-reference retriever.
std::string renderSpeedupTable(const std::vector<ScalingPoint>& points);

/// Geometric mean of the multi-GPU reference/treatment speedups (the
/// paper's headline 1.97x / 2.63x numbers).
double geomeanSpeedup(const std::vector<ScalingPoint>& points);

/// Weak-scaling factor chart (runtime / 1-GPU runtime; ideal = 1.0,
/// paper Fig 5) or strong-scaling chart (1-GPU runtime / runtime; ideal
/// = p, paper Fig 8), one series per retriever.
std::string renderScalingChart(const std::vector<ScalingPoint>& points,
                               bool weak);

/// Runtime-breakdown stacked bars (paper Figs 6 / 9). Runs with a
/// separable communication or sync+unpack phase get three components;
/// fused/pipelined runs render as one bar segment.
std::string renderBreakdownBars(const std::vector<ScalingPoint>& points,
                                const std::string& title);

/// Comm-volume-over-time chart in 256-byte units (paper Figs 7 / 10),
/// one series per run.
std::string renderCommVolumeChart(const std::vector<engine::NamedResult>& runs,
                                  const std::string& title);

/// Replica-cache summary table (hit rate and exchange bytes saved per
/// retriever per GPU count). Returns "" when no run probed a cache, so
/// callers can print it unconditionally and stay absent-neutral.
std::string renderCacheTable(const std::vector<ScalingPoint>& points);

/// Inter-node compression summary (DESIGN.md §12): per run, the wire
/// compression ratio and adaptive hot/cool decisions, then one row per
/// table with the quantization width and the measured (Functional mode)
/// max/mean absolute error. Returns "" when no run carried a
/// compression report, so callers can print it unconditionally and stay
/// absent-neutral.
std::string renderCompressionTable(
    const std::vector<engine::NamedResult>& runs);

/// Resilience summary table (drops, retransmits, collective reissues,
/// launch retries, recovery time, SLO fallbacks per retriever per GPU
/// count). Returns "" when no run recorded resilience stats, so callers
/// can print it unconditionally and stay absent-neutral.
std::string renderResilienceTable(const std::vector<ScalingPoint>& points);

/// Write a scaling sweep as CSV rows for offline plotting. Column names
/// derive from each run's short name; the default baseline-vs-PGAS sweep
/// reproduces the historical schema (gpus, baseline_ms, pgas_ms, ...).
void writeScalingCsv(const std::string& path,
                     const std::vector<ScalingPoint>& points);

// --- Serving (open-loop) reporters ----------------------------------------

/// One serving sweep point: every retriever's result at (arrival
/// pattern, offered qps). Each run must carry a populated
/// ExperimentResult::serving section.
struct ServingPoint {
  std::string arrival;  ///< "poisson" / "bursty"
  double qps = 0.0;
  std::vector<engine::NamedResult> runs;
};

/// Per-point tail-latency table: p50/p95/p99, achieved vs offered QPS,
/// batch fill, queue depth, SLO violations per retriever. Admission
/// columns (shed counts, deadline misses, goodput) appear only when
/// some run enabled an admission knob.
std::string renderServingTable(const std::vector<ServingPoint>& points);

/// Resilience summary of a serving sweep (same columns as the scaling
/// variant, keyed by arrival/qps instead of GPU count). Returns "" when
/// no run recorded resilience stats, so callers can print it
/// unconditionally and stay absent-neutral.
std::string renderServingResilienceTable(
    const std::vector<ServingPoint>& points);

/// The knee rule: a serving point is sustained when the system kept up
/// with the offered load (achieved within 5% of offered) and, when an
/// SLO is set (slo_ms > 0), met it at the tail (p99 <= slo_ms).
bool sustained(const engine::ServingResult& sv, double slo_ms);

/// Knee-of-the-curve summary: per (arrival, retriever), the largest
/// offered QPS the system sustains (see sustained()). "-" when no point
/// qualifies.
std::string renderServingSummary(const std::vector<ServingPoint>& points,
                                 double slo_ms);

/// Latency histogram chart of one run (count per log-spaced bin).
std::string renderLatencyHistogram(const engine::ExperimentResult& result,
                                   const std::string& title);

/// p95-over-time chart (one point per timeline window of queries), one
/// series per run — brownout dips and fallback recovery show up here.
std::string renderP95Timeline(const std::vector<engine::NamedResult>& runs,
                              const std::string& title);

/// Serving sweep CSV: one row per (arrival, qps, retriever).
void writeServingCsv(const std::string& path,
                     const std::vector<ServingPoint>& points);

}  // namespace pgasemb::trace
