// Experiment description and result types for the engine layer.
//
// ExperimentConfig describes one simulated system + workload (devices,
// fabric, sharded EMB layer, batch schedule); ExperimentResult collects
// everything the paper's tables and figures report — phase breakdowns,
// wire traffic over time, and ncu-style kernel throughput fractions.
// SystemBuilder assembles the system; ScenarioRunner runs any registered
// retriever strategy on it by name.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fallback.hpp"
#include "core/latency_histogram.hpp"
#include "core/retriever.hpp"
#include "emb/workload.hpp"
#include "fabric/link.hpp"
#include "fault/plan.hpp"
#include "gpu/cost_model.hpp"
#include "pgas/aggregator.hpp"
#include "simsan/checker.hpp"

namespace pgasemb::engine {

/// Query arrival process of the open-loop load generator.
enum class ArrivalPattern {
  kPoisson,  ///< exponential inter-arrivals at `qps`
  kBursty,   ///< on/off: Poisson bursts at an elevated rate, then silence
};

/// Parses "poisson" / "bursty" (throws InvalidArgumentError otherwise).
ArrivalPattern parseArrivalPattern(const std::string& name);
std::string formatArrivalPattern(ArrivalPattern pattern);

/// What the admission layer does with an arriving query when the
/// bounded queue (`ServingConfig::admit_queue`) is full.
enum class ShedPolicy {
  kBlock,       ///< admit anyway; count the over-bound admit
  kShedOldest,  ///< evict the head of the queue, admit the arrival
  kShedNewest,  ///< drop the arrival at the door
};

/// Parses "block" / "shed-oldest" / "shed-newest" (throws
/// InvalidArgumentError otherwise).
ShedPolicy parseShedPolicy(const std::string& name);
std::string formatShedPolicy(ShedPolicy policy);

/// Open-loop serving front end (ServingRunner): a timestamped query
/// stream feeding a dynamic batcher in front of the retriever. Default
/// num_queries = 0 keeps serving off and every closed-loop code path
/// untouched.
struct ServingConfig {
  /// Queries to generate; 0 disables the serving path entirely.
  std::int64_t num_queries = 0;
  /// Offered load in queries per second (of simulated time).
  double qps = 1000.0;
  ArrivalPattern arrival = ArrivalPattern::kPoisson;
  /// kBursty: burst / silence window lengths. The in-burst rate is
  /// scaled up so the long-run average stays `qps`.
  double burst_on_ms = 5.0;
  double burst_off_ms = 5.0;
  /// Samples (candidate items) per query.
  emb::QuerySizeSpec query_size;
  /// Dynamic-batcher close rules: a batch dispatches when it holds
  /// `max_batch_size` samples (0 = the layer's batch_size) or the first
  /// query in it has waited `max_wait_ms` of simulated time.
  std::int64_t max_batch_size = 0;
  double max_wait_ms = 0.1;
  /// Absolute per-query latency SLO for violation counting (and the
  /// knee-of-the-curve summaries); 0 = no SLO accounting.
  double slo_ms = 0.0;
  /// Seed of the arrival/size stream (independent of batch_seed).
  std::uint64_t seed = 0x5e12;
  /// Queries per non-overlapping window of the p95-over-time timeline.
  int timeline_window = 100;
  /// Bounded admission queue (pending queries); 0 = unbounded, exactly
  /// the pre-admission behavior. When the backlog hits the bound,
  /// `shed_policy` decides which query pays.
  std::int64_t admit_queue = 0;
  ShedPolicy shed_policy = ShedPolicy::kBlock;
  /// Per-query queue-wait deadline (ms of simulated time): a query
  /// still unserved when it expires is shed as a deadline miss instead
  /// of being served hopelessly late. 0 = off.
  double query_deadline_ms = 0.0;
  /// Sliding-window admission controller: completed queries per p95
  /// window; while the window p95 exceeds `slo_ms` a deterministic
  /// fraction of incoming queries is shed at the door. 0 = off
  /// (requires slo_ms > 0 when set).
  int admit_window = 0;

  bool enabled() const { return num_queries > 0; }
  bool admissionEnabled() const {
    return admit_queue > 0 || query_deadline_ms > 0.0 ||
           (admit_window > 0 && slo_ms > 0.0);
  }
};

struct ExperimentConfig {
  emb::EmbLayerSpec layer;
  int num_gpus = 4;
  int num_batches = emb::kPaperNumBatches;
  gpu::ExecutionMode mode = gpu::ExecutionMode::kTimingOnly;
  std::int64_t device_memory_bytes = 32LL * 1024 * 1024 * 1024;
  gpu::CostModel cost_model;
  fabric::LinkParams link;  ///< defaults = V100 NVLink
  emb::ShardingScheme sharding = emb::ShardingScheme::kTableWise;
  int pgas_slices = 128;
  bool use_aggregator = false;
  pgas::AggregatorParams aggregator;
  /// In-flight batches for the pipelined collective strategy.
  int pipeline_depth = 2;
  /// Hot-row replica cache capacity per table per GPU (rows, >= 0); 0
  /// disables the cache entirely (every code path identical to a
  /// cache-less build). Table-wise sharding only.
  std::int64_t cache_rows = 0;
  /// Multi-node layout: 0 = single node (paper testbed). When > 0,
  /// `num_gpus` must be divisible by it and `inter_node_link` applies to
  /// cross-node traffic.
  int num_nodes = 0;
  fabric::LinkParams inter_node_link;
  /// Hierarchical routing (--hierarchical-a2a): inter-node traffic is
  /// gathered at per-node leaders, crosses the NIC leader to leader and
  /// is scattered on arrival. The collective ships one aggregated flow
  /// per node pair; PGAS leaders hold a remote node's slices until one
  /// message clears the NIC's message-rate floor. Requires num_nodes > 1
  /// to do anything; false keeps every path bit-identical to earlier
  /// builds.
  bool hierarchical_a2a = false;
  /// Error-bounded inter-node compression (--compress-bound): absolute
  /// per-value bound of the lossy codec; 0 = off (no codec is built and
  /// every path is bit-identical to earlier builds). Needs num_nodes > 1
  /// and table-wise sharding.
  double compress_bound = 0.0;
  /// Adaptive ratio control (--compress-adaptive): compress at the
  /// minimal width only while the node's observed NIC egress is hot,
  /// light 16-bit mantissas otherwise. Implies compress_bound > 0.
  bool compress_adaptive = false;
  /// Model each node's NIC as a single serialization engine: the down
  /// link drains through the up link's FIFO, so a node's ingress and
  /// egress contend (real NICs share DMA/PCIe resources). Off by
  /// default for parity with earlier builds.
  bool nic_shared_queue = false;
  /// Time-series bucket width for the comm-volume traces.
  SimTime counter_bucket = SimTime::us(20.0);
  /// TimingOnly fast path: coalesce a kernel's per-slice injection
  /// events into one synchronous per-flow pass when provably
  /// result-identical (see PgasRuntime::setCoalescingEnabled). False =
  /// the --no-coalesce escape hatch: always schedule one simulator
  /// event per slice. Simulated results are identical either way; only
  /// wall-clock differs.
  bool coalesce_flows = true;
  std::uint64_t batch_seed = 0xbeef;
  /// Attach the simsan happens-before/bounds/lifetime checker to the
  /// run. Purely observational: timings and outputs are unchanged.
  bool simsan = false;
  /// Strict-effects mode (--simsan-strict, implies `simsan`): record the
  /// simulated-memory ranges each kernel/transfer actually touches and
  /// fail the run when an access escapes the declared MemEffect
  /// footprint. Purely observational: timings and outputs are unchanged.
  bool simsan_strict = false;
  /// Deterministic fault plan (--faults/--fault-seed). Empty = no
  /// injector is built and every code path stays bit-identical to a
  /// fault-free build.
  fault::FaultPlan faults;
  /// SLO degradation policy: when enabled, the closed-loop path swaps
  /// the active retriever for core::kFallbackRetriever after `patience`
  /// consecutive over-SLO batches; the serving path fires on the
  /// sliding-window per-query p95 instead.
  core::FallbackPolicy fallback;
  /// Open-loop serving front end; `serving.enabled()` == false keeps
  /// every closed-loop code path untouched.
  ServingConfig serving;

  /// Cross-field validation shared by benches (at flag-parse time) and
  /// runners (before a run). Throws InvalidArgumentError with a pointed
  /// message on the first violation.
  void validate() const;
};

/// One drained retriever at a mid-run SLO fallback: the swap's
/// finish() time, which the run total absorbs but no batch timing
/// carries (satellite of the tail-latency work — without it the
/// post-fallback tail understates the switch cost).
struct DrainEntry {
  int after_batch = 0;        ///< batches completed when the drain ran
  std::string retriever;      ///< the strategy that was drained
  SimTime drain_time = SimTime::zero();
};

/// Serving-path results (per-query tails); populated only when
/// ServingConfig::enabled().
struct ServingResult {
  std::int64_t queries = 0;
  std::int64_t batches = 0;

  /// End-to-end per-query latency (arrival -> batch completion) and its
  /// queueing component (arrival -> batch close).
  core::LatencyHistogram latency;
  core::LatencyHistogram queue_latency;

  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double mean_queue_ms = 0.0;

  /// Offered vs sustained load: achieved = queries / (last completion -
  /// first arrival). Achieved far below offered = the system fell
  /// behind (the queue grew without bound over the run).
  double offered_qps = 0.0;
  double achieved_qps = 0.0;

  /// Dynamic-batcher shape: mean fill of the fixed-size batch and the
  /// per-batch active-sample counts (the batch-size histogram).
  double mean_batch_fill = 0.0;
  std::vector<std::int64_t> per_batch_samples;

  /// Queries still queued when each batch closed (mean/max over
  /// batches) — the backlog the batcher could not drain.
  double mean_queue_depth = 0.0;
  std::int64_t max_queue_depth = 0;

  /// Queries whose end-to-end latency exceeded ServingConfig::slo_ms.
  std::int64_t slo_violations = 0;

  /// p95 (ms) per non-overlapping window of `timeline_window` queries,
  /// in completion order — brownout recovery is visible here.
  std::vector<double> window_p95_ms;

  /// Overload-resilience accounting (ServingConfig admission knobs);
  /// all zero — and `admission` false — when none of them is set.
  bool admission = false;
  std::int64_t shed_queue = 0;       ///< bounded-queue sheds
  std::int64_t shed_overload = 0;    ///< admission-controller sheds
  std::int64_t deadline_misses = 0;  ///< queue-wait deadline sheds
  std::int64_t blocked_arrivals = 0; ///< over-bound admits under block
  /// Queries served within the SLO per second of run span: the
  /// throughput that actually counted. Equals achieved_qps when no SLO
  /// is set; shed queries never contribute.
  double goodput_qps = 0.0;

  std::int64_t totalShed() const {
    return shed_queue + shed_overload + deadline_misses;
  }
};

/// Per-link-class wire accounting of a multi-node run.  The
/// wire-equivalent numbers convert link occupancy back to bytes at
/// nominal bandwidth, so they include headers, message-rate padding and
/// protocol-efficiency loss — what the traffic actually cost the wire.
struct InterNodeTraffic {
  std::int64_t inter_payload_bytes = 0;
  std::int64_t inter_messages = 0;
  double inter_wire_equivalent_bytes = 0.0;
  std::int64_t intra_payload_bytes = 0;
  std::int64_t intra_messages = 0;
  double intra_wire_equivalent_bytes = 0.0;
};

/// Measured (not estimated) accuracy of the inter-node codec for one
/// table; errors are only non-zero in Functional mode, where values are
/// really encoded and decoded.
struct CompressionTableReport {
  std::int64_t table = 0;
  int bits = 32;  ///< mantissa width (32 = incompressible, ships raw)
  double max_abs_error = 0.0;
  double mean_abs_error = 0.0;
  std::int64_t samples = 0;
};

/// Inter-node codec accounting; populated only when a codec was armed.
struct CompressionReport {
  double bound = 0.0;
  bool adaptive = false;
  std::int64_t raw_bytes = 0;   ///< payload entering the codec
  std::int64_t wire_bytes = 0;  ///< what actually crossed the NIC
  std::int64_t hot_decisions = 0;   ///< adaptive: minimal-width flows
  std::int64_t cool_decisions = 0;  ///< adaptive: light-width flows
  std::vector<CompressionTableReport> tables;

  double ratio() const {
    return wire_bytes > 0
               ? static_cast<double>(raw_bytes) /
                     static_cast<double>(wire_bytes)
               : 1.0;
  }
  double maxAbsError() const;
};

struct ExperimentResult {
  core::RetrieverStats stats;
  std::vector<core::BatchTiming> per_batch;

  /// Payload bytes injected into the fabric per time bucket over the full
  /// run (paper Figs 7/10 series, in bytes; divide by 256 for the
  /// paper's units).
  std::vector<double> wire_bytes_over_time;
  SimTime bucket_width = SimTime::zero();

  std::int64_t total_wire_bytes = 0;
  std::int64_t total_wire_messages = 0;

  /// ncu-style sustained throughput fractions of the lookup kernel
  /// (paper §IV-B2a reports 38% compute / 57% memory at 2 GPUs).
  double lookup_compute_throughput = 0.0;
  double lookup_memory_throughput = 0.0;

  /// simsan verdict; populated only when ExperimentConfig::simsan is on.
  std::optional<simsan::Summary> sanitizer;

  /// Resilience accounting; populated only when a fault plan was armed
  /// or the SLO fallback policy fired.
  std::optional<fault::ResilienceStats> resilience;

  /// Mid-run SLO fallback drains (empty unless a switch happened). The
  /// drained time is already inside stats.total; these entries say
  /// where it came from.
  std::vector<DrainEntry> drains;

  /// Per-query serving results; populated only when serving was on.
  std::optional<ServingResult> serving;

  /// Intra vs inter link-class traffic; populated on multi-node runs.
  std::optional<InterNodeTraffic> inter_node;

  /// Codec accounting; populated only when compress_bound > 0.
  std::optional<CompressionReport> compression;

  double avgBatchMs() const;
  double avgComputeMs() const;
  double avgCommunicationMs() const;
  double avgSyncUnpackMs() const;

  /// Replica-cache accounting over the run (zero when no cache).
  double cacheHitRate() const { return stats.cacheHitRate(); }
  double cacheSavedBytes() const { return stats.cache_saved_bytes; }
};

/// Convenience: paper weak-scaling config at `num_gpus`.
ExperimentConfig weakScalingConfig(int num_gpus);

/// Convenience: paper strong-scaling config at `num_gpus`.
ExperimentConfig strongScalingConfig(int num_gpus);

/// Convenience: inference cache-serving config at `num_gpus` — single-id
/// (pooling 1) Zipf-skewed lookups over a PCIe-class fabric, the
/// HugeCTR-HPS-style deployment the hot-row replica cache targets. The
/// caller sets `layer.zipf_alpha` and `cache_rows`.
ExperimentConfig cacheServingConfig(int num_gpus);

}  // namespace pgasemb::engine
