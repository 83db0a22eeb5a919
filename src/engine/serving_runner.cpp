#include "engine/serving_runner.hpp"

#include <algorithm>
#include <optional>

#include "engine/admission.hpp"
#include "engine/batch_executor.hpp"
#include "engine/dynamic_batcher.hpp"
#include "engine/load_generator.hpp"
#include "engine/scenario_runner.hpp"
#include "util/expect.hpp"

namespace pgasemb::engine {
namespace {

/// Nearest-rank p95 of a window of latencies, in ms.
double windowP95Ms(std::vector<SimTime>& window) {
  std::sort(window.begin(), window.end());
  const auto n = window.size();
  auto rank = static_cast<std::size_t>(0.95 * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  return window[rank].toMs();
}

}  // namespace

ServingRunner::ServingRunner(const ExperimentConfig& config)
    : builder_(config) {}

ExperimentResult ServingRunner::run(const std::string& retriever_name) {
  const ExperimentConfig& config = builder_.config();
  PGASEMB_CHECK(config.serving.enabled(),
                "ServingRunner needs serving.num_queries > 0");
  config.validate();

  builder_.reset();
  BatchExecutor exec(builder_, retriever_name,
                     BatchExecutor::SloMode::kPerQuery);

  ExperimentResult result;
  result.serving.emplace();
  ServingResult& sv = *result.serving;

  const std::int64_t max_batch = config.serving.max_batch_size > 0
                                     ? config.serving.max_batch_size
                                     : config.layer.batch_size;
  LoadGenerator generator(config.serving, max_batch);
  std::optional<AdmissionController> admission;
  if (config.serving.admissionEnabled()) {
    AdmissionParams ap;
    ap.queue_limit = config.serving.admit_queue;
    ap.policy = config.serving.shed_policy;
    ap.query_deadline = SimTime::ms(config.serving.query_deadline_ms);
    ap.window = config.serving.admit_window;
    ap.slo = SimTime::ms(config.serving.slo_ms);
    admission.emplace(ap);
  }
  DynamicBatcher batcher(generator, max_batch,
                         SimTime::ms(config.serving.max_wait_ms),
                         admission ? &*admission : nullptr);
  Rng wl_rng(config.batch_seed);
  const bool functional = config.mode == gpu::ExecutionMode::kFunctional;
  const SimTime slo = SimTime::ms(config.serving.slo_ms);
  auto& system = builder_.system();

  bool first_arrival_seen = false;
  SimTime first_arrival = SimTime::zero();
  SimTime last_completion = SimTime::zero();
  std::int64_t total_samples = 0;
  std::int64_t good_queries = 0;  ///< served within the SLO (all, if none)
  double queue_depth_sum = 0.0;
  std::vector<SimTime> window;
  window.reserve(static_cast<std::size_t>(config.serving.timeline_window));

  while (auto formed = batcher.nextBatch(system.hostNow())) {
    // The hosts sit idle until the batch closes (arrival-bound gaps).
    system.hostWaitUntil(formed->close_time);
    // The formed batch is the concatenation of its queries' lookups,
    // padded to the fixed batch shape with NULL inputs.
    emb::SparseBatchSpec spec = config.layer.batchSpec();
    spec.active_samples = formed->samples;
    if (functional) {
      const auto batch = emb::SparseBatch::generateUniform(spec, wl_rng);
      exec.runOne(batch, result);
    } else {
      exec.runOne(emb::SparseBatch::statistical(spec), result);
    }
    const SimTime completion = system.hostNow();

    for (const auto& q : formed->queries) {
      if (!first_arrival_seen || q.arrival < first_arrival) {
        first_arrival = q.arrival;
        first_arrival_seen = true;
      }
      const SimTime total = completion - q.arrival;
      sv.latency.add(total);
      sv.queue_latency.add(formed->close_time - q.arrival);
      if (slo > SimTime::zero() && total > slo) {
        ++sv.slo_violations;
      } else {
        ++good_queries;
      }
      if (admission) admission->onCompletion(total);
      exec.recordQueryLatency(total);
      window.push_back(total);
      if (static_cast<int>(window.size()) >= config.serving.timeline_window) {
        sv.window_p95_ms.push_back(windowP95Ms(window));
        window.clear();
      }
    }
    last_completion = completion;
    total_samples += formed->samples;
    queue_depth_sum += static_cast<double>(formed->queue_depth_at_close);
    sv.max_queue_depth =
        std::max(sv.max_queue_depth, formed->queue_depth_at_close);
    sv.per_batch_samples.push_back(formed->samples);
    ++sv.batches;
    sv.queries += static_cast<std::int64_t>(formed->queries.size());
    // A pending p95-triggered fallback swaps between batches: the drain
    // advances the host clock, so queued queries wait through it (the
    // switch cost lands on the in-flight tail, not nowhere).
    exec.maybeSwap(result);
  }
  exec.finishRun(result);

  sv.p50_ms = sv.latency.percentileMs(50.0);
  sv.p95_ms = sv.latency.percentileMs(95.0);
  sv.p99_ms = sv.latency.percentileMs(99.0);
  sv.mean_ms = sv.latency.meanMs();
  sv.max_ms = sv.latency.max().toMs();
  sv.mean_queue_ms = sv.queue_latency.meanMs();
  sv.offered_qps = config.serving.qps;
  const double span_s = (last_completion - first_arrival).toSec();
  sv.achieved_qps =
      span_s > 0.0 ? static_cast<double>(sv.queries) / span_s : 0.0;
  sv.goodput_qps =
      span_s > 0.0 ? static_cast<double>(good_queries) / span_s : 0.0;
  if (admission) {
    sv.admission = true;
    sv.shed_queue = admission->shedQueue();
    sv.shed_overload = admission->shedOverload();
    sv.deadline_misses = admission->deadlineMisses();
    sv.blocked_arrivals = admission->blockedArrivals();
  }
  sv.mean_batch_fill =
      sv.batches > 0 ? static_cast<double>(total_samples) /
                           (static_cast<double>(sv.batches) *
                            static_cast<double>(max_batch))
                     : 0.0;
  sv.mean_queue_depth =
      sv.batches > 0 ? queue_depth_sum / static_cast<double>(sv.batches)
                     : 0.0;

  // Query conservation, on every run: each generated query was served or
  // shed (by the queue limit, overload control or its deadline).
  PGASEMB_ASSERT(sv.queries + sv.totalShed() == config.serving.num_queries,
                 "serving lost queries: ", sv.queries, " served + ",
                 sv.totalShed(), " shed != ", config.serving.num_queries,
                 " generated");

  // The throughput probe uses the full-shape batch (capacity, not the
  // run's average fill).
  const emb::SparseBatch full =
      emb::SparseBatch::statistical(config.layer.batchSpec());
  finalizeResult(builder_, exec, full, result);
  return result;
}

std::vector<NamedResult> ServingRunner::runAll(
    const std::vector<std::string>& names) {
  std::vector<NamedResult> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    out.push_back({name, run(name)});
  }
  return out;
}

}  // namespace pgasemb::engine
