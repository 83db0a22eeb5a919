#include "engine/experiment.hpp"

#include "util/expect.hpp"

namespace pgasemb::engine {

ArrivalPattern parseArrivalPattern(const std::string& name) {
  if (name == "poisson") return ArrivalPattern::kPoisson;
  if (name == "bursty") return ArrivalPattern::kBursty;
  PGASEMB_CHECK(false, "unknown arrival pattern '", name,
                "' (poisson | bursty)");
  return ArrivalPattern::kPoisson;
}

std::string formatArrivalPattern(ArrivalPattern pattern) {
  return pattern == ArrivalPattern::kPoisson ? "poisson" : "bursty";
}

void ExperimentConfig::validate() const {
  PGASEMB_CHECK(num_batches >= 1, "need at least one batch");
  PGASEMB_CHECK(cache_rows >= 0, "cache-rows must be >= 0 (0 = no cache)");
  PGASEMB_CHECK(fallback.slo_ms >= 0.0,
                "slo-ms must be >= 0 (0 = no fallback policy)");
  PGASEMB_CHECK(!fallback.enabled() || fallback.patience >= 1,
                "slo-patience must be >= 1 when slo-ms is set");
  PGASEMB_CHECK(compress_bound >= 0.0,
                "compress-bound must be >= 0 (0 = off)");
  PGASEMB_CHECK(!compress_adaptive || compress_bound > 0.0,
                "compress-adaptive needs a positive compress-bound");
  PGASEMB_CHECK(compress_bound == 0.0 ||
                    sharding == emb::ShardingScheme::kTableWise,
                "inter-node compression is table-wise only (per-table "
                "error bounds do not compose with row-wise partial sums)");
  for (const auto& spec : faults.specs) {
    if (!fault::nodeScoped(spec.kind)) continue;
    PGASEMB_CHECK(num_nodes > 1, "node-scoped fault '", spec.describe(),
                  "' needs a multi-node layout (--nodes > 1)");
    if (spec.kind == fault::FaultKind::kLeaderFail) {
      PGASEMB_CHECK(num_gpus / num_nodes >= 2,
                    "leader-fail needs >= 2 GPUs per node (no standby "
                    "leader to elect otherwise)");
    }
  }
  if (!serving.enabled()) {
    PGASEMB_CHECK(serving.admit_queue == 0 &&
                      serving.query_deadline_ms == 0.0 &&
                      serving.admit_window == 0,
                  "admission-control knobs (--admit-queue / "
                  "--query-deadline-ms / --admit-window) need serving "
                  "mode (--queries > 0)");
    return;
  }
  PGASEMB_CHECK(serving.qps > 0.0, "serving qps must be positive");
  PGASEMB_CHECK(serving.max_wait_ms >= 0.0,
                "serving max-wait must be >= 0");
  PGASEMB_CHECK(serving.slo_ms >= 0.0, "serving SLO must be >= 0");
  PGASEMB_CHECK(serving.timeline_window >= 1,
                "serving timeline window must be >= 1");
  PGASEMB_CHECK(serving.admit_queue >= 0,
                "admit-queue must be >= 0 (0 = unbounded)");
  PGASEMB_CHECK(serving.query_deadline_ms >= 0.0,
                "query-deadline must be >= 0 (0 = off)");
  PGASEMB_CHECK(serving.admit_window >= 0,
                "admit-window must be >= 0 (0 = off)");
  PGASEMB_CHECK(serving.admit_window == 0 || serving.slo_ms > 0.0,
                "the admission controller (--admit-window) sheds "
                "against the SLO; set --slo-ms > 0");
  if (serving.arrival == ArrivalPattern::kBursty) {
    PGASEMB_CHECK(serving.burst_on_ms > 0.0 && serving.burst_off_ms >= 0.0,
                  "bursty arrivals need burst-on > 0 and burst-off >= 0");
  }
  PGASEMB_CHECK(serving.query_size.lo >= 1,
                "query sizes must be >= 1");
  PGASEMB_CHECK(serving.query_size.hi >= serving.query_size.lo,
                "query-size range is inverted");
  const std::int64_t max_batch = serving.max_batch_size > 0
                                     ? serving.max_batch_size
                                     : layer.batch_size;
  // The retriever buffers and kernel shapes are sized once from the
  // layer's batch_size; the batcher pads partially filled batches up to
  // that fixed shape, so its cap cannot exceed it.
  PGASEMB_CHECK(max_batch <= layer.batch_size,
                "serving max-batch ", max_batch,
                " exceeds the layer batch size ", layer.batch_size);
}

double CompressionReport::maxAbsError() const {
  double max_error = 0.0;
  for (const auto& t : tables) {
    if (t.max_abs_error > max_error) max_error = t.max_abs_error;
  }
  return max_error;
}

double ExperimentResult::avgBatchMs() const {
  return stats.batches ? stats.total.toMs() / stats.batches : 0.0;
}
double ExperimentResult::avgComputeMs() const {
  return stats.batches ? stats.compute_phase.toMs() / stats.batches : 0.0;
}
double ExperimentResult::avgCommunicationMs() const {
  return stats.batches ? stats.communication().toMs() / stats.batches : 0.0;
}
double ExperimentResult::avgSyncUnpackMs() const {
  return stats.batches ? stats.syncUnpack().toMs() / stats.batches : 0.0;
}

}  // namespace pgasemb::engine
