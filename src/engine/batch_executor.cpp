#include "engine/batch_executor.hpp"

#include <algorithm>

#include "emb/lookup_kernel.hpp"
#include "fabric/compression.hpp"
#include "fabric/fabric.hpp"
#include "fault/injector.hpp"
#include "pgas/runtime.hpp"
#include "simsan/strict.hpp"
#include "util/expect.hpp"

namespace pgasemb::engine {

BatchExecutor::BatchExecutor(SystemBuilder& builder,
                             const std::string& retriever_name,
                             SloMode slo_mode)
    : builder_(builder),
      retriever_(core::RetrieverRegistry::instance().create(
          retriever_name, builder.context())),
      slo_(builder.config().fallback),
      slo_mode_(slo_mode),
      active_(retriever_name) {}

core::BatchTiming BatchExecutor::runOne(const emb::SparseBatch& batch,
                                        ExperimentResult& result) {
  const core::BatchTiming t = retriever_->runBatch(batch);
  result.stats.add(t);
  result.per_batch.push_back(t);
  ++batches_run_;
  if (slo_mode_ == SloMode::kPerBatch) {
    if (slo_.record(t.total)) requestSwapIfEligible();
    maybeSwap(result);
  }
  return t;
}

bool BatchExecutor::recordQueryLatency(SimTime latency) {
  if (slo_.recordQuery(latency)) requestSwapIfEligible();
  return swap_pending_;
}

void BatchExecutor::requestSwapIfEligible() {
  // The tracker fired (it fires exactly once); the swap only proceeds
  // when the run is not already on the fallback strategy.
  if (active_ != core::kFallbackRetriever) swap_pending_ = true;
}

bool BatchExecutor::maybeSwap(ExperimentResult& result) {
  if (!swap_pending_) return false;
  swap_pending_ = false;
  // Degradation policy: the active strategy keeps blowing its SLO —
  // drain it and finish the run on the fallback strategy. The drain
  // advances the host clock (queued queries wait through it) and joins
  // stats.total as before; the DrainEntry records where it came from.
  const SimTime drain = retriever_->finish();
  result.stats.total += drain;
  result.drains.push_back({batches_run_, active_, drain});
  retriever_.reset();
  active_ = core::kFallbackRetriever;
  retriever_ = core::RetrieverRegistry::instance().create(
      active_, builder_.context());
  ++fallback_switches_;
  return true;
}

void BatchExecutor::finishRun(ExperimentResult& result) {
  // Epilogue: pipelined strategies still have batches in flight; their
  // drain time belongs to the run total. No-op (zero) for the rest.
  result.stats.total += retriever_->finish();
}

const gpu::DeviceBuffer& BatchExecutor::output(int gpu) const {
  return retriever_->output(gpu);
}

void finalizeResult(SystemBuilder& builder, BatchExecutor& exec,
                    const emb::SparseBatch& throughput_batch,
                    ExperimentResult& result) {
  const ExperimentConfig& config = builder.config();

  {
    fault::ResilienceStats resilience;
    auto* injector = builder.faultInjector();
    if (injector != nullptr) resilience = injector->stats();
    resilience.fallback_switches = exec.fallbackSwitches();
    if (exec.fallbackSwitches() > 0) {
      resilience.fallback_retriever = exec.activeName();
    }
    if (injector != nullptr || resilience.any()) {
      result.resilience = resilience;
    }
  }

  if (auto* san = builder.sanitizer()) {
    // The host consumes every GPU's final output tensor (standing in for
    // the downstream interaction layer) — the reader the last batch's
    // writes must be ordered against.
    const SimTime now = builder.system().hostNow();
    for (int g = 0; g < config.num_gpus; ++g) {
      const auto& out = exec.output(g);
      san->access(simsan::Checker::kHost, g,
                  simsan::StridedRange::contiguous(out.offset(), out.size()),
                  simsan::AccessKind::kRead, now, now,
                  "host.consume_output.gpu" + std::to_string(g));
    }
    // Destroy the retriever (frees its working buffers), then audit.
    exec.destroyRetriever();
    san->leakCheck();
    result.sanitizer = san->summary();
    if (auto* strict = builder.strictEffects()) {
      // Fold undeclared-effect findings into the same verdict (clean()
      // goes false when any kernel or transfer escaped its declaration).
      strict->mergeInto(*result.sanitizer);
    }
  }

  // Fabric conservation, on every run: each injected payload byte was
  // either delivered or swallowed by a link flap.
  {
    const auto& fabric = builder.fabric();
    const double injected = fabric.injectionCounter().total();
    const double delivered = fabric.deliveryCounter().total();
    const double dropped = static_cast<double>(fabric.droppedPayloadBytes());
    PGASEMB_ASSERT(injected == delivered + dropped,
                   "fabric lost payload: injected ", injected,
                   " B != delivered ", delivered, " B + dropped ", dropped,
                   " B");
  }

  // Degraded time is wall time, on every run: the union of the fallback
  // spans fits inside the run, which starts at zero on a fresh clock.
  if (const auto* injector = builder.faultInjector()) {
    auto& system = builder.system();
    const SimTime span =
        std::max(system.hostNow(), system.simulator().now());
    PGASEMB_ASSERT(injector->stats().degraded_time <= span,
                   "degraded time ", injector->stats().degraded_time.toMs(),
                   " ms exceeds the run's ", span.toMs(), " ms");
  }

  // PGAS put conservation, on every run: every payload byte an attached
  // plan declared had its delivery latched by a quiet. A leader message
  // that is never shipped is never injected, so fabric conservation
  // cannot see it.
  {
    const auto& runtime = builder.runtime();
    PGASEMB_ASSERT(runtime.declaredPutBytes() == runtime.latchedPutBytes(),
                   "PGAS lost puts: plans declared ",
                   runtime.declaredPutBytes(), " B, quiet latched ",
                   runtime.latchedPutBytes(), " B");
  }

  // Delivery (wire-occupancy) counter: for PGAS this matches the paper's
  // in-kernel issue counter; for the baseline it spreads each chunk over
  // its serialization window, exactly the paper's "linearly interpolated
  // over the communication time" dashed line.
  const auto& counter = builder.fabric().deliveryCounter();
  result.bucket_width = counter.bucketWidth();
  result.wire_bytes_over_time.resize(counter.numBuckets());
  for (std::size_t i = 0; i < counter.numBuckets(); ++i) {
    result.wire_bytes_over_time[i] = counter.bucket(i);
  }
  result.total_wire_bytes = builder.fabric().totalPayloadBytes();
  result.total_wire_messages = builder.fabric().totalMessages();

  if (config.num_nodes > 1) {
    const auto inter =
        builder.fabric().classTraffic(fabric::LinkClass::kInter);
    const auto intra =
        builder.fabric().classTraffic(fabric::LinkClass::kIntra);
    InterNodeTraffic traffic;
    traffic.inter_payload_bytes = inter.payload_bytes;
    traffic.inter_messages = inter.messages;
    traffic.inter_wire_equivalent_bytes = inter.wire_equivalent_bytes;
    traffic.intra_payload_bytes = intra.payload_bytes;
    traffic.intra_messages = intra.messages;
    traffic.intra_wire_equivalent_bytes = intra.wire_equivalent_bytes;
    result.inter_node = traffic;
  }

  if (auto* codec = builder.codec()) {
    CompressionReport report;
    report.bound = codec->bound();
    report.adaptive = codec->adaptive();
    report.raw_bytes = codec->rawBytes();
    report.wire_bytes = codec->wireBytes();
    report.hot_decisions = codec->hotDecisions();
    report.cool_decisions = codec->coolDecisions();
    const auto& tables = codec->tableStats();
    report.tables.reserve(tables.size());
    for (std::size_t t = 0; t < tables.size(); ++t) {
      const auto& s = tables[t];
      report.tables.push_back(
          {static_cast<std::int64_t>(t), s.bits, s.max_abs_error,
           s.samples > 0 ? s.sum_abs_error / static_cast<double>(s.samples)
                         : 0.0,
           s.samples});
    }
    result.compression = report;
  }

  // ncu-style throughput of the lookup kernel on GPU 0.
  {
    auto& layer = builder.layer();
    const auto work = layer.lookupWork(throughput_batch, 0);
    const double dim = static_cast<double>(config.layer.dim);
    const double outputs = static_cast<double>(work.totalOutputs());
    const double bytes = outputs * 8.0 + work.gathered_rows * 8.0 +
                         work.gathered_rows * dim * 4.0 +
                         outputs * dim * 4.0;
    // ncu's SM throughput counts all scalar instructions (index math,
    // addressing), not just the pooling adds.
    const double instructions =
        work.gathered_rows * dim *
        config.cost_model.compute_instructions_per_element;
    const SimTime duration = emb::lookupComputeTime(layer, work);
    const auto tp =
        config.cost_model.kernelThroughput(instructions, bytes, duration);
    result.lookup_compute_throughput = tp.compute;
    result.lookup_memory_throughput = tp.memory;
  }
}

}  // namespace pgasemb::engine
