#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/registry.hpp"
#include "dlrm/pipeline.hpp"
#include "dlrm/trainer.hpp"
#include "emb/workload.hpp"
#include "engine/batch_executor.hpp"
#include "engine/scenario_runner.hpp"
#include "engine/serving_runner.hpp"
#include "fabric/fabric.hpp"

namespace perfbench {
namespace {

using namespace pgasemb;

// --- Workload shapes ---------------------------------------------------------

/// Closed-loop run lengths. Fixed: the fabric's time-series counters grow
/// with simulated time, so peak memory depends on them.
constexpr int kInfer1NodeBatches = 20;
constexpr int kInfer16NodeBatches = 4;
constexpr int kTrainSteps = 8;
/// Queries per serving run (one run per retriever and offered rate).
constexpr std::int64_t kServeQueries = 40000;
/// Halvings of the sweep step that locate serve_skewed's highest rate.
constexpr int kServeBisections = 3;

/// The DLRM shape bench_training uses: dense MLP 512-256-dim, post-
/// interaction MLP 512-256-1.
dlrm::DlrmConfig dlrmShape(int dim) {
  dlrm::DlrmConfig cfg;
  cfg.dense_dim = 13;
  cfg.top_mlp = {512, 256, dim};
  cfg.bottom_mlp = {512, 256, 1};
  return cfg;
}

/// Inter-node link of bench_multinode / multinode_test: IB-like NIC.
void applyInterNodeLink(engine::ExperimentConfig& cfg, int nodes) {
  cfg.num_nodes = nodes;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5.0);
  cfg.inter_node_link.header_bytes = 64;
  cfg.inter_node_link.max_messages_per_sec = 10e6;
}

engine::ExperimentConfig infer1NodeConfig() {
  return engine::weakScalingConfig(4);
}

engine::ExperimentConfig infer16NodeConfig() {
  engine::ExperimentConfig cfg = engine::weakScalingConfig(64);
  cfg.layer = emb::multinodeServingLayerSpec(64);
  applyInterNodeLink(cfg, 16);
  cfg.hierarchical_a2a = true;
  cfg.compress_bound = 1e-2;
  cfg.compress_adaptive = true;
  return cfg;
}

engine::ExperimentConfig serveConfig(std::uint64_t seed) {
  engine::ExperimentConfig cfg = engine::cacheServingConfig(4);
  cfg.layer.zipf_alpha = 1.05;
  cfg.layer.batch_size = 256;
  cfg.cache_rows = 2000;
  cfg.serving.num_queries = kServeQueries;
  cfg.serving.query_size = emb::parseQuerySizeSpec("zipf:1.1:1-64");
  cfg.serving.max_batch_size = 256;
  cfg.serving.max_wait_ms = 0.2;
  cfg.serving.seed = seed;
  cfg.batch_seed = seed;
  return cfg;
}

/// Closed-loop batch size: drawn per seed from [63/64, 1] x the
/// configuration's batch, so the inputs, and with them every simulated
/// time, depend on the seed. Indices are the uniform distribution's
/// expectation (statistical batches), as in the paper's synthetic inputs.
std::int64_t seededBatchSize(std::int64_t batch, std::uint64_t seed) {
  Rng rng(splitmix64(seed ^ 0xba7c5ULL));
  return batch - static_cast<std::int64_t>(
                     rng.nextBounded(static_cast<std::uint64_t>(batch / 64)));
}

dlrm::DenseBatch shapeOnlyDense(std::int64_t batch, int dense_dim) {
  dlrm::DenseBatch dense;
  dense.batch_size = batch;
  dense.dense_dim = dense_dim;
  return dense;
}

// --- Session: what the registered decorators report into ---------------------

/// Functional-replay checks the decorator applies to every batch.
struct Checks {
  bool enabled = false;
  /// Cross-node output values may differ from the reference by this
  /// much (the inter-node codec's bound); 0 = bit-exact everywhere.
  double cross_node_bound = 0.0;
  int gpus_per_node = 0;
  std::vector<float> predictions;
  std::int64_t failed_batches = 0;
  std::string first_error;
};

/// Per-run accumulators of the decorator; reset before each run.
struct RunAcc {
  std::int64_t batches = 0;
  core::RetrieverStats emb;
  SimTime forward = SimTime::zero();
  double active_samples = 0.0;
  std::int64_t first_batch_end_ns = -1;
  std::vector<double> batch_ns;  ///< host ns of each batch
};

struct Session {
  Tracer* tracer = nullptr;
  KernelLog* kernels = nullptr;
  dlrm::DlrmConfig model;
  std::uint64_t dense_seed = 0;
  RunAcc acc;
  Checks checks;
};

Session& session() {
  static Session s;
  return s;
}

Tracer& tracer() { return *session().tracer; }

/// Times the inner retriever's calls as `core.retriever` spans.
class TimedRetriever final : public core::EmbeddingRetriever {
 public:
  explicit TimedRetriever(core::EmbeddingRetriever& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  core::BatchTiming runBatch(const emb::SparseBatch& batch) override {
    ScopedSpan span(tracer(), "core.retriever", batch_++);
    return inner_.runBatch(batch);
  }
  SimTime finish() override {
    ScopedSpan span(tracer(), "core.finish");
    return inner_.finish();
  }
  gpu::DeviceBuffer& output(int gpu) override { return inner_.output(gpu); }

 private:
  core::EmbeddingRetriever& inner_;
  std::int64_t batch_ = 0;
};

/// A registered retriever wrapped in dlrm::InferencePipeline, so the
/// engine's runners drive the full DLRM forward (host partition, dense
/// MLP || EMB retrieval, interaction, post-interaction MLP) unchanged.
/// The returned timing's total is the full-forward batch time.
class DlrmRetriever final : public core::EmbeddingRetriever {
 public:
  DlrmRetriever(std::unique_ptr<core::EmbeddingRetriever> inner,
                const core::SystemContext& ctx)
      : inner_(std::move(inner)),
        timed_(*inner_),
        layer_(ctx.layer),
        model_(session().model, ctx.layer),
        pipeline_(model_, timed_),
        dense_rng_(session().dense_seed) {
    if (session().kernels != nullptr) session().kernels->attach(ctx.system);
  }
  ~DlrmRetriever() override {
    if (session().kernels != nullptr) session().kernels->detach();
  }
  DlrmRetriever(const DlrmRetriever&) = delete;
  DlrmRetriever& operator=(const DlrmRetriever&) = delete;

  std::string name() const override { return inner_->name(); }

  core::BatchTiming runBatch(const emb::SparseBatch& sparse) override {
    Session& s = session();
    auto& system = layer_.system();
    const std::int64_t t0 = hostNs();
    ScopedSpan span(tracer(), "dlrm.forward", s.acc.batches);
    const bool functional =
        system.mode() == gpu::ExecutionMode::kFunctional &&
        sparse.materialized();
    const int dense_dim = model_.config().dense_dim;
    const dlrm::DenseBatch dense =
        functional ? dlrm::DenseBatch::generateUniform(sparse.batchSize(),
                                                       dense_dim, dense_rng_)
                   : shapeOnlyDense(sparse.batchSize(), dense_dim);
    if (s.kernels != nullptr) s.kernels->beginBatch(system.hostNow());
    const dlrm::PipelineResult r = pipeline_.runBatch(dense, sparse);
    if (s.kernels != nullptr) s.kernels->endBatch(system.hostNow());

    s.acc.emb.add(r.emb);
    s.acc.forward += r.batch_total;
    s.acc.active_samples +=
        static_cast<double>(sparse.spec().activeSamples());
    const std::int64_t t1 = hostNs();
    if (s.acc.batches == 0) s.acc.first_batch_end_ns = t1;
    s.acc.batch_ns.push_back(static_cast<double>(t1 - t0));
    ++s.acc.batches;
    if (functional && s.checks.enabled) check(sparse);

    core::BatchTiming t = r.emb;
    t.total = r.batch_total;
    return t;
  }

  SimTime finish() override { return timed_.finish(); }
  gpu::DeviceBuffer& output(int gpu) override { return inner_->output(gpu); }

 private:
  /// Outputs vs the serial reference on every GPU; cross-node values of
  /// a compressed run need only be within the codec's bound.
  void check(const emb::SparseBatch& sparse) {
    Checks& c = session().checks;
    const auto& sharding = layer_.sharding();
    const int dim = layer_.dim();
    const std::int64_t tables = layer_.spec().total_tables;
    const int gpus = layer_.system().numGpus();
    std::string error;
    for (int g = 0; g < gpus && error.empty(); ++g) {
      const auto out = inner_->output(g).span();
      const auto ref = layer_.referenceOutput(sparse, g);
      if (out.size() < ref.size()) {
        error = "output tensor smaller than the reference on gpu " +
                std::to_string(g);
        break;
      }
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (std::memcmp(&out[i], &ref[i], sizeof(float)) == 0) continue;
        const auto table =
            static_cast<std::int64_t>(i / static_cast<std::size_t>(dim)) %
            tables;
        const int owner = sharding.tableOwner(table);
        const bool cross = c.gpus_per_node > 0 &&
                           owner / c.gpus_per_node != g / c.gpus_per_node;
        if (cross && std::fabs(static_cast<double>(out[i]) - ref[i]) <=
                         c.cross_node_bound) {
          continue;
        }
        error = name() + ": gpu " + std::to_string(g) + " element " +
                std::to_string(i) + " = " + std::to_string(out[i]) +
                ", reference " + std::to_string(ref[i]);
        break;
      }
    }
    if (!error.empty()) {
      ++c.failed_batches;
      if (c.first_error.empty()) c.first_error = error;
    }
    for (const auto& per_gpu : pipeline_.predictions()) {
      c.predictions.insert(c.predictions.end(), per_gpu.begin(),
                           per_gpu.end());
    }
  }

  std::unique_ptr<core::EmbeddingRetriever> inner_;
  TimedRetriever timed_;
  emb::ShardedEmbeddingLayer& layer_;
  dlrm::DlrmModel model_;
  dlrm::InferencePipeline pipeline_;
  Rng dense_rng_;
};

std::string dlrmName(const std::string& retriever) {
  return "perfbench.dlrm." + retriever;
}

void registerDecorators() {
  static bool done = false;
  if (done) return;
  done = true;
  for (const auto& name : kRetrievers) {
    core::RetrieverRegistry::instance().add(
        dlrmName(name), [name](const core::SystemContext& ctx)
                            -> std::unique_ptr<core::EmbeddingRetriever> {
          ScopedSpan span(tracer(), "setup.create");
          return std::make_unique<DlrmRetriever>(
              core::RetrieverRegistry::instance().create(name, ctx), ctx);
        });
  }
}

/// Starts a run: resets the decorator's accumulators and points the
/// session at this run's kernel log (traced runs only).
void beginRun(KernelLog& log, std::uint64_t seed, int dim) {
  sampleHostSpeed();
  Session& s = session();
  s.acc = RunAcc{};
  s.kernels = tracer().enabled() ? &log : nullptr;
  s.model = dlrmShape(dim);
  s.dense_seed = splitmix64(seed ^ 0xde45eULL);
}

void fail(Rep& rep, std::int64_t ops, const std::string& what) {
  rep.failed += ops;
  if (rep.errors.size() < 8) rep.errors.push_back(what);
}

/// Fabric conservation: payload injected = delivered + dropped.
void checkFabric(Rep& rep, fabric::Fabric& fabric, const std::string& run) {
  const double injected = fabric.injectionCounter().total();
  const double delivered = fabric.deliveryCounter().total();
  const double dropped = static_cast<double>(fabric.droppedPayloadBytes());
  if (injected != delivered + dropped) {
    fail(rep, 1,
         run + ": fabric injected " + std::to_string(injected) +
             " B != delivered " + std::to_string(delivered) +
             " + dropped " + std::to_string(dropped));
  }
}

/// Per-layer numbers read from a run's spans and kernel log.
void traceMetrics(Rep& rep, const std::string& r, const KernelLog& log,
                  std::size_t first_span, double batches) {
  if (!tracer().enabled() || batches <= 0.0) return;
  const auto spans = tracer().totalsByName(first_span);
  const auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ns;
  };
  const auto self = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_ns;
  };
  Values& v = rep.traced;
  v["core.host_ms_per_batch." + r] =
      (total("core.retriever") + total("core.finish")) / batches * 1e-6;
  v["dlrm.host_ms_per_batch." + r] = self("dlrm.forward") / batches * 1e-6;
  v["engine.host_ms_per_batch." + r] =
      self("engine.serving_run") / batches * 1e-6;
  v["dlrm.backward_host_ms_per_step." + r] =
      self("dlrm.train_step") / batches * 1e-6;
  const double events = rep.sim["sim.events_per_batch." + r] * batches;
  if (events > 0.0) {
    v["sim.host_ns_per_event." + r] = total("bench.run") / events;
  }
  const double gpu_batches = batches * log.gpus();
  v["emb.lookup_ms." + r] = log.busyMs(KernelLayer::kLookup) / gpu_batches;
  v["emb.unpack_ms." + r] = log.busyMs(KernelLayer::kUnpack) / gpu_batches;
  v["emb.hier_staging_ms." + r] = log.busyMs(KernelLayer::kHier) / gpu_batches;
  v["dlrm.dense_ms." + r] = (log.busyMs(KernelLayer::kTopMlp) +
                             log.busyMs(KernelLayer::kInteraction) +
                             log.busyMs(KernelLayer::kBottomMlp)) /
                            gpu_batches;
  v["gpu.kernels_per_batch." + r] = static_cast<double>(log.kernels()) / batches;
  v["gpu.idle_ms." + r] = log.idleMs() / batches;
  if (log.pgasKernels() > 0) {
    v["pgas.quiet_tail_ms." + r] =
        log.pgasTailMs() / static_cast<double>(log.pgasKernels());
  }
}

/// Simulated per-layer numbers every forward run reports.
void forwardMetrics(Rep& rep, const std::string& r, const RunAcc& acc,
                    const engine::ExperimentResult& result,
                    engine::SystemBuilder& builder) {
  const double b = static_cast<double>(acc.batches);
  // The pipelined retriever's end-of-run drain is EMB time too.
  const SimTime drain = result.stats.total - acc.forward;
  const double emb_ms = (acc.emb.total + drain).toMs() / b;
  const double batch_ms = result.stats.total.toMs() / b;
  Values& v = rep.sim;
  v["core.emb_ms." + r] = emb_ms;
  v["dlrm.batch_ms." + r] = batch_ms;
  v["dlrm.exposed_dense_ms." + r] = batch_ms - emb_ms;
  v["collective.comm_ms." + r] = acc.emb.comm_phase.toMs() / b;
  v["collective.wire_ms." + r] = acc.emb.communication().toMs() / b;
  v["collective.sync_unpack_ms." + r] = acc.emb.syncUnpack().toMs() / b;
  v["emb.cache_hit_rate." + r] = acc.emb.cacheHitRate();
  v["emb.cache_lookups_per_batch." + r] = acc.emb.cache_lookups / b;
  v["emb.cache_saved_bytes_per_batch." + r] = acc.emb.cache_saved_bytes / b;
  auto& fabric = builder.fabric();
  v["fabric.intra_bytes_per_batch." + r] =
      static_cast<double>(
          fabric.classTraffic(fabric::LinkClass::kIntra).payload_bytes) /
      b;
  v["fabric.inter_wire_bytes_per_batch." + r] =
      fabric.classTraffic(fabric::LinkClass::kInter).wire_equivalent_bytes /
      b;
  v["fabric.codec_ratio." + r] =
      result.compression ? result.compression->ratio() : 1.0;
  v["fabric.messages_per_batch." + r] =
      static_cast<double>(result.total_wire_messages) / b;
  v["sim.events_per_batch." + r] =
      static_cast<double>(builder.system().simulator().eventsProcessed()) / b;
}

// --- Closed-loop full forward (infer_1node, infer_16node) --------------------

void closedLoopRep(Rep& rep, engine::ExperimentConfig cfg, int batches,
                   std::uint64_t seed) {
  cfg.layer.batch_size = seededBatchSize(cfg.layer.batch_size, seed);
  const emb::SparseBatch sparse =
      emb::SparseBatch::statistical(cfg.layer.batchSpec());
  for (const auto& r : kRetrievers) {
    KernelLog log;
    beginRun(log, seed, cfg.layer.dim);
    const std::size_t first_span = tracer().spans().size();
    const std::int64_t t0 = hostNs();
    {
      ScopedSpan root(tracer(), "bench.run");
      std::optional<engine::SystemBuilder> builder;
      {
        ScopedSpan span(tracer(), "setup.system");
        builder.emplace(cfg);
      }
      engine::BatchExecutor exec(*builder, dlrmName(r));
      engine::ExperimentResult result;
      for (int b = 0; b < batches; ++b) exec.runOne(sparse, result);
      exec.finishRun(result);
      engine::finalizeResult(*builder, exec, sparse, result);
      const RunAcc& acc = session().acc;
      rep.attempted += acc.batches;
      forwardMetrics(rep, r, acc, result, *builder);
      rep.sim["sim_ms." + r] = rep.sim["dlrm.batch_ms." + r];
      rep.sim["sim_rate." + r] =
          acc.active_samples / result.stats.total.toSec();
      checkFabric(rep, builder->fabric(), r);
      rep.host[r] = {static_cast<double>(acc.first_batch_end_ns - t0),
                     {acc.batch_ns.begin() + 1, acc.batch_ns.end()}};
    }
    traceMetrics(rep, r, log, first_span, static_cast<double>(batches));
  }
  rep.sim["core.emb_speedup"] = rep.sim["core.emb_ms.nccl_collective"] /
                                rep.sim["core.emb_ms.pgas_fused"];
}

// --- Training (train_1node) ---------------------------------------------------

void trainRep(Rep& rep, std::uint64_t seed) {
  engine::ExperimentConfig cfg = infer1NodeConfig();
  cfg.layer.batch_size = seededBatchSize(cfg.layer.batch_size, seed);
  const emb::SparseBatch sparse =
      emb::SparseBatch::statistical(cfg.layer.batchSpec());
  for (const auto& r : kMainRetrievers) {
    KernelLog log;
    beginRun(log, seed, cfg.layer.dim);
    const std::size_t first_span = tracer().spans().size();
    const std::int64_t t0 = hostNs();
    {
      ScopedSpan root(tracer(), "bench.run");
      std::optional<engine::SystemBuilder> builder;
      {
        ScopedSpan span(tracer(), "setup.system");
        builder.emplace(cfg);
      }
      std::unique_ptr<core::EmbeddingRetriever> inner;
      {
        ScopedSpan span(tracer(), "setup.create");
        inner = core::RetrieverRegistry::instance().create(
            r, builder->context());
      }
      TimedRetriever timed(*inner);
      dlrm::DlrmModel model(session().model, builder->layer());
      dlrm::DlrmTrainer trainer(model, timed, builder->comm(),
                                builder->runtime(), 0.01f,
                                r == "pgas_fused"
                                    ? dlrm::BackwardScheme::kPgasAtomics
                                    : dlrm::BackwardScheme::kCollective);
      if (tracer().enabled()) log.attach(builder->system());
      const dlrm::DenseBatch dense =
          shapeOnlyDense(cfg.layer.batch_size, session().model.dense_dim);
      SimTime total = SimTime::zero(), fwd = SimTime::zero(),
              bwd = SimTime::zero(), mlp = SimTime::zero();
      double samples = 0.0;
      std::int64_t first_end = 0;
      std::vector<double> step_ns;
      for (int step = 0; step < kTrainSteps; ++step) {
        const std::int64_t s0 = hostNs();
        ScopedSpan span(tracer(), "dlrm.train_step", step);
        log.beginBatch(builder->system().hostNow());
        const auto res = trainer.step(dense, sparse);
        log.endBatch(builder->system().hostNow());
        total += res.total;
        fwd += res.emb_forward.total;
        bwd += res.emb_backward.total;
        mlp += res.mlp_backward_time;
        samples += static_cast<double>(sparse.spec().activeSamples());
        if (step == 0) {
          first_end = hostNs();
        } else {
          step_ns.push_back(static_cast<double>(hostNs() - s0));
        }
      }
      log.detach();
      const double n = kTrainSteps;
      rep.attempted += kTrainSteps;
      Values& v = rep.sim;
      v["sim_ms." + r] = total.toMs() / n;
      v["sim_rate." + r] = samples / total.toSec();
      v["core.emb_ms." + r] = fwd.toMs() / n;
      v["dlrm.emb_backward_ms." + r] = bwd.toMs() / n;
      v["dlrm.mlp_backward_ms." + r] = mlp.toMs() / n;
      auto& fabric = builder->fabric();
      v["fabric.intra_bytes_per_batch." + r] =
          static_cast<double>(fabric.totalPayloadBytes()) / n;
      v["fabric.messages_per_batch." + r] =
          static_cast<double>(fabric.totalMessages()) / n;
      v["sim.events_per_batch." + r] =
          static_cast<double>(
              builder->system().simulator().eventsProcessed()) /
          n;
      checkFabric(rep, fabric, r);
      rep.host[r] = {static_cast<double>(first_end - t0), std::move(step_ns)};
    }
    traceMetrics(rep, r, log, first_span, kTrainSteps);
  }
  rep.sim["core.emb_speedup"] = rep.sim["core.emb_ms.nccl_collective"] /
                                rep.sim["core.emb_ms.pgas_fused"];
}

// --- Open-loop serving (serve_skewed) ----------------------------------------

/// One serving run's verdict against the limits.
struct ServePoint {
  double p99_ms = 0.0;
  bool ok = false;  ///< p99 within the limit, achieved >= 0.95 x offered,
                    ///< and no failed query
};

/// Serves kServeQueries at `qps` through retriever `r`. The reference rate
/// also records the latency and per-layer metrics. Host time is counted
/// for the fixed sweep only: the bisection's rates differ by seed, and so
/// would the host cost of a batch.
ServePoint servePoint(Rep& rep, const std::string& r, double qps,
                      std::uint64_t seed, bool reference) {
  const bool swept = std::find(kServeRates.begin(), kServeRates.end(),
                               qps) != kServeRates.end();
  engine::ExperimentConfig cfg = serveConfig(seed);
  cfg.serving.qps = qps;
  KernelLog log;
  beginRun(log, seed, cfg.layer.dim);
  if (!reference) session().kernels = nullptr;
  const std::size_t first_span = tracer().spans().size();
  const std::int64_t t0 = hostNs();
  ServePoint point;
  {
    ScopedSpan root(tracer(), "bench.run");
    std::optional<engine::ServingRunner> runner;
    {
      ScopedSpan span(tracer(), "setup.system");
      runner.emplace(cfg);
    }
    engine::ExperimentResult result;
    {
      ScopedSpan span(tracer(), "engine.serving_run");
      result = runner->run(dlrmName(r));
    }
    const RunAcc& acc = session().acc;
    const auto& sv = *result.serving;
    const std::int64_t generated = cfg.serving.num_queries;
    const std::int64_t shed = sv.totalShed();
    rep.attempted += generated;
    if (sv.queries + shed != generated) {
      fail(rep, generated - sv.queries - shed,
           r + ": queries generated " + std::to_string(generated) +
               " != served " + std::to_string(sv.queries) + " + shed " +
               std::to_string(shed));
    }
    if (shed > 0) fail(rep, shed, r + ": queries shed");
    checkFabric(rep, runner->builder().fabric(), r);
    point.p99_ms = sv.p99_ms;
    point.ok = sv.p99_ms <= kServeP99LimitMs &&
               sv.achieved_qps >= 0.95 * qps && shed == 0;
    if (reference) {
      Values& v = rep.sim;
      v["sim_ms." + r] = sv.p99_ms;
      v["engine.p50_ms." + r] = sv.p50_ms;
      v["engine.queue_p99_ms." + r] = sv.queue_latency.percentileMs(99.0);
      v["engine.batch_fill." + r] = sv.mean_batch_fill;
      v["engine.max_queue_depth." + r] =
          static_cast<double>(sv.max_queue_depth);
      forwardMetrics(rep, r, acc, result, runner->builder());
    }
    if (swept) {
      rep.sim["engine.achieved_qps." + r + "." +
              std::to_string(static_cast<long long>(qps / 1000)) + "k"] =
          sv.achieved_qps;
      rep.host[r + "@" + std::to_string(static_cast<long long>(qps))] = {
          static_cast<double>(acc.first_batch_end_ns - t0),
          {acc.batch_ns.begin() + 1, acc.batch_ns.end()}};
    }
  }
  if (reference) {
    traceMetrics(rep, r, log, first_span,
                 static_cast<double>(session().acc.batches));
  }
  return point;
}

/// Highest offered rate meeting every limit: the sweep brackets it, then
/// kServeBisections halvings narrow the bracket and the p99 limit is
/// interpolated inside it, so the figure is not quantized to the grid.
double maxQps(Rep& rep, const std::string& r, std::uint64_t seed) {
  double lo = 0.0, hi = 0.0;
  ServePoint at_lo, at_hi;
  for (const double qps : kServeRates) {
    const ServePoint p = servePoint(rep, r, qps, seed, qps == kServeRefQps);
    if (hi > 0.0) continue;  // past the bracket: sweep for the per-layer table
    if (p.ok) {
      lo = qps;
      at_lo = p;
    } else {
      hi = qps;
      at_hi = p;
    }
  }
  if (hi == 0.0 || lo == 0.0) return lo;
  for (int i = 0; i < kServeBisections; ++i) {
    const double mid = 0.5 * (lo + hi);
    const ServePoint p = servePoint(rep, r, mid, seed, false);
    if (p.ok) {
      lo = mid;
      at_lo = p;
    } else {
      hi = mid;
      at_hi = p;
    }
  }
  if (at_hi.p99_ms <= at_lo.p99_ms || at_hi.p99_ms <= kServeP99LimitMs) {
    return lo;
  }
  const double frac =
      (kServeP99LimitMs - at_lo.p99_ms) / (at_hi.p99_ms - at_lo.p99_ms);
  return lo + frac * (hi - lo);
}

void serveRep(Rep& rep, std::uint64_t seed) {
  for (const auto& r : kMainRetrievers) {
    rep.sim["sim_rate." + r] = maxQps(rep, r, seed);
  }
  rep.sim["core.emb_speedup"] = rep.sim["core.emb_ms.nccl_collective"] /
                                rep.sim["core.emb_ms.pgas_fused"];
}

// --- Functional replays --------------------------------------------------------

void shrinkForReplay(engine::ExperimentConfig& cfg, std::int64_t tables,
                     std::int64_t rows, int dim, std::int64_t batch) {
  cfg.mode = gpu::ExecutionMode::kFunctional;
  cfg.device_memory_bytes = 1LL << 28;
  cfg.layer.total_tables = tables;
  cfg.layer.rows_per_table = rows;
  cfg.layer.dim = dim;
  cfg.layer.batch_size = batch;
}

void armChecks(double bound, int gpus_per_node) {
  Checks& c = session().checks;
  c = Checks{};
  c.enabled = true;
  c.cross_node_bound = bound;
  c.gpus_per_node = gpus_per_node;
}

/// Replays through ScenarioRunner (closed loop) or ServingRunner; the
/// decorator checks every batch; predictions must match across
/// retrievers.
void replayForward(Rep& rep, const engine::ExperimentConfig& cfg,
                   std::uint64_t seed, double bound, int gpus_per_node) {
  std::vector<float> first_predictions;
  for (const auto& r : kMainRetrievers) {
    KernelLog log;
    beginRun(log, seed, cfg.layer.dim);
    armChecks(bound, gpus_per_node);
    engine::ExperimentResult result;
    std::int64_t ops = 0;
    if (cfg.serving.enabled()) {
      engine::ServingRunner runner(cfg);
      result = runner.run(dlrmName(r));
      ops = cfg.serving.num_queries;
      if (result.serving->queries != ops) {
        fail(rep, ops - result.serving->queries, r + ": replay lost queries");
      }
      checkFabric(rep, runner.builder().fabric(), r + " replay");
    } else {
      engine::ScenarioRunner runner(cfg);
      result = runner.run(dlrmName(r));
      ops = cfg.num_batches;
      checkFabric(rep, runner.builder().fabric(), r + " replay");
    }
    rep.attempted += ops;
    Checks& c = session().checks;
    if (c.failed_batches > 0) fail(rep, c.failed_batches, c.first_error);
    if (session().acc.batches == 0) fail(rep, ops, r + ": replay ran no batch");
    // Serving batches are formed by arrival and service times, so their
    // composition (and hence the prediction order) differs by retriever;
    // there the per-batch reference check above is the output check.
    if (cfg.serving.enabled()) continue;
    if (first_predictions.empty()) {
      first_predictions = c.predictions;
    } else if (first_predictions.size() != c.predictions.size() ||
               std::memcmp(first_predictions.data(), c.predictions.data(),
                           first_predictions.size() * sizeof(float)) != 0) {
      fail(rep, ops, r + ": predictions differ from " + kMainRetrievers[0]);
    }
  }
  session().checks = Checks{};
}

/// Both training pairings from the same initial tables must leave
/// bit-identical tables.
void replayTraining(Rep& rep, std::uint64_t seed) {
  engine::ExperimentConfig cfg = infer1NodeConfig();
  shrinkForReplay(cfg, 8, 512, 8, 32);
  cfg.layer.max_pooling = 4;
  constexpr int kSteps = 3;
  std::vector<float> first_tables;
  for (const auto& r : kMainRetrievers) {
    KernelLog log;
    beginRun(log, seed, cfg.layer.dim);
    engine::SystemBuilder builder(cfg);
    auto inner = core::RetrieverRegistry::instance().create(
        r, builder.context());
    dlrm::DlrmModel model(session().model, builder.layer());
    dlrm::DlrmTrainer trainer(model, *inner, builder.comm(),
                              builder.runtime(), 0.01f,
                              r == "pgas_fused"
                                  ? dlrm::BackwardScheme::kPgasAtomics
                                  : dlrm::BackwardScheme::kCollective);
    const auto snapshot = [&] {
      std::vector<float> weights;
      auto& layer = builder.layer();
      for (std::int64_t t = 0; t < cfg.layer.total_tables; ++t) {
        for (std::int64_t row = 0; row < cfg.layer.rows_per_table; ++row) {
          for (int col = 0; col < cfg.layer.dim; ++col) {
            weights.push_back(layer.table(t).weight(row, col));
          }
        }
      }
      return weights;
    };
    const std::vector<float> initial = snapshot();
    Rng rng(seed);
    for (int step = 0; step < kSteps; ++step) {
      const auto sparse =
          emb::SparseBatch::generateUniform(cfg.layer.batchSpec(), rng);
      const auto dense = dlrm::DenseBatch::generateUniform(
          cfg.layer.batch_size, session().model.dense_dim, rng);
      const auto res = trainer.step(dense, sparse);
      if (!std::isfinite(res.loss)) fail(rep, 1, r + ": non-finite loss");
    }
    rep.attempted += kSteps;
    checkFabric(rep, builder.fabric(), r + " training replay");
    std::vector<float> tables = snapshot();
    if (tables == initial) {
      fail(rep, kSteps, r + ": training left the tables unchanged");
    }
    if (first_tables.empty()) {
      first_tables = std::move(tables);
    } else if (std::memcmp(first_tables.data(), tables.data(),
                           first_tables.size() * sizeof(float)) != 0) {
      fail(rep, kSteps, r + ": trained tables differ from " +
                            kMainRetrievers[0]);
    }
  }
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "infer_1node", "infer_16node", "serve_skewed", "train_1node"};
  return names;
}

Rep runRep(const std::string& workload, std::uint64_t seed, Tracer& t) {
  registerDecorators();
  session().tracer = &t;
  Rep rep;
  try {
    if (workload == "infer_1node") {
      closedLoopRep(rep, infer1NodeConfig(), kInfer1NodeBatches, seed);
    } else if (workload == "infer_16node") {
      closedLoopRep(rep, infer16NodeConfig(), kInfer16NodeBatches, seed);
    } else if (workload == "serve_skewed") {
      serveRep(rep, seed);
    } else if (workload == "train_1node") {
      trainRep(rep, seed);
    } else {
      throw std::invalid_argument("unknown workload " + workload);
    }
  } catch (const std::exception& e) {
    fail(rep, 1, workload + ": " + e.what());
  }
  session().kernels = nullptr;
  return rep;
}

Rep replayFunctional(const std::string& workload, std::uint64_t seed) {
  registerDecorators();
  Tracer off;
  session().tracer = &off;
  Rep rep;
  try {
    if (workload == "infer_1node") {
      engine::ExperimentConfig cfg = infer1NodeConfig();
      shrinkForReplay(cfg, 16, 4096, 16, 64);
      cfg.layer.max_pooling = 8;
      cfg.num_batches = 3;
      cfg.batch_seed = seed;
      replayForward(rep, cfg, seed, 0.0, 0);
    } else if (workload == "infer_16node") {
      engine::ExperimentConfig cfg = infer16NodeConfig();
      shrinkForReplay(cfg, 64, 1024, 16, 128);
      cfg.num_batches = 2;
      cfg.batch_seed = seed;
      replayForward(rep, cfg, seed, cfg.compress_bound, 4);
    } else if (workload == "serve_skewed") {
      engine::ExperimentConfig cfg = serveConfig(seed);
      shrinkForReplay(cfg, 16, 4096, 16, 64);
      cfg.layer.index_space = 4096;
      cfg.cache_rows = 256;
      cfg.serving.num_queries = 300;
      cfg.serving.qps = kServeRefQps;
      cfg.serving.query_size = emb::parseQuerySizeSpec("zipf:1.1:1-16");
      cfg.serving.max_batch_size = 64;
      replayForward(rep, cfg, seed, 0.0, 0);
    } else if (workload == "train_1node") {
      replayTraining(rep, seed);
    } else {
      throw std::invalid_argument("unknown workload " + workload);
    }
  } catch (const std::exception& e) {
    fail(rep, 1, workload + " replay: " + e.what());
  }
  session().checks = Checks{};
  return rep;
}

}  // namespace perfbench
