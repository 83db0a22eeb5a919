// Fault-severity sweep: how gracefully does each retrieval strategy
// degrade under injected link degradation, flaps, stragglers, and
// launch failures?
//
// Runs every named retriever at one GPU count across a ladder of
// severity levels (none / light / moderate / heavy) and reports the
// per-batch slowdown next to the resilience counters that explain it —
// retransmits, collective reissues, dropped flows, launch retries, and
// recovery time. `none` doubles as the control: its row must match the
// fault-free benches exactly (the fault layer is zero-cost when off).
//
// --nodes N (N > 1) switches to the node-level fault-domain sweep
// (DESIGN.md §13): hierarchical all-to-all across N nodes under the
// node-scoped fault kinds (nic-degrade, nic-flap, leader-fail,
// node-straggle), reporting per-pair degraded-mode fallbacks, leader
// failovers, and staging rebuilds next to the classic counters.
// --bench-json additionally records the tracked resilience metrics
// (recovery ms, degraded-mode fraction, serving goodput under overload)
// for the scripts/check_perf.py gate.
#include <algorithm>
#include <memory>
#include <span>

#include "bench_common.hpp"
#include "engine/serving_runner.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace pgasemb;

struct Severity {
  const char* name;
  const char* spec;  ///< FaultPlan grammar; "" = no injection
};

// The heavy level's link flap is appended with an explicit window at
// run time (mid-run, width bounded by the retry budget) — a seed-drawn
// flap window could be wider than the retransmit backoff covers.
// "flap" is the flap alone: with no other fault stretching the batches,
// the calibrated window provably overlaps in-flight wire traffic for
// the reference strategy too (in "heavy" the degrade+straggler shift
// the baseline's phases, so whether its chunks are mid-flap depends on
// the workload).
constexpr Severity kSeverities[] = {
    {"none", ""},
    {"light", "link-degrade:0-1:0.7"},
    {"moderate", "link-degrade:*:0.5,straggler:0:2"},
    {"flap", "+flap"},
    {"heavy", "link-degrade:*:0.35,straggler:0:3,launch-fail:1:0.3+flap"},
};

// Node-scoped ladder (--nodes > 1): one level per fault kind so the
// counters attribute cleanly, then a combined heavy level. Seeded
// windows are drawn over each retriever's calibrated horizon; the
// nic-flap width is clamped by the plan to half the retry budget, so
// dropped inter-node flows always recover.
constexpr Severity kNodeSeverities[] = {
    {"none", ""},
    {"nic-degrade", "nic-degrade:0:0.5"},
    {"nic-flap", "nic-flap:0"},
    {"leader-fail", "leader-fail:0"},
    {"node-straggle", "node-straggle:0:2"},
    {"heavy", "nic-degrade:*:0.6,nic-flap:1,leader-fail:0"},
};

/// Mid-run flap spec: placed inside a middle batch's communication phase
/// (computed from the calibration run's breakdown, so chunks are
/// actually in flight when the link dies), width capped at 8 ms so every
/// dropped flow recovers within the default retry budget.
std::string midRunFlap(double start_ms, double width_ms) {
  char buf[96];
  snprintf(buf, sizeof(buf), ",link-flap:*:%.3f-%.3f", start_ms,
           start_ms + std::min(8.0, width_ms));
  return buf;
}

/// Serving goodput under overload: offered load far past the 2-GPU knee
/// with the full admission stack armed (bounded queue + shed-oldest,
/// queue-wait deadlines, sliding-window controller against a 2 ms SLO).
/// Deterministic for the fixed seed, so the perf gate can track it.
double overloadGoodputQps(const std::string& retriever) {
  engine::ExperimentConfig cfg;
  cfg.num_gpus = 2;
  cfg.layer = emb::servingLayerSpec(2, 256);
  cfg.serving.num_queries = 600;
  cfg.serving.qps = 256000.0;
  cfg.serving.max_wait_ms = 0.2;
  cfg.serving.slo_ms = 2.0;
  cfg.serving.admit_queue = 64;
  cfg.serving.shed_policy = engine::ShedPolicy::kShedOldest;
  cfg.serving.query_deadline_ms = 4.0;
  cfg.serving.admit_window = 50;
  engine::ServingRunner runner(cfg);
  const auto result = runner.run(retriever);
  return result.serving ? result.serving->goodput_qps : 0.0;
}

}  // namespace

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli(
      "Fault-severity x retriever sweep: per-batch slowdown and "
      "resilience counters under injected faults.");
  cli.addInt("gpus", 4,
             "total GPU count to run every severity level at (with "
             "--nodes > 1: must be divisible by the node count)");
  cli.addInt("batches", 20, "inference batches per run");
  cli.addInt("fault-seed", 7, "seed for the unpinned fault windows");
  cli.addInt("nodes", 0,
             "node count for the node-level fault-domain sweep "
             "(nic/leader/node faults against the hierarchical a2a); "
             "0 or 1 = the classic single-node ladder");
  cli.addString("csv", "fault_sweep.csv", "output CSV path (empty = none)");
  cli.addString("bench-json", "",
                "write the tracked resilience metrics (recovery ms, "
                "degraded-mode fraction, serving goodput under overload) "
                "to this path; empty = off");
  const bench::ConfigFlags flags(
      cli, bench::kRetrievers | bench::kSimsan | bench::kCoalesce);
  if (!cli.parseOrExit(argc, argv)) return 0;

  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const int batches = static_cast<int>(cli.getInt("batches"));
  const int nodes = static_cast<int>(cli.getInt("nodes"));
  const auto seed = static_cast<std::uint64_t>(cli.getInt("fault-seed"));
  const auto retrievers = flags.retrievers();
  const bool node_mode = nodes > 1;
  if (node_mode && (gpus % nodes != 0 || gpus / nodes < 2)) {
    throw InvalidArgumentError(
        "--nodes " + std::to_string(nodes) +
        " needs --gpus divisible by it with >= 2 GPUs per node (got " +
        std::to_string(gpus) + ")");
  }

  std::vector<std::string> table_headers{
      "Severity", "retriever", "ms/batch", "drops", "retransmits",
      "reissues", "launch retries", "recovery ms"};
  if (node_mode) {
    table_headers.insert(table_headers.end(),
                         {"hier fb", "degraded ms", "failovers", "rebuilds"});
  }
  ConsoleTable table(table_headers);
  std::unique_ptr<CsvWriter> csv;
  const std::string csv_path = cli.getString("csv");
  if (!csv_path.empty()) {
    std::vector<std::string> csv_headers{
        "severity", "retriever", "avg_batch_ms", "dropped_flows",
        "retransmits", "retransmitted_bytes", "collective_reissues",
        "launch_retries", "fallbacks", "recovery_ms"};
    if (node_mode) {
      csv_headers.insert(csv_headers.end(),
                         {"hier_fallbacks", "degraded_ms",
                          "leader_failovers", "staging_rebuilds"});
    }
    csv = std::make_unique<CsvWriter>(csv_path, csv_headers);
  }

  // Tracked metrics, accumulated over the faulted severity levels.
  std::vector<double> recovery_ms(retrievers.size(), 0.0);
  std::vector<double> degraded_ms(retrievers.size(), 0.0);
  std::vector<double> faulted_total_ms(retrievers.size(), 0.0);

  std::vector<trace::ScalingPoint> points;
  // The 'none' run (always first) calibrates each retriever's fault
  // horizon: its seeded windows are drawn across its own measured
  // fault-free run length, so the faults actually overlap its traffic
  // whatever --gpus/--batches is (a fast retriever would otherwise
  // finish before windows drawn over a slow reference's run open).
  std::vector<SimTime> horizons(retrievers.size(), SimTime::ms(10.0));
  double flap_start_ms = 1.0;
  double flap_width_ms = 2.0;
  const std::span<const Severity> severities =
      node_mode ? std::span<const Severity>(kNodeSeverities) : kSeverities;
  for (const Severity& sev : severities) {
    trace::ScalingPoint point;
    point.gpus = gpus;
    for (std::size_t r = 0; r < retrievers.size(); ++r) {
      engine::ExperimentConfig cfg = engine::weakScalingConfig(gpus);
      if (node_mode) {
        cfg.layer = emb::multinodeServingLayerSpec(gpus);
        bench::applyInterNodeLink(cfg, nodes);
        cfg.hierarchical_a2a = true;
      }
      cfg.num_batches = batches;
      if (sev.spec[0] != '\0') {
        std::string spec = sev.spec;
        const auto marker = spec.find("+flap");
        if (marker != std::string::npos) {
          spec.erase(marker);
          const std::string flap = midRunFlap(flap_start_ms, flap_width_ms);
          spec += spec.empty() ? flap.substr(1) : flap;
        }
        cfg.faults = fault::FaultPlan::parse(spec, seed, horizons[r]);
      }
      flags.apply(cfg);
      point.runs.push_back(
          {retrievers[r], engine::ScenarioRunner(cfg).run(retrievers[r])});
    }
    if (sev.spec[0] == '\0' && !point.runs.empty()) {
      for (std::size_t r = 0; r < point.runs.size(); ++r) {
        const double batch_ms = point.runs[r].result.avgBatchMs();
        if (batch_ms > 0.0) horizons[r] = SimTime::ms(batch_ms * batches);
      }
      const auto& ref = point.runs.front().result;
      const double batch_ms = ref.avgBatchMs();
      if (batch_ms > 0.0) {
        // Drop the flap into a middle batch's post-compute (wire) phase,
        // where the reference strategy has chunks in flight.
        const double comm_ms = batch_ms - ref.avgComputeMs();
        flap_start_ms = (batches / 2) * batch_ms + ref.avgComputeMs() +
                        0.25 * comm_ms;
        flap_width_ms = std::max(0.5, comm_ms * 0.5);
      }
    }
    for (std::size_t r = 0; r < point.runs.size(); ++r) {
      const auto& run = point.runs[r];
      fault::ResilienceStats rs;
      if (run.result.resilience) rs = *run.result.resilience;
      if (sev.spec[0] != '\0') {
        recovery_ms[r] += rs.recovery_latency.toMs();
        degraded_ms[r] += rs.degraded_time.toMs();
        faulted_total_ms[r] += run.result.stats.total.toMs();
      }
      std::vector<std::string> row{
          sev.name, trace::runKey(run.retriever),
          ConsoleTable::num(run.result.avgBatchMs(), 3),
          std::to_string(rs.dropped_flows),
          std::to_string(rs.retransmits),
          std::to_string(rs.collective_reissues),
          std::to_string(rs.launch_retries),
          ConsoleTable::num(rs.recovery_latency.toMs(), 3)};
      if (node_mode) {
        row.push_back(std::to_string(rs.hier_fallbacks));
        row.push_back(ConsoleTable::num(rs.degraded_time.toMs(), 3));
        row.push_back(std::to_string(rs.leader_failovers));
        row.push_back(std::to_string(rs.staging_rebuilds));
      }
      table.addRow(row);
      if (csv) {
        std::vector<std::string> csv_row{
            sev.name, run.retriever,
            ConsoleTable::num(run.result.avgBatchMs(), 4),
            std::to_string(rs.dropped_flows),
            std::to_string(rs.retransmits),
            std::to_string(rs.retransmitted_bytes),
            std::to_string(rs.collective_reissues),
            std::to_string(rs.launch_retries),
            std::to_string(rs.fallback_switches),
            ConsoleTable::num(rs.recovery_latency.toMs(), 4)};
        if (node_mode) {
          csv_row.push_back(std::to_string(rs.hier_fallbacks));
          csv_row.push_back(ConsoleTable::num(rs.degraded_time.toMs(), 4));
          csv_row.push_back(std::to_string(rs.leader_failovers));
          csv_row.push_back(std::to_string(rs.staging_rebuilds));
        }
        csv->addRow(csv_row);
      }
    }
    points.push_back(std::move(point));
  }

  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  if (node_mode) {
    bench::printHeader(
        "Node-level fault domains at " + std::to_string(nodes) + " nodes x " +
        std::to_string(gpus / nodes) + " GPUs (hierarchical a2a), " +
        std::to_string(batches) + " batches, fault seed " +
        std::to_string(seed));
  } else {
    bench::printHeader("Fault-severity sweep at " + std::to_string(gpus) +
                       " GPUs, " + std::to_string(batches) +
                       " batches, fault seed " + std::to_string(seed));
  }

  printf("\n%s\n", table.render().c_str());
  if (node_mode) {
    printf("('none' must match the fault-free multi-node benches exactly; "
           "degraded ms counts\n only the traffic that actually fell back "
           "to flat routing on faulted node pairs)\n");
  } else {
    printf("('none' must match the fault-free benches exactly — the fault "
           "layer is zero-cost when off)\n");
  }
  bench::printSimsanReports(points);
  if (csv) {
    csv->close();
    printf("\nwrote %s\n", csv_path.c_str());
  }

  // Tracked resilience metrics (opt-in; default output is unchanged).
  // All simulated and deterministic for the fixed seeds, so the perf
  // gate holds them tighter than wall-clock records: summed recovery
  // time and degraded-mode fraction over the faulted severity levels,
  // plus serving goodput under 2x-knee overload with shedding armed.
  const std::string bench_json = cli.getString("bench-json");
  if (!bench_json.empty()) {
    std::vector<double> goodput(retrievers.size(), 0.0);
    for (std::size_t r = 0; r < retrievers.size(); ++r) {
      goodput[r] = overloadGoodputQps(retrievers[r]);
    }
    std::vector<double> degraded_fraction(retrievers.size(), 0.0);
    for (std::size_t r = 0; r < retrievers.size(); ++r) {
      if (faulted_total_ms[r] > 0.0) {
        degraded_fraction[r] = degraded_ms[r] / faulted_total_ms[r];
      }
    }
    bench::BenchRecord record("resilience");
    record.field("nodes", std::to_string(node_mode ? nodes : 1));
    record.field("gpus", std::to_string(gpus));
    record.field("batches", std::to_string(batches));
    record.field("fault_seed", std::to_string(seed));
    record.metric("resilience_recovery_ms", retrievers, recovery_ms, "%.4f");
    record.metric("resilience_degraded_fraction", retrievers,
                  degraded_fraction, "%.6f");
    record.metric("serving_goodput_qps", retrievers, goodput, "%.1f");
    record.write(bench_json);
  }
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
