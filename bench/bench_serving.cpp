// Open-loop serving benchmark: tail latency vs offered load.
//
// A seeded load generator emits timestamped queries (Poisson or bursty
// on/off arrivals) with per-query candidate counts; a dynamic batcher
// packs them into fixed-shape batches (close on fill or on the first
// query's wait budget); the retriever serves batches back to back on
// the simulated clock. The sweep crosses offered QPS x arrival pattern
// x retriever and reports per-query p50/p95/p99, achieved throughput,
// batch fill, queue depth, SLO violations, and the knee of the curve —
// the largest offered load each retriever sustains (achieved within 5%
// of offered, p99 under --slo-ms when set).
//
// A fault plan (--faults) runs underneath for brownout scenarios; with
// --slo-ms the per-query sliding-window p95 drives the SLO fallback
// policy, so a mid-run link degrade shows up as a retriever switch and
// a recovery in the p95 timeline.
#include "bench_common.hpp"
#include "engine/serving_runner.hpp"
#include "util/parse.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli(
      "Open-loop serving benchmark: query load generator -> dynamic "
      "batcher -> retriever, sweeping offered QPS x arrival pattern and "
      "reporting per-query tail latency and the max sustainable load.");
  cli.addInt("gpus", 2, "GPU count of the serving node");
  cli.addInt("queries", 2000, "queries per configuration");
  cli.addString("qps-list", "16000,32000,64000,128000,256000",
                "comma-separated offered loads (queries/sec) to sweep");
  cli.addString("arrivals", "poisson,bursty",
                "comma-separated arrival patterns (poisson, bursty)");
  cli.addDouble("burst-on-ms", 5.0, "bursty: burst window length (ms)");
  cli.addDouble("burst-off-ms", 5.0, "bursty: silence window length (ms)");
  cli.addString("query-sizes", "zipf:1.1:1-64",
                "per-query candidate-count distribution: fixed:N, "
                "uniform:LO-HI, or zipf:ALPHA:LO-HI");
  cli.addInt("max-batch", 256,
             "dynamic-batcher capacity in samples (= the fixed batch "
             "shape the retriever serves)");
  cli.addDouble("max-wait-ms", 0.2,
                "dynamic-batcher wait budget of a batch's first query (ms)");
  cli.addString("csv", "serving_sweep.csv", "output CSV path (empty = none)");
  cli.addString("bench-json", "",
                "write the tracked serving metrics (p99 ms at the lowest "
                "swept load, max sustainable QPS) to this path; empty = off");
  const bench::ConfigFlags flags(
      cli, bench::kRetrievers | bench::kSimsan | bench::kCache |
               bench::kFaults | bench::kAdmission | bench::kCoalesce);
  if (!cli.parseOrExit(argc, argv)) return 0;

  const int gpus = static_cast<int>(cli.getInt("gpus"));
  const std::int64_t max_batch = cli.getInt("max-batch");
  const auto qps_list =
      bench::splitList(cli, "qps-list", "rate", [](const std::string& item) {
        const double qps = parseDoubleStrict(item, "--qps-list rate");
        if (qps <= 0.0) {
          throw InvalidArgumentError("--qps-list: bad rate '" + item +
                                     "' (want positive numbers)");
        }
        return qps;
      });
  const auto arrivals = bench::splitList(cli, "arrivals", "pattern",
                                         engine::parseArrivalPattern);
  const auto retrievers = flags.retrievers();
  const double slo_ms = cli.getDouble("slo-ms");
  const emb::QuerySizeSpec query_size =
      emb::parseQuerySizeSpec(cli.getString("query-sizes"));

  const auto make_config = [&](engine::ArrivalPattern arrival, double qps) {
    engine::ExperimentConfig cfg;
    cfg.num_gpus = gpus;
    cfg.layer = emb::servingLayerSpec(gpus, max_batch);
    cfg.serving.num_queries = cli.getInt("queries");
    cfg.serving.qps = qps;
    cfg.serving.arrival = arrival;
    cfg.serving.burst_on_ms = cli.getDouble("burst-on-ms");
    cfg.serving.burst_off_ms = cli.getDouble("burst-off-ms");
    cfg.serving.query_size = query_size;
    cfg.serving.max_wait_ms = cli.getDouble("max-wait-ms");
    cfg.serving.slo_ms = slo_ms;
    flags.apply(cfg);
    return cfg;
  };

  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  std::vector<trace::ServingPoint> points;
  for (const auto arrival : arrivals) {
    for (const double qps : qps_list) {
      const auto cfg = make_config(arrival, qps);
      engine::ServingRunner runner(cfg);
      trace::ServingPoint point;
      point.arrival = engine::formatArrivalPattern(arrival);
      point.qps = qps;
      point.runs = runner.runAll(retrievers);
      points.push_back(std::move(point));
    }
  }

  char header[256];
  snprintf(header, sizeof(header),
           "Open-loop serving: %d GPU(s), 8 tables/GPU x 1M rows, dim 64, "
           "batch %lld, query sizes %s",
           gpus, static_cast<long long>(max_batch),
           emb::formatQuerySizeSpec(query_size).c_str());
  bench::printHeader(header);

  printf("\n%s\n", trace::renderServingTable(points).c_str());
  printf("(open loop: queries arrive on the simulated clock regardless "
         "of service times; achieved << offered = the queue grew "
         "without bound)\n");
  printf("\n%s\n", trace::renderServingSummary(points, slo_ms).c_str());

  // Resilience under serving load (absent without --faults): the same
  // counters the closed-loop benches report, keyed by sweep point.
  const std::string resilience = trace::renderServingResilienceTable(points);
  if (!resilience.empty()) printf("\n%s\n", resilience.c_str());

  // The highest swept load of one arrival pattern (null when none ran).
  const auto top_point = [&](const std::string& arrival) {
    const trace::ServingPoint* top = nullptr;
    for (const auto& p : points) {
      if (p.arrival == arrival && (top == nullptr || p.qps > top->qps)) {
        top = &p;
      }
    }
    return top;
  };

  // p95-over-time at each arrival pattern's highest swept load — the
  // regime where batching, backlog, and any brownout actually bite.
  for (const auto arrival : arrivals) {
    const std::string name = engine::formatArrivalPattern(arrival);
    const trace::ServingPoint* top = top_point(name);
    if (top == nullptr) continue;
    char title[128];
    snprintf(title, sizeof(title), "p95 timeline (%s, %.0f qps)",
             name.c_str(), top->qps);
    printf("\n%s\n", trace::renderP95Timeline(top->runs, title).c_str());
  }

  // Latency histogram of the treatment run (last retriever) at the
  // first arrival pattern's highest load.
  {
    const std::string name = engine::formatArrivalPattern(arrivals.front());
    const trace::ServingPoint* top = top_point(name);
    if (top != nullptr && !top->runs.empty()) {
      const auto& run = top->runs.back();
      char title[128];
      snprintf(title, sizeof(title), "Latency histogram (%s, %s, %.0f qps)",
               trace::runStyle(run.retriever).short_name.c_str(),
               name.c_str(), top->qps);
      printf("\n%s\n",
             trace::renderLatencyHistogram(run.result, title).c_str());
    }
  }

  bool any_simsan = false;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      if (!run.result.sanitizer) continue;
      if (!any_simsan) printf("\nsimsan:\n");
      any_simsan = true;
      printf("  %s %6.0f qps %-16s %s\n", p.arrival.c_str(), p.qps,
             run.retriever.c_str(), run.result.sanitizer->report().c_str());
    }
  }

  const std::string csv = cli.getString("csv");
  if (!csv.empty()) {
    trace::writeServingCsv(csv, points);
    printf("\nwrote %s\n", csv.c_str());
  }

  // Tracked serving metrics (opt-in; default output is unchanged). The
  // numbers are simulated — deterministic for a given seed — so the
  // perf gate can hold them tighter than wall-clock records: p99 at the
  // lowest swept load of the first arrival pattern, and the knee.
  const std::string bench_json = cli.getString("bench-json");
  if (!bench_json.empty()) {
    const std::string first_arrival =
        engine::formatArrivalPattern(arrivals.front());
    double low_qps = qps_list.front();
    for (const double q : qps_list) low_qps = std::min(low_qps, q);
    std::vector<double> p99_ms(retrievers.size(), 0.0);
    std::vector<double> knee_qps(retrievers.size(), 0.0);
    for (const auto& p : points) {
      if (p.arrival != first_arrival) continue;
      for (std::size_t r = 0; r < retrievers.size(); ++r) {
        const auto* run = r < p.runs.size() ? &p.runs[r] : nullptr;
        if (run == nullptr || !run->result.serving) continue;
        const auto& sv = *run->result.serving;
        if (p.qps == low_qps) p99_ms[r] = sv.p99_ms;
        if (trace::sustained(sv, slo_ms) && p.qps > knee_qps[r]) {
          knee_qps[r] = p.qps;
        }
      }
    }
    bench::BenchRecord record("serving");
    record.field("gpus", std::to_string(gpus));
    record.field("queries", std::to_string(cli.getInt("queries")));
    record.field("arrival", "\"" + first_arrival + "\"");
    record.field("low_qps", bench::BenchRecord::number("%.1f", low_qps));
    record.metric("serving_p99_ms", retrievers, p99_ms, "%.4f");
    record.metric("max_sustainable_qps", retrievers, knee_qps, "%.1f");
    record.write(bench_json);
  }
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
