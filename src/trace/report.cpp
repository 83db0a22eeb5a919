#include "trace/report.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/expect.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace pgasemb::trace {

RunStyle runStyle(const std::string& retriever) {
  if (retriever == "nccl_collective") return {"baseline", "baseline", 'b'};
  if (retriever == "pgas_fused") return {"PGAS fused", "PGAS", 'p'};
  if (retriever == "nccl_pipelined") return {"pipelined", "pipelined", 'l'};
  return {retriever, retriever, retriever.empty() ? '?' : retriever[0]};
}

std::string runKey(const std::string& retriever) {
  std::string key = runStyle(retriever).short_name;
  std::transform(key.begin(), key.end(), key.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return key;
}

namespace {

/// True when the run's phase timings separate into the paper's three
/// bars; fused (PGAS) and pipelined runs report a single amortized
/// phase.
bool hasSeparablePhases(const engine::ExperimentResult& r) {
  return r.stats.communication() > SimTime::zero() ||
         r.stats.syncUnpack() > SimTime::zero();
}

}  // namespace

const engine::NamedResult& ScalingPoint::reference() const {
  PGASEMB_CHECK(!runs.empty(), "scaling point has no runs");
  return runs.front();
}

const engine::NamedResult& ScalingPoint::treatment() const {
  PGASEMB_CHECK(!runs.empty(), "scaling point has no runs");
  return runs.back();
}

const engine::NamedResult* ScalingPoint::find(
    const std::string& retriever) const {
  for (const auto& run : runs) {
    if (run.retriever == retriever) return &run;
  }
  return nullptr;
}

double ScalingPoint::speedup() const {
  if (runs.empty()) return 0.0;
  const double treat = treatment().result.avgBatchMs();
  return treat > 0.0 ? reference().result.avgBatchMs() / treat : 0.0;
}

double geomeanSpeedup(const std::vector<ScalingPoint>& points) {
  std::vector<double> speedups;
  for (const auto& p : points) {
    if (p.gpus >= 2) speedups.push_back(p.speedup());
  }
  return speedups.empty() ? 0.0 : geomean(speedups);
}

std::string renderSpeedupTable(const std::vector<ScalingPoint>& points) {
  std::vector<std::string> headers{"Speedup"};
  for (const auto& p : points) {
    if (p.gpus < 2) continue;
    headers.push_back(std::to_string(p.gpus) + " GPUs");
  }
  headers.push_back("geo-mean");
  ConsoleTable table(headers);

  // One row per non-reference retriever, in first-point run order.
  const std::size_t num_runs = points.empty() ? 0 : points.front().runs.size();
  for (std::size_t r = 1; r < num_runs; ++r) {
    std::vector<std::string> row;
    std::vector<double> speedups;
    for (const auto& p : points) {
      if (p.gpus < 2 || r >= p.runs.size()) continue;
      if (row.empty()) {
        row.push_back(runStyle(p.runs[r].retriever).short_name + " over " +
                      runStyle(p.reference().retriever).short_name);
      }
      const double run_ms = p.runs[r].result.avgBatchMs();
      const double s =
          run_ms > 0.0 ? p.reference().result.avgBatchMs() / run_ms : 0.0;
      speedups.push_back(s);
      row.push_back(ConsoleTable::num(s, 2) + "x");
    }
    if (row.empty()) continue;
    row.push_back(
        ConsoleTable::num(speedups.empty() ? 0.0 : geomean(speedups), 2) +
        "x");
    table.addRow(row);
  }
  return table.render();
}

std::string renderScalingChart(const std::vector<ScalingPoint>& points,
                               bool weak) {
  PGASEMB_CHECK(!points.empty(), "no scaling points");
  const auto& run_names = points.front().runs;
  PGASEMB_CHECK(!run_names.empty(), "scaling points carry no runs");

  const ScalingPoint* one_gpu = nullptr;
  for (const auto& p : points) {
    if (p.gpus == 1) one_gpu = &p;
  }
  PGASEMB_CHECK(one_gpu != nullptr,
                "scaling chart needs a 1-GPU reference point");

  AsciiLineChart chart(weak ? "Weak scaling factor (ideal = 1.0)"
                            : "Strong scaling factor (ideal = #GPUs)");
  chart.setAxisLabels("GPUs", "scaling factor");

  ChartSeries ideal{"ideal", {}, {}, '.'};
  for (const auto& p : points) {
    ideal.x.push_back(p.gpus);
    ideal.y.push_back(weak ? 1.0 : static_cast<double>(p.gpus));
  }
  chart.addSeries(ideal);

  for (const auto& named : run_names) {
    const auto* base_run = one_gpu->find(named.retriever);
    PGASEMB_CHECK(base_run != nullptr,
                  "1-GPU point is missing retriever '" + named.retriever +
                      "'");
    const double base = base_run->result.avgBatchMs();
    PGASEMB_CHECK(base > 0.0,
                  "scaling chart needs a positive 1-GPU runtime for '" +
                      named.retriever + "'");
    const RunStyle style = runStyle(named.retriever);
    ChartSeries series{style.display, {}, {}, style.marker};
    for (const auto& p : points) {
      const auto* run = p.find(named.retriever);
      if (run == nullptr || run->result.avgBatchMs() <= 0.0) continue;
      series.x.push_back(p.gpus);
      // Scaling factor: 1-GPU runtime / runtime (ideal flat 1.0 for
      // weak scaling, ideal = p for strong scaling).
      series.y.push_back(base / run->result.avgBatchMs());
    }
    chart.addSeries(series);
  }
  return chart.render();
}

std::string renderBreakdownBars(const std::vector<ScalingPoint>& points,
                                const std::string& title) {
  AsciiStackedBars bars(title,
                        {"computation", "communication", "sync+unpack"});
  std::size_t label_width = 0;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      label_width =
          std::max(label_width, runStyle(run.retriever).short_name.size());
    }
  }
  bool any_fused = false;
  for (const auto& p : points) {
    const std::string g = std::to_string(p.gpus) + "gpu";
    for (const auto& run : p.runs) {
      std::string label = runStyle(run.retriever).short_name;
      // CSV keys stay as-is; bar labels keep the historical casing.
      std::transform(label.begin(), label.end(), label.begin(),
                     [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                     });
      label.resize(label_width, ' ');
      const auto& r = run.result;
      if (hasSeparablePhases(r)) {
        bars.addBar(label + " " + g,
                    {r.avgComputeMs(), r.avgCommunicationMs(),
                     r.avgSyncUnpackMs()});
      } else {
        any_fused = true;
        bars.addBar(label + " " + g, {r.avgBatchMs(), 0.0, 0.0});
      }
    }
  }
  std::string out = bars.render();
  if (any_fused) {
    out += "  (bars in ms per batch; PGAS is one fused "
           "phase — no separable comm/unpack)\n";
  }
  return out;
}

std::string renderCommVolumeChart(const std::vector<engine::NamedResult>& runs,
                                  const std::string& title) {
  AsciiLineChart chart(title);
  chart.setAxisLabels("time (us)", "comm volume (256 B units per bucket)");
  for (const auto& named : runs) {
    const RunStyle style = runStyle(named.retriever);
    ChartSeries series{style.display, {}, {}, style.marker};
    const auto& r = named.result;
    for (std::size_t i = 0; i < r.wire_bytes_over_time.size(); ++i) {
      series.x.push_back(r.bucket_width.toUs() *
                         (static_cast<double>(i) + 0.5));
      series.y.push_back(r.wire_bytes_over_time[i] / 256.0);
    }
    if (!series.x.empty()) chart.addSeries(series);
  }
  return chart.render();
}

std::string renderCacheTable(const std::vector<ScalingPoint>& points) {
  bool any_cache = false;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      any_cache = any_cache || run.result.stats.cache_lookups > 0.0;
    }
  }
  if (!any_cache) return "";

  ConsoleTable table(
      {"Replica cache", "GPUs", "hit rate", "saved MB/batch"});
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      const auto& r = run.result;
      if (r.stats.cache_lookups <= 0.0) continue;
      const double batches =
          r.stats.batches > 0 ? static_cast<double>(r.stats.batches) : 1.0;
      table.addRow({runStyle(run.retriever).short_name,
                    std::to_string(p.gpus),
                    ConsoleTable::num(r.cacheHitRate() * 100.0, 1) + "%",
                    ConsoleTable::num(
                        r.cacheSavedBytes() / batches / 1e6, 2)});
    }
  }
  return table.render();
}

std::string renderCompressionTable(
    const std::vector<engine::NamedResult>& runs) {
  bool any = false;
  for (const auto& run : runs) {
    any = any || run.result.compression.has_value();
  }
  if (!any) return "";

  ConsoleTable table({"Compression", "table", "bits", "ratio",
                      "max |err|", "mean |err|", "samples"});
  for (const auto& run : runs) {
    const auto& cr = run.result.compression;
    if (!cr.has_value()) continue;
    const std::string who = runStyle(run.retriever).short_name +
                            (cr->adaptive ? " (adaptive)" : "");
    table.addRow({who, "all", "-", ConsoleTable::num(cr->ratio(), 2) + "x",
                  ConsoleTable::num(cr->maxAbsError(), 6), "-", "-"});
    for (const auto& t : cr->tables) {
      // Tables never sampled (TimingOnly runs, or tables whose traffic
      // stayed intra-node) carry no measured error — render "-".
      const bool sampled = t.samples > 0;
      table.addRow({"", std::to_string(t.table), std::to_string(t.bits),
                    "", sampled ? ConsoleTable::num(t.max_abs_error, 6) : "-",
                    sampled ? ConsoleTable::num(t.mean_abs_error, 6) : "-",
                    std::to_string(t.samples)});
    }
  }
  return table.render();
}

std::string renderResilienceTable(const std::vector<ScalingPoint>& points) {
  bool any = false;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      any = any || run.result.resilience.has_value();
    }
  }
  if (!any) return "";

  ConsoleTable table({"Resilience", "GPUs", "drops", "retransmits",
                      "reissues", "launch retries", "recovery ms",
                      "hier fb", "degraded ms", "failovers", "rebuilds",
                      "fallback"});
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      const auto& rs = run.result.resilience;
      if (!rs.has_value()) continue;
      table.addRow({runStyle(run.retriever).short_name,
                    std::to_string(p.gpus),
                    std::to_string(rs->dropped_flows),
                    std::to_string(rs->retransmits),
                    std::to_string(rs->collective_reissues),
                    std::to_string(rs->launch_retries),
                    ConsoleTable::num(rs->recovery_latency.toMs(), 3),
                    std::to_string(rs->hier_fallbacks),
                    ConsoleTable::num(rs->degraded_time.toMs(), 3),
                    std::to_string(rs->leader_failovers),
                    std::to_string(rs->staging_rebuilds),
                    rs->fallback_switches > 0 ? rs->fallback_retriever
                                              : "-"});
    }
  }
  return table.render();
}

void writeScalingCsv(const std::string& path,
                     const std::vector<ScalingPoint>& points) {
  PGASEMB_CHECK(!points.empty() && !points.front().runs.empty(),
                "no scaling points to write");
  // Column layout mirrors the historical baseline-vs-PGAS schema:
  // per-run avg times, the headline speedup, the reference run's phase
  // breakdown, then wire bytes (non-reference runs first).
  const auto& runs = points.front().runs;
  const std::string ref_key = runKey(runs.front().retriever);
  std::vector<std::string> headers{"gpus"};
  for (const auto& run : runs) headers.push_back(runKey(run.retriever) + "_ms");
  headers.push_back("speedup");
  headers.push_back(ref_key + "_compute_ms");
  headers.push_back(ref_key + "_comm_ms");
  headers.push_back(ref_key + "_sync_unpack_ms");
  for (std::size_t r = runs.size(); r-- > 1;) {
    headers.push_back(runKey(runs[r].retriever) + "_wire_bytes");
  }
  headers.push_back(ref_key + "_wire_bytes");

  // Replica-cache columns appear only when some run actually probed a
  // cache, so cache-less sweeps keep the historical schema byte-for-byte.
  bool any_cache = false;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      any_cache = any_cache || run.result.stats.cache_lookups > 0.0;
    }
  }
  if (any_cache) {
    for (const auto& run : runs) {
      headers.push_back(runKey(run.retriever) + "_cache_hit_rate");
      headers.push_back(runKey(run.retriever) + "_cache_saved_bytes");
    }
  }

  // Resilience columns likewise appear only on faulted sweeps, keeping
  // fault-free CSVs byte-identical to the historical schema.
  bool any_resilience = false;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      any_resilience = any_resilience || run.result.resilience.has_value();
    }
  }
  if (any_resilience) {
    for (const auto& run : runs) {
      const std::string key = runKey(run.retriever);
      headers.push_back(key + "_retransmits");
      headers.push_back(key + "_reissues");
      headers.push_back(key + "_fallbacks");
      headers.push_back(key + "_hier_fallbacks");
      headers.push_back(key + "_degraded_ms");
      headers.push_back(key + "_leader_failovers");
      headers.push_back(key + "_staging_rebuilds");
    }
  }

  CsvWriter csv(path, headers);
  for (const auto& p : points) {
    const auto& ref = p.reference().result;
    std::vector<std::string> row{std::to_string(p.gpus)};
    for (const auto& run : p.runs) {
      row.push_back(ConsoleTable::num(run.result.avgBatchMs(), 4));
    }
    row.push_back(ConsoleTable::num(p.speedup(), 3));
    row.push_back(ConsoleTable::num(ref.avgComputeMs(), 4));
    row.push_back(ConsoleTable::num(ref.avgCommunicationMs(), 4));
    row.push_back(ConsoleTable::num(ref.avgSyncUnpackMs(), 4));
    for (std::size_t r = p.runs.size(); r-- > 1;) {
      row.push_back(std::to_string(p.runs[r].result.total_wire_bytes));
    }
    row.push_back(std::to_string(ref.total_wire_bytes));
    if (any_cache) {
      for (const auto& run : p.runs) {
        row.push_back(ConsoleTable::num(run.result.cacheHitRate(), 4));
        row.push_back(
            ConsoleTable::num(run.result.cacheSavedBytes(), 0));
      }
    }
    if (any_resilience) {
      for (const auto& run : p.runs) {
        const auto& rs = run.result.resilience;
        row.push_back(std::to_string(rs ? rs->retransmits : 0));
        row.push_back(std::to_string(rs ? rs->collective_reissues : 0));
        row.push_back(std::to_string(rs ? rs->fallback_switches : 0));
        row.push_back(std::to_string(rs ? rs->hier_fallbacks : 0));
        row.push_back(ConsoleTable::num(
            rs ? rs->degraded_time.toMs() : 0.0, 4));
        row.push_back(std::to_string(rs ? rs->leader_failovers : 0));
        row.push_back(std::to_string(rs ? rs->staging_rebuilds : 0));
      }
    }
    csv.addRow(row);
  }
}

namespace {

/// The serving section of a run; throws when the run was closed-loop.
const engine::ServingResult& servingOf(const engine::NamedResult& run) {
  PGASEMB_CHECK(run.result.serving.has_value(),
                "run '" + run.retriever + "' carries no serving results");
  return *run.result.serving;
}

}  // namespace

bool sustained(const engine::ServingResult& sv, double slo_ms) {
  if (sv.achieved_qps < 0.95 * sv.offered_qps) return false;
  return slo_ms <= 0.0 || sv.p99_ms <= slo_ms;
}

std::string renderServingTable(const std::vector<ServingPoint>& points) {
  // Admission columns appear only when some run armed an admission
  // knob, so knob-less sweeps keep the historical table byte-for-byte.
  bool any_admission = false;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      any_admission = any_admission || servingOf(run).admission;
    }
  }

  std::vector<std::string> headers{
      "Serving", "arrival", "qps", "queries", "p50 ms", "p95 ms",
      "p99 ms",  "max ms",  "achieved", "fill", "queue", "viol"};
  if (any_admission) {
    headers.insert(headers.end(),
                   {"shed", "miss", "blocked", "goodput"});
  }
  ConsoleTable table(headers);
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      const auto& sv = servingOf(run);
      std::vector<std::string> row{
          runStyle(run.retriever).short_name, p.arrival,
          ConsoleTable::num(p.qps, 0),
          std::to_string(sv.queries),
          ConsoleTable::num(sv.p50_ms, 3),
          ConsoleTable::num(sv.p95_ms, 3),
          ConsoleTable::num(sv.p99_ms, 3),
          ConsoleTable::num(sv.max_ms, 3),
          ConsoleTable::num(sv.achieved_qps, 0),
          ConsoleTable::num(sv.mean_batch_fill * 100.0, 0) + "%",
          ConsoleTable::num(sv.mean_queue_depth, 1),
          std::to_string(sv.slo_violations)};
      if (any_admission) {
        row.push_back(std::to_string(sv.shed_queue + sv.shed_overload));
        row.push_back(std::to_string(sv.deadline_misses));
        row.push_back(std::to_string(sv.blocked_arrivals));
        row.push_back(ConsoleTable::num(sv.goodput_qps, 0));
      }
      table.addRow(row);
    }
  }
  return table.render();
}

std::string renderServingResilienceTable(
    const std::vector<ServingPoint>& points) {
  bool any = false;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      any = any || run.result.resilience.has_value();
    }
  }
  if (!any) return "";

  ConsoleTable table({"Resilience", "arrival", "qps", "drops",
                      "retransmits", "reissues", "recovery ms", "hier fb",
                      "degraded ms", "failovers", "rebuilds", "fallback"});
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      const auto& rs = run.result.resilience;
      if (!rs.has_value()) continue;
      table.addRow({runStyle(run.retriever).short_name, p.arrival,
                    ConsoleTable::num(p.qps, 0),
                    std::to_string(rs->dropped_flows),
                    std::to_string(rs->retransmits),
                    std::to_string(rs->collective_reissues),
                    ConsoleTable::num(rs->recovery_latency.toMs(), 3),
                    std::to_string(rs->hier_fallbacks),
                    ConsoleTable::num(rs->degraded_time.toMs(), 3),
                    std::to_string(rs->leader_failovers),
                    std::to_string(rs->staging_rebuilds),
                    rs->fallback_switches > 0 ? rs->fallback_retriever
                                              : "-"});
    }
  }
  return table.render();
}

std::string renderServingSummary(const std::vector<ServingPoint>& points,
                                 double slo_ms) {
  PGASEMB_CHECK(!points.empty() && !points.front().runs.empty(),
                "no serving points to summarize");
  // Preserve first-appearance order of arrivals and retrievers.
  std::vector<std::string> arrivals;
  for (const auto& p : points) {
    if (std::find(arrivals.begin(), arrivals.end(), p.arrival) ==
        arrivals.end()) {
      arrivals.push_back(p.arrival);
    }
  }

  ConsoleTable table({"Max sustainable QPS", "arrival", "knee qps",
                      "p99 ms at knee"});
  for (const auto& named : points.front().runs) {
    for (const auto& arrival : arrivals) {
      const engine::ServingResult* knee = nullptr;
      double knee_qps = 0.0;
      for (const auto& p : points) {
        if (p.arrival != arrival) continue;
        for (const auto& run : p.runs) {
          if (run.retriever != named.retriever) continue;
          const auto& sv = servingOf(run);
          if (sustained(sv, slo_ms) && p.qps > knee_qps) {
            knee = &sv;
            knee_qps = p.qps;
          }
        }
      }
      table.addRow({runStyle(named.retriever).short_name, arrival,
                    knee ? ConsoleTable::num(knee_qps, 0) : "-",
                    knee ? ConsoleTable::num(knee->p99_ms, 3) : "-"});
    }
  }
  return table.render();
}

std::string renderLatencyHistogram(const engine::ExperimentResult& result,
                                   const std::string& title) {
  PGASEMB_CHECK(result.serving.has_value(),
                "latency histogram needs serving results");
  const auto& hist = result.serving->latency;
  AsciiLineChart chart(title);
  chart.setAxisLabels("log10(latency ms)", "queries per bin");
  ChartSeries series{"queries", {}, {}, '*'};
  // Span the occupied bins (zeros in between included, so queueing gaps
  // show as valleys).
  std::size_t lo = hist.numBins();
  std::size_t hi = 0;
  for (std::size_t b = 0; b < hist.numBins(); ++b) {
    if (hist.binCount(b) == 0) continue;
    if (lo == hist.numBins()) lo = b;
    hi = b;
  }
  for (std::size_t b = lo; b < hist.numBins() && b <= hi; ++b) {
    const double center =
        0.5 * (hist.binLowMs(b) + hist.binHighMs(b));
    series.x.push_back(std::log10(std::max(center, 1e-6)));
    series.y.push_back(static_cast<double>(hist.binCount(b)));
  }
  if (!series.x.empty()) chart.addSeries(series);
  return chart.render();
}

std::string renderP95Timeline(const std::vector<engine::NamedResult>& runs,
                              const std::string& title) {
  AsciiLineChart chart(title);
  chart.setAxisLabels("window #", "p95 (ms)");
  for (const auto& named : runs) {
    const auto& sv = servingOf(named);
    const RunStyle style = runStyle(named.retriever);
    ChartSeries series{style.display, {}, {}, style.marker};
    for (std::size_t w = 0; w < sv.window_p95_ms.size(); ++w) {
      series.x.push_back(static_cast<double>(w + 1));
      series.y.push_back(sv.window_p95_ms[w]);
    }
    if (!series.x.empty()) chart.addSeries(series);
  }
  return chart.render();
}

void writeServingCsv(const std::string& path,
                     const std::vector<ServingPoint>& points) {
  PGASEMB_CHECK(!points.empty() && !points.front().runs.empty(),
                "no serving points to write");
  // Admission and hierarchical-resilience columns appear only when some
  // run armed the corresponding knobs, keeping knob-less sweep CSVs
  // byte-identical to the historical schema.
  bool any_admission = false;
  bool any_hier = false;
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      any_admission = any_admission || servingOf(run).admission;
      const auto& rs = run.result.resilience;
      any_hier = any_hier ||
                 (rs && (rs->hier_fallbacks > 0 || rs->leader_failovers > 0 ||
                         rs->staging_rebuilds > 0));
    }
  }
  std::vector<std::string> headers{
      "arrival", "qps", "retriever", "queries", "batches", "p50_ms",
      "p95_ms", "p99_ms", "mean_ms", "max_ms", "mean_queue_ms",
      "offered_qps", "achieved_qps", "mean_batch_fill",
      "mean_queue_depth", "max_queue_depth", "slo_violations",
      "fallback_switches"};
  if (any_admission) {
    headers.insert(headers.end(),
                   {"shed_queue", "shed_overload", "deadline_misses",
                    "blocked_arrivals", "goodput_qps"});
  }
  if (any_hier) {
    headers.insert(headers.end(),
                   {"hier_fallbacks", "degraded_ms", "leader_failovers",
                    "staging_rebuilds"});
  }
  CsvWriter csv(path, headers);
  for (const auto& p : points) {
    for (const auto& run : p.runs) {
      const auto& sv = servingOf(run);
      const auto& rs = run.result.resilience;
      std::vector<std::string> row{
          p.arrival, ConsoleTable::num(p.qps, 1),
          runKey(run.retriever), std::to_string(sv.queries),
          std::to_string(sv.batches),
          ConsoleTable::num(sv.p50_ms, 4),
          ConsoleTable::num(sv.p95_ms, 4),
          ConsoleTable::num(sv.p99_ms, 4),
          ConsoleTable::num(sv.mean_ms, 4),
          ConsoleTable::num(sv.max_ms, 4),
          ConsoleTable::num(sv.mean_queue_ms, 4),
          ConsoleTable::num(sv.offered_qps, 1),
          ConsoleTable::num(sv.achieved_qps, 1),
          ConsoleTable::num(sv.mean_batch_fill, 4),
          ConsoleTable::num(sv.mean_queue_depth, 2),
          std::to_string(sv.max_queue_depth),
          std::to_string(sv.slo_violations),
          std::to_string(rs ? rs->fallback_switches : 0)};
      if (any_admission) {
        row.push_back(std::to_string(sv.shed_queue));
        row.push_back(std::to_string(sv.shed_overload));
        row.push_back(std::to_string(sv.deadline_misses));
        row.push_back(std::to_string(sv.blocked_arrivals));
        row.push_back(ConsoleTable::num(sv.goodput_qps, 1));
      }
      if (any_hier) {
        row.push_back(std::to_string(rs ? rs->hier_fallbacks : 0));
        row.push_back(ConsoleTable::num(
            rs ? rs->degraded_time.toMs() : 0.0, 4));
        row.push_back(std::to_string(rs ? rs->leader_failovers : 0));
        row.push_back(std::to_string(rs ? rs->staging_rebuilds : 0));
      }
      csv.addRow(row);
    }
  }
}

}  // namespace pgasemb::trace
