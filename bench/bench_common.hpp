// Shared scaffolding for the paper-reproduction benchmark binaries.
//
// All benches dispatch retrievers by registry name through
// engine::ScenarioRunner; the shared --retrievers=a,b,c flag picks which
// strategies a sweep compares (first name = reference/baseline). The
// other shared flags come from one table (kConfigFlags), each row
// writing one ExperimentConfig field.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/registry.hpp"
#include "trace/report.hpp"
#include "util/cli.hpp"
#include "util/expect.hpp"

namespace pgasemb::bench {

/// The paper's comparison pair: NCCL collective baseline vs PGAS fused.
inline constexpr const char* kDefaultRetrievers = "nccl_collective,pgas_fused";

/// Runs a bench's body. A library InvalidArgumentError escaping it is an
/// operator error — a malformed list item, an unknown name or spec, a
/// flag combination ExperimentConfig::validate() rejects, pipelining on
/// one GPU — so it prints the message and exits 2 like a malformed flag;
/// every other error still aborts. This is the benches' only exit-2 path
/// after CliParser::parseOrExit.
inline int guardedMain(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const InvalidArgumentError& e) {
    fprintf(stderr, "%s\n(run with --help for usage)\n", e.what());
    return 2;
  }
}

/// Splits a comma-separated flag value (spaces dropped, empty items
/// skipped) and maps each item through `parse`, which throws
/// InvalidArgumentError on a bad item. An empty list is an operator
/// error too.
template <typename Parse>
auto splitList(const CliParser& cli, const std::string& flag,
               const std::string& noun, Parse parse) {
  std::vector<std::decay_t<decltype(parse(std::string()))>> out;
  std::string item;
  for (const char c : cli.getString(flag) + ",") {
    if (c == ',') {
      if (!item.empty()) out.push_back(parse(item));
      item.clear();
    } else if (c != ' ') {
      item += c;
    }
  }
  if (out.empty()) {
    throw InvalidArgumentError("--" + flag + " needs at least one " + noun);
  }
  return out;
}

/// Shared flag groups a bench opts into.
enum FlagGroup : unsigned {
  kRetrievers = 1u << 0,
  kSimsan = 1u << 1,
  kCache = 1u << 2,
  kFaults = 1u << 3,
  kAdmission = 1u << 4,
  kMultinode = 1u << 5,
  kCoalesce = 1u << 6,
};

/// One shared flag: its name, default and help text, plus the write of
/// the ExperimentConfig field it sets. `apply` is null for flags read
/// elsewhere: --retrievers by ConfigFlags::retrievers(), the fault seed
/// and horizon by the --faults row.
struct ConfigFlag {
  FlagGroup group;
  const char* name;
  std::variant<bool, std::int64_t, double, const char*> default_value;
  const char* help;
  void (*apply)(const CliParser& cli, engine::ExperimentConfig& cfg);
};

/// Every shared flag, in registration order. Defaults keep every code
/// path — and all stdout/CSV output — identical to a build without the
/// feature: no checker, no cache, no fault injector, no fallback policy,
/// no admission control, flat all-to-all, coalesced flows.
inline const ConfigFlag kConfigFlags[] = {
    {kRetrievers, "retrievers", kDefaultRetrievers,
     "comma-separated retriever names to compare (first = reference); "
     "registered: ",
     nullptr},
    {kSimsan, "simsan", false,
     "attach the simsan happens-before race / bounds / lifetime checker "
     "and print its per-run report (timings unchanged)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.simsan = cli.getBool("simsan");
     }},
    {kSimsan, "simsan-strict", false,
     "strict-effects mode (implies --simsan): record actual "
     "simulated-memory touches per kernel/transfer and fail when an "
     "access escapes the declared MemEffect footprint",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.simsan_strict = cli.getBool("simsan-strict");
     }},
    {kCache, "cache-rows", std::int64_t{0},
     "hot-row replica cache capacity per table per GPU (rows); 0 "
     "disables the cache",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.cache_rows = cli.getInt("cache-rows");
     }},
    {kCache, "zipf-alpha", 0.0,
     "Zipf skew of the raw embedding indices (0 = uniform)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.layer.zipf_alpha = cli.getDouble("zipf-alpha");
     }},
    {kFaults, "faults", "",
     "comma-separated fault specs, e.g. "
     "link-degrade:0-1:0.5,link-flap:*:1.0-2.0,straggler:2:3; empty = no "
     "fault injection",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       const std::string spec = cli.getString("faults");
       if (spec.empty()) return;
       cfg.faults = fault::FaultPlan::parse(
           spec, static_cast<std::uint64_t>(cli.getInt("fault-seed")),
           SimTime::ms(cli.getDouble("fault-horizon-ms")));
     }},
    {kFaults, "fault-seed", std::int64_t{0},
     "seed for fault windows not pinned in the spec (same seed = same "
     "schedule)",
     nullptr},  // read by --faults
    {kFaults, "fault-horizon-ms", 100.0,
     "horizon (ms) the seeded windows of unwindowed fault specs are drawn "
     "over — size it to the run length so the faults land mid-run",
     nullptr},  // read by --faults
    {kFaults, "slo-ms", 0.0,
     "per-batch latency SLO in ms; after --slo-patience consecutive "
     "over-SLO batches the run falls back to nccl_collective (0 = no "
     "fallback policy)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.fallback.slo_ms = cli.getDouble("slo-ms");
     }},
    {kFaults, "slo-patience", std::int64_t{3},
     "consecutive over-SLO batches tolerated before falling back",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.fallback.patience = static_cast<int>(cli.getInt("slo-patience"));
     }},
    {kAdmission, "admit-queue", std::int64_t{0},
     "bounded admission queue (pending queries); when full, --shed-policy "
     "decides which query pays (0 = unbounded)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.serving.admit_queue = cli.getInt("admit-queue");
     }},
    {kAdmission, "shed-policy", "block",
     "full-queue policy: block (admit anyway, count it) | shed-oldest "
     "(evict the queue head) | shed-newest (drop the arrival)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.serving.shed_policy =
           engine::parseShedPolicy(cli.getString("shed-policy"));
     }},
    {kAdmission, "query-deadline-ms", 0.0,
     "per-query queue-wait deadline (ms of simulated time); queries still "
     "queued past it are shed as deadline misses (0 = off)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.serving.query_deadline_ms = cli.getDouble("query-deadline-ms");
     }},
    {kAdmission, "admit-window", std::int64_t{0},
     "sliding-window admission controller: completed queries per p95 "
     "window; sheds incoming load while the window p95 exceeds --slo-ms "
     "(0 = off)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.serving.admit_window = static_cast<int>(cli.getInt("admit-window"));
     }},
    {kMultinode, "hierarchical-a2a", false,
     "route inter-node traffic hierarchically: NVLink gather to the node "
     "leader, leader-to-leader over the NIC (one aggregated flow per node "
     "pair for collectives; PGAS leaders batch slices up to the NIC's "
     "message-rate floor), NVLink scatter (no effect on a single node)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.hierarchical_a2a = cli.getBool("hierarchical-a2a");
     }},
    {kMultinode, "compress-bound", 0.0,
     "absolute error bound for lossy compression of inter-node flows (0 = "
     "off); Functional runs really transcode, so the reported error is "
     "measured, not estimated",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.compress_bound = cli.getDouble("compress-bound");
     }},
    {kMultinode, "compress-adaptive", false,
     "pick the per-window quantization width from observed NIC egress "
     "utilization instead of always using the tightest width the bound "
     "allows (requires --compress-bound > 0)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.compress_adaptive = cli.getBool("compress-adaptive");
     }},
    {kMultinode, "nic-shared-queue", false,
     "serialize each node's inter-node flows through one shared NIC "
     "injection queue instead of per-flow queues",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.nic_shared_queue = cli.getBool("nic-shared-queue");
     }},
    {kCoalesce, "no-coalesce", false,
     "disable the TimingOnly per-flow event-coalescing fast path "
     "(simulated results are identical; runs are just slower)",
     [](const CliParser& cli, engine::ExperimentConfig& cfg) {
       cfg.coalesce_flows = !cli.getBool("no-coalesce");
     }},
};

/// The shared flags one bench registered: the `groups` rows of
/// kConfigFlags, in table order, after the bench's own flags.
class ConfigFlags {
 public:
  ConfigFlags(CliParser& cli, unsigned groups,
              const char* retrievers = kDefaultRetrievers)
      : cli_(cli), groups_(groups) {
    for (const ConfigFlag& flag : kConfigFlags) {
      if ((groups & flag.group) == 0) continue;
      if (flag.group == kRetrievers) {
        cli.addString(flag.name, retrievers, flag.help + registeredNames());
        continue;
      }
      std::visit(
          [&](auto value) {
            using T = decltype(value);
            if constexpr (std::is_same_v<T, bool>) {
              cli.addBool(flag.name, value, flag.help);
            } else if constexpr (std::is_same_v<T, std::int64_t>) {
              cli.addInt(flag.name, value, flag.help);
            } else if constexpr (std::is_same_v<T, double>) {
              cli.addDouble(flag.name, value, flag.help);
            } else {
              cli.addString(flag.name, value, flag.help);
            }
          },
          flag.default_value);
    }
  }

  /// The --retrievers list, every name checked against the registry.
  std::vector<std::string> retrievers() const {
    const std::string known = registeredNames();
    return splitList(
        cli_, "retrievers", "name (registered: " + known + ")",
        [&](const std::string& name) {
          if (!core::RetrieverRegistry::instance().contains(name)) {
            throw InvalidArgumentError("--retrievers: unknown retriever '" +
                                       name + "' (registered: " + known +
                                       ")");
          }
          return name;
        });
  }

  /// Writes every registered flag into `cfg`, then validates it.
  void apply(engine::ExperimentConfig& cfg) const {
    for (const ConfigFlag& flag : kConfigFlags) {
      if ((groups_ & flag.group) != 0 && flag.apply != nullptr) {
        flag.apply(cli_, cfg);
      }
    }
    cfg.validate();
  }

 private:
  /// The registry's retriever names, comma-separated.
  static std::string registeredNames() {
    std::string known;
    for (const auto& name : core::RetrieverRegistry::instance().names()) {
      known += (known.empty() ? "" : ",") + name;
    }
    return known;
  }

  const CliParser& cli_;
  unsigned groups_;
};

/// Host wall-clock seconds since `t0` (the benches' perf records).
inline double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// IB-like inter-node links (pinned by tests/multinode_test.cpp):
/// 25 GB/s, 5 us, 64 B headers, 10 M msg/s. No-op on one node.
inline void applyInterNodeLink(engine::ExperimentConfig& cfg, int nodes) {
  if (nodes <= 1) return;
  cfg.num_nodes = nodes;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5.0);
  cfg.inter_node_link.header_bytes = 64;
  cfg.inter_node_link.max_messages_per_sec = 10e6;
}

/// A BENCH_*.json perf record for scripts/check_perf.py: one JSON
/// object, one field per line in insertion order — scalar header fields
/// first, then metric groups of {"<name>": <value>, ...}.
class BenchRecord {
 public:
  explicit BenchRecord(const std::string& bench) {
    field("bench", "\"" + bench + "\"");
  }

  /// `json` is the field's already-formatted value.
  void field(const std::string& key, const std::string& json) {
    fields_.push_back("\"" + key + "\": " + json);
  }

  /// One metric group; each value is printf-formatted by `format`.
  void metric(const std::string& key, const std::vector<std::string>& names,
              const std::vector<double>& values, const char* format) {
    std::string json = "{";
    for (std::size_t i = 0; i < names.size(); ++i) {
      json += (i == 0 ? "\"" : ", \"") + names[i] + "\": " +
              number(format, values[i]);
    }
    field(key, json + "}");
  }

  /// printf-formats one number ("%.4f", "%g", ...).
  static std::string number(const char* format, double value) {
    char buf[512];
    snprintf(buf, sizeof(buf), format, value);
    return buf;
  }

  /// Writes the record to `path` and reports it on stdout.
  void write(const std::string& path) const {
    FILE* out = fopen(path.c_str(), "w");
    PGASEMB_CHECK(out != nullptr, "cannot open BENCH record " + path);
    fprintf(out, "{\n");
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      fprintf(out, "  %s%s\n", fields_[i].c_str(),
              i + 1 < fields_.size() ? "," : "");
    }
    fprintf(out, "}\n");
    fclose(out);
    printf("wrote %s\n", path.c_str());
  }

 private:
  std::vector<std::string> fields_;
};

/// Run every --retrievers name at 1..max_gpus for one scaling mode, each
/// point's config carrying the bench's shared flags.
inline std::vector<trace::ScalingPoint> sweepScaling(
    bool weak, int max_gpus, int num_batches, const ConfigFlags& flags) {
  const auto retrievers = flags.retrievers();
  std::vector<trace::ScalingPoint> points;
  for (int gpus = 1; gpus <= max_gpus; ++gpus) {
    engine::ExperimentConfig cfg = weak ? engine::weakScalingConfig(gpus)
                                        : engine::strongScalingConfig(gpus);
    cfg.num_batches = num_batches;
    flags.apply(cfg);
    engine::ScenarioRunner runner(cfg);
    trace::ScalingPoint point;
    point.gpus = gpus;
    point.runs = runner.runAll(retrievers);
    points.push_back(std::move(point));
  }
  return points;
}

/// Prints one simsan verdict line per run (only when reports exist, so
/// output without --simsan is unchanged).
inline void printSimsanReports(const std::vector<trace::ScalingPoint>& pts) {
  bool any = false;
  for (const auto& p : pts) {
    for (const auto& run : p.runs) {
      if (!run.result.sanitizer) continue;
      if (!any) printf("\nsimsan:\n");
      any = true;
      printf("  %d GPU(s) %-16s %s\n", p.gpus, run.retriever.c_str(),
             run.result.sanitizer->report().c_str());
    }
  }
}

inline void printHeader(const std::string& title) {
  printf("==========================================================\n");
  printf("%s\n", title.c_str());
  printf("==========================================================\n");
}

/// The paper's scaling report (Tables 1-2, Figures 5 and 8): the speedup
/// table and the scaling-factor chart, each followed by the paper's note,
/// with the per-GPU-count runtimes between them; then the cache,
/// resilience and simsan sections, each present only when its feature
/// was on.
inline void printScalingReport(const std::vector<trace::ScalingPoint>& pts,
                               bool weak, const char* paper_table,
                               const char* paper_figure) {
  printf("\n%s\n", trace::renderSpeedupTable(pts).c_str());
  printf("%s\n", paper_table);
  if (pts.empty() || pts[0].runs.empty()) {
    printf("\n(no scaling points to report — the sweep produced no runs)\n");
  } else {
    printf("\nPer-batch EMB-layer time (ms), accumulated over %d batches:\n",
           pts[0].reference().result.stats.batches);
    for (const auto& p : pts) {
      printf("  %d GPU(s):", p.gpus);
      for (const auto& run : p.runs) {
        printf(" %s %8.3f ms  ", trace::runKey(run.retriever).c_str(),
               run.result.avgBatchMs());
      }
      printf(" speedup %.2fx\n", p.speedup());
    }
  }
  printf("\n%s\n", trace::renderScalingChart(pts, weak).c_str());
  printf("%s\n", paper_figure);
  const std::string cache_table = trace::renderCacheTable(pts);
  if (!cache_table.empty()) printf("\n%s\n", cache_table.c_str());
  const std::string resilience = trace::renderResilienceTable(pts);
  if (!resilience.empty()) printf("\n%s\n", resilience.c_str());
  printSimsanReports(pts);
}

/// The breakdown figures' table (Figures 6 and 9): the reference's
/// compute / communication / sync+unpack split next to the treatment's
/// total, per GPU count.
inline void printBreakdownTable(const std::vector<trace::ScalingPoint>& pts) {
  const std::string total_col =
      trace::runKey(pts[0].treatment().retriever) + " total";
  printf("%-6s %-12s %-14s %-14s %-12s\n", "GPUs", "compute", "comm",
         "sync+unpack", total_col.c_str());
  for (const auto& p : pts) {
    const auto& ref = p.reference().result;
    printf("%-6d %-12.3f %-14.3f %-14.3f %-12.3f\n", p.gpus,
           ref.avgComputeMs(), ref.avgCommunicationMs(),
           ref.avgSyncUnpackMs(), p.treatment().result.avgBatchMs());
  }
}

/// Writes a scaling sweep to the bench's --csv path (empty = none).
inline void writeScalingCsv(const CliParser& cli,
                            const std::vector<trace::ScalingPoint>& pts) {
  const std::string csv = cli.getString("csv");
  if (csv.empty()) return;
  trace::writeScalingCsv(csv, pts);
  printf("\nwrote %s\n", csv.c_str());
}

}  // namespace pgasemb::bench
