// Shared scaffolding for the paper-reproduction benchmark binaries.
//
// All benches dispatch retrievers by registry name through
// engine::ScenarioRunner; the shared --retrievers=a,b,c flag picks which
// strategies a sweep compares (first name = reference/baseline).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "trace/report.hpp"
#include "util/cli.hpp"
#include "util/expect.hpp"

namespace pgasemb::bench {

/// The paper's comparison pair: NCCL collective baseline vs PGAS fused.
inline constexpr const char* kDefaultRetrievers = "nccl_collective,pgas_fused";

/// Runs a bench's body. A library InvalidArgumentError escaping it is an
/// operator error — a flag combination the library rejects, such as
/// pipelining on one GPU — so it prints the message and exits 2 like a
/// malformed flag; every other error still aborts.
inline int guardedMain(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const InvalidArgumentError& e) {
    fprintf(stderr, "%s\n(run with --help for usage)\n", e.what());
    return 2;
  }
}

/// Registers the shared --retrievers flag (comma-separated registry
/// names; first is the reference the others are compared against).
inline std::string registeredRetrieverNames() {
  std::string known;
  for (const auto& name : core::RetrieverRegistry::instance().names()) {
    known += (known.empty() ? "" : ",") + name;
  }
  return known;
}

inline void addRetrieversFlag(CliParser& cli,
                              const char* defaults = kDefaultRetrievers) {
  cli.addString("retrievers", defaults,
                "comma-separated retriever names to compare (first = "
                "reference); registered: " + registeredRetrieverNames());
}

/// Parses the --retrievers flag into a validated, non-empty name list.
inline std::vector<std::string> retrieverList(const CliParser& cli) {
  const std::string spec = cli.getString("retrievers");
  std::vector<std::string> names;
  std::string current;
  for (const char c : spec) {
    if (c == ',') {
      if (!current.empty()) names.push_back(current);
      current.clear();
    } else if (c != ' ') {
      current += c;
    }
  }
  if (!current.empty()) names.push_back(current);
  // Fail fast and clean (exit 2, no uncaught-exception abort): a typoed
  // retriever name is an operator error, not a library bug.
  if (names.empty()) {
    fprintf(stderr, "--retrievers needs at least one name (registered: %s)\n",
            registeredRetrieverNames().c_str());
    std::exit(2);
  }
  for (const auto& name : names) {
    if (!core::RetrieverRegistry::instance().contains(name)) {
      fprintf(stderr, "--retrievers: unknown retriever '%s' (registered: %s)\n",
              name.c_str(), registeredRetrieverNames().c_str());
      std::exit(2);
    }
  }
  return names;
}

/// Registers the shared --no-coalesce flag (TimingOnly fast-path escape
/// hatch). Simulated results are identical either way — the flag exists
/// for parity checks and for debugging with per-message event order.
inline void addCoalesceFlag(CliParser& cli) {
  cli.addBool("no-coalesce", false,
              "disable the TimingOnly per-flow event-coalescing fast path "
              "(simulated results are identical; runs are just slower)");
}

/// Applies the --no-coalesce flag to a config.
inline void applyCoalesceFlag(const CliParser& cli,
                              engine::ExperimentConfig& cfg) {
  if (cli.getBool("no-coalesce")) cfg.coalesce_flows = false;
}

/// Registers the shared --simsan flag (opt-in dynamic checking) and its
/// strict-effects escalation.
inline void addSimsanFlag(CliParser& cli) {
  cli.addBool("simsan", false,
              "attach the simsan happens-before race / bounds / lifetime "
              "checker and print its per-run report (timings unchanged)");
  cli.addBool("simsan-strict", false,
              "strict-effects mode (implies --simsan): record actual "
              "simulated-memory touches per kernel/transfer and fail when "
              "an access escapes the declared MemEffect footprint");
}

/// Applies --simsan / --simsan-strict to a config.
inline void applySimsanFlags(const CliParser& cli,
                             engine::ExperimentConfig& cfg) {
  cfg.simsan = cli.getBool("simsan");
  cfg.simsan_strict = cli.getBool("simsan-strict");
}

/// Registers the shared replica-cache flags. Defaults (0, 0.0) keep
/// every code path — and all stdout/CSV output — identical to a
/// cache-less build.
inline void addCacheFlags(CliParser& cli) {
  cli.addInt("cache-rows", 0,
             "hot-row replica cache capacity per table per GPU (rows); "
             "0 disables the cache");
  cli.addDouble("zipf-alpha", 0.0,
                "Zipf skew of the raw embedding indices (0 = uniform)");
}

/// Applies the --cache-rows / --zipf-alpha flags to a config.
inline void applyCacheFlags(const CliParser& cli,
                            engine::ExperimentConfig& cfg) {
  cfg.cache_rows = cli.getInt("cache-rows");
  cfg.layer.zipf_alpha = cli.getDouble("zipf-alpha");
}

/// Registers the shared fault-injection flags. Defaults ("" spec) build
/// no injector, keeping every code path — and all stdout/CSV output —
/// identical to a fault-free build.
inline void addFaultFlags(CliParser& cli) {
  cli.addString("faults", "",
                "comma-separated fault specs, e.g. "
                "link-degrade:0-1:0.5,link-flap:*:1.0-2.0,straggler:2:3; "
                "empty = no fault injection");
  cli.addInt("fault-seed", 0,
             "seed for fault windows not pinned in the spec (same seed = "
             "same schedule)");
  cli.addDouble("fault-horizon-ms", 100.0,
                "horizon (ms) the seeded windows of unwindowed fault specs "
                "are drawn over — size it to the run length so the faults "
                "land mid-run");
  cli.addDouble("slo-ms", 0.0,
                "per-batch latency SLO in ms; after --slo-patience "
                "consecutive over-SLO batches the run falls back to "
                "nccl_collective (0 = no fallback policy)");
  cli.addInt("slo-patience", 3,
             "consecutive over-SLO batches tolerated before falling back");
}

/// Applies the fault flags to a config. With the default empty --faults
/// and zero --slo-ms this is a no-op.
inline void applyFaultFlags(const CliParser& cli,
                            engine::ExperimentConfig& cfg) {
  const std::string spec = cli.getString("faults");
  if (!spec.empty()) {
    // Fail fast and clean (exit 2, no uncaught-exception abort): a
    // malformed fault spec is an operator error, not a library bug.
    try {
      cfg.faults = fault::FaultPlan::parse(
          spec, static_cast<std::uint64_t>(cli.getInt("fault-seed")),
          SimTime::ms(cli.getDouble("fault-horizon-ms")));
    } catch (const Error& e) {
      fprintf(stderr, "%s\n(run with --help for usage)\n", e.what());
      std::exit(2);
    }
  }
  const double slo_ms = cli.getDouble("slo-ms");
  if (slo_ms > 0.0) {
    cfg.fallback.slo_ms = slo_ms;
    cfg.fallback.patience = static_cast<int>(cli.getInt("slo-patience"));
  }
}

/// Registers the shared serving admission-control flags (DESIGN.md
/// §13). Defaults (unbounded queue, no deadline, controller off) keep
/// the serving path — and all stdout/CSV output — identical to a
/// pre-admission build.
inline void addAdmissionFlags(CliParser& cli) {
  cli.addInt("admit-queue", 0,
             "bounded admission queue (pending queries); when full, "
             "--shed-policy decides which query pays (0 = unbounded)");
  cli.addString("shed-policy", "block",
                "full-queue policy: block (admit anyway, count it) | "
                "shed-oldest (evict the queue head) | shed-newest (drop "
                "the arrival)");
  cli.addDouble("query-deadline-ms", 0.0,
                "per-query queue-wait deadline (ms of simulated time); "
                "queries still queued past it are shed as deadline "
                "misses (0 = off)");
  cli.addInt("admit-window", 0,
             "sliding-window admission controller: completed queries per "
             "p95 window; sheds incoming load while the window p95 "
             "exceeds --slo-ms (0 = off)");
}

/// Applies the admission flags to a config. With the defaults this is a
/// no-op.
inline void applyAdmissionFlags(const CliParser& cli,
                                engine::ExperimentConfig& cfg) {
  cfg.serving.admit_queue = cli.getInt("admit-queue");
  try {
    cfg.serving.shed_policy =
        engine::parseShedPolicy(cli.getString("shed-policy"));
  } catch (const Error& e) {
    fprintf(stderr, "%s\n(run with --help for usage)\n", e.what());
    std::exit(2);
  }
  cfg.serving.query_deadline_ms = cli.getDouble("query-deadline-ms");
  cfg.serving.admit_window = static_cast<int>(cli.getInt("admit-window"));
}

/// Registers the shared multi-node flags (DESIGN.md §12). Defaults
/// (flat all-to-all, no compression, per-flow NIC queues) keep every
/// code path — and all stdout/CSV output — identical to earlier builds.
inline void addMultinodeFlags(CliParser& cli) {
  cli.addBool("hierarchical-a2a", false,
              "route inter-node traffic hierarchically: NVLink gather to "
              "the node leader, one aggregated flow per node pair, NVLink "
              "scatter (no effect on a single node)");
  cli.addDouble("compress-bound", 0.0,
                "absolute error bound for lossy compression of inter-node "
                "flows (0 = off); Functional runs really transcode, so "
                "the reported error is measured, not estimated");
  cli.addBool("compress-adaptive", false,
              "pick the per-window quantization width from observed NIC "
              "egress utilization instead of always using the tightest "
              "width the bound allows (requires --compress-bound > 0)");
  cli.addBool("nic-shared-queue", false,
              "serialize each node's inter-node flows through one shared "
              "NIC injection queue instead of per-flow queues");
}

/// Applies the multi-node flags to a config.
inline void applyMultinodeFlags(const CliParser& cli,
                                engine::ExperimentConfig& cfg) {
  cfg.hierarchical_a2a = cli.getBool("hierarchical-a2a");
  cfg.compress_bound = cli.getDouble("compress-bound");
  cfg.compress_adaptive = cli.getBool("compress-adaptive");
  cfg.nic_shared_queue = cli.getBool("nic-shared-queue");
}

/// Cross-field config validation at flag-parse time. Fail fast and
/// clean (exit 2, no uncaught-exception abort): an inconsistent flag
/// combination is an operator error, not a library bug.
inline void validateOrExit(const engine::ExperimentConfig& cfg) {
  try {
    cfg.validate();
  } catch (const Error& e) {
    fprintf(stderr, "%s\n(run with --help for usage)\n", e.what());
    std::exit(2);
  }
}

/// Run every named retriever at 1..max_gpus for one scaling mode.
/// `tweak` (optional) edits each point's config before the runner is
/// built — fault plans, SLO policies, link overrides.
inline std::vector<trace::ScalingPoint> sweepScaling(
    bool weak, int max_gpus, int num_batches,
    const std::vector<std::string>& retrievers, bool simsan = false,
    std::int64_t cache_rows = 0, double zipf_alpha = 0.0,
    const std::function<void(engine::ExperimentConfig&)>& tweak = nullptr,
    bool simsan_strict = false) {
  std::vector<trace::ScalingPoint> points;
  for (int gpus = 1; gpus <= max_gpus; ++gpus) {
    engine::ExperimentConfig cfg = weak ? engine::weakScalingConfig(gpus)
                                        : engine::strongScalingConfig(gpus);
    cfg.num_batches = num_batches;
    cfg.simsan = simsan;
    cfg.simsan_strict = simsan_strict;
    cfg.cache_rows = cache_rows;
    cfg.layer.zipf_alpha = zipf_alpha;
    if (tweak) tweak(cfg);
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

inline void printPerGpuRuntimes(const std::vector<trace::ScalingPoint>& pts) {
  if (pts.empty() || pts[0].runs.empty()) {
    printf("\n(no scaling points to report — the sweep produced no runs)\n");
    return;
  }
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

}  // namespace pgasemb::bench
