// End-to-end benchmark of the simulated DLRM system: full forward on one
// NVLink node and on 16 nodes, open-loop serving with skewed inputs, and
// training steps. See README.md in this directory for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//   perfbench --list-metrics
//
// Prints a human-readable report, then, as the last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 0
// only when every output check and invariant held; 2 on bad arguments.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Rep;
using perfbench::Values;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  long seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usageError(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n",
               message.c_str());
  std::exit(2);
}

bool parseUnsigned(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 20) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

void listMetrics();

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-metrics") {
      listMetrics();
      std::exit(0);
    }
    std::string value;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (flag.rfind("--", 0) == 0) {
      if (i + 1 >= argc) usageError("flag " + flag + " needs a value");
      value = argv[++i];
    }
    std::uint64_t n = 0;
    if (flag == "--workload") {
      const auto& names = perfbench::workloadNames();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        std::string known;
        for (const auto& w : names) known += (known.empty() ? "" : ", ") + w;
        usageError("unknown workload '" + value + "' (known: " + known + ")");
      }
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!parseUnsigned(value, n)) {
        usageError("malformed --seed '" + value +
                   "': expected a non-negative integer below 2^64");
      }
      opt.seed = n;
      opt.seed_set = true;
    } else if (flag == "--seconds") {
      if (!parseUnsigned(value, n) || n < 1 || n > 3600) {
        usageError("malformed --seconds '" + value +
                   "': expected an integer in [1, 3600]");
      }
      opt.seconds = static_cast<long>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usageError("malformed --trace '" + value + "': expected 0 or 1");
      }
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      usageError("unknown argument '" + flag + "'");
    }
  }
  if (opt.workload.empty()) usageError("--workload is required");
  if (!opt.seed_set) usageError("--seed is required");
  return opt;
}

// --- Metric declarations -----------------------------------------------------

struct MetricDecl {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" / "higher"
  std::string clock;   ///< "simulated" / "host"
};

std::vector<MetricDecl> endToEndMetrics() {
  std::vector<MetricDecl> out;
  for (const auto& r : perfbench::kMainRetrievers) {
    out.push_back({"sim_ms." + r, "ms", "lower", "simulated"});
  }
  for (const auto& r : perfbench::kMainRetrievers) {
    out.push_back({"sim_rate." + r, "1/s", "higher", "simulated"});
  }
  out.push_back({"host_ms_per_batch", "ms", "lower", "host"});
  out.push_back({"setup_s", "s", "lower", "host"});
  out.push_back({"peak_rss_mb", "MB", "lower", "host"});
  return out;
}

std::vector<MetricDecl> perLayerMetrics() {
  std::vector<MetricDecl> out;
  const auto each = [&](const std::vector<std::string>& rs,
                        const std::string& base, const char* unit,
                        const char* better, const char* clock) {
    for (const auto& r : rs) out.push_back({base + "." + r, unit, better, clock});
  };
  const auto& r3 = perfbench::kRetrievers;
  const auto& r2 = perfbench::kMainRetrievers;
  const std::vector<std::string> coll = {"nccl_collective", "nccl_pipelined"};
  each(r3, "core.emb_ms", "ms", "lower", "simulated");
  each(r3, "core.host_ms_per_batch", "ms", "lower", "host");
  out.push_back({"core.emb_speedup", "x", "higher", "simulated"});
  out.push_back({"dlrm.batch_ms.nccl_pipelined", "ms", "lower", "simulated"});
  out.push_back({"dlrm.dense_ms", "ms", "lower", "simulated"});
  each(r3, "dlrm.exposed_dense_ms", "ms", "lower", "simulated");
  out.push_back({"dlrm.host_ms_per_batch", "ms", "lower", "host"});
  each(r2, "dlrm.emb_backward_ms", "ms", "lower", "simulated");
  out.push_back({"dlrm.mlp_backward_ms", "ms", "lower", "simulated"});
  out.push_back({"dlrm.backward_host_ms_per_step", "ms", "lower", "host"});
  each(r3, "emb.lookup_ms", "ms", "lower", "simulated");
  each(r3, "emb.unpack_ms", "ms", "lower", "simulated");
  each(r3, "emb.hier_staging_ms", "ms", "lower", "simulated");
  each(r2, "emb.cache_hit_rate", "ratio", "higher", "simulated");
  each(r2, "emb.cache_lookups_per_batch", "count", "higher", "simulated");
  each(r2, "emb.cache_saved_bytes_per_batch", "B", "higher", "simulated");
  out.push_back({"pgas.quiet_tail_ms", "ms", "lower", "simulated"});
  each(coll, "collective.comm_ms", "ms", "lower", "simulated");
  each(coll, "collective.wire_ms", "ms", "lower", "simulated");
  each(coll, "collective.sync_unpack_ms", "ms", "lower", "simulated");
  each(r3, "fabric.intra_bytes_per_batch", "B", "lower", "simulated");
  each(r3, "fabric.inter_wire_bytes_per_batch", "B", "lower", "simulated");
  each(r3, "fabric.codec_ratio", "x", "higher", "simulated");
  each(r3, "fabric.messages_per_batch", "count", "lower", "simulated");
  each(r3, "sim.events_per_batch", "count", "lower", "simulated");
  out.push_back({"sim.host_ns_per_event", "ns", "lower", "host"});
  each(r3, "gpu.kernels_per_batch", "count", "lower", "simulated");
  each(r3, "gpu.idle_ms", "ms", "lower", "simulated");
  each(r2, "engine.p50_ms", "ms", "lower", "simulated");
  each(r2, "engine.queue_p99_ms", "ms", "lower", "simulated");
  each(r2, "engine.batch_fill", "ratio", "higher", "simulated");
  each(r2, "engine.max_queue_depth", "count", "lower", "simulated");
  for (const auto& r : r2) {
    for (const double qps : perfbench::kServeRates) {
      out.push_back({"engine.achieved_qps." + r + "." +
                         std::to_string(static_cast<long long>(qps / 1000)) +
                         "k",
                     "1/s", "higher", "simulated"});
    }
  }
  out.push_back({"engine.host_ms_per_batch", "ms", "lower", "host"});
  out.push_back({"trace.overhead_ms_per_batch", "ms", "lower", "host"});
  return out;
}

/// Prints every declared metric as JSON (the record BENCHMARK.json's
/// metric lists are checked against).
void listMetrics() {
  const auto print = [](const char* key, const std::vector<MetricDecl>& ds) {
    std::printf("\"%s\": [\n", key);
    for (std::size_t i = 0; i < ds.size(); ++i) {
      std::printf("  {\"name\": \"%s\", \"unit\": \"%s\", "
                  "\"better\": \"%s\", \"clock\": \"%s\"}%s\n",
                  ds[i].name.c_str(), ds[i].unit.c_str(),
                  ds[i].better.c_str(), ds[i].clock.c_str(),
                  i + 1 < ds.size() ? "," : "");
    }
    std::printf("]");
  };
  std::printf("{");
  print("end_to_end", endToEndMetrics());
  std::printf(",\n");
  print("per_layer", perLayerMetrics());
  std::printf("}\n");
}

/// The workload's end-to-end numbers under their per-workload names (see
/// README.md, "End-to-end metrics"): name, record key, unit.
struct PerWorkloadName {
  std::string name;
  std::string key;
  const char* unit;
};

std::vector<PerWorkloadName> perWorkloadNames(const std::string& workload) {
  std::vector<PerWorkloadName> out;
  for (const auto& r : perfbench::kMainRetrievers) {
    if (workload == "serve_skewed") {
      out.push_back({"p50_ms." + r, "engine.p50_ms." + r, "ms"});
      out.push_back({"p99_ms." + r, "sim_ms." + r, "ms"});
      out.push_back({"max_qps." + r, "sim_rate." + r, "1/s"});
    } else if (workload == "train_1node") {
      out.push_back({"step_ms." + r, "sim_ms." + r, "ms"});
    } else {
      out.push_back({"batch_ms." + r, "sim_ms." + r, "ms"});
    }
  }
  if (workload.rfind("infer_", 0) == 0) {
    out.push_back({"batch_ms.nccl_pipelined", "dlrm.batch_ms.nccl_pipelined",
                   "ms"});
  }
  return out;
}

// --- Aggregation ---------------------------------------------------------------

/// Host cost of a workload from its reps: each run is costed at the
/// median host time of its measured batches over all reps, times its
/// batch count, and setup at the median over reps of the rep's summed
/// setup. (A low percentile flipped from run to run on train_1node,
/// whose step times are bimodal; see README.md.)
struct HostCost {
  double ms_per_batch = 0.0;
  double setup_s = 0.0;
};

HostCost hostCost(const std::vector<Rep>& reps) {
  struct Samples {
    std::vector<double> batch_ns;
    std::size_t batches = 0;  ///< per rep
  };
  std::map<std::string, Samples> runs;
  std::vector<double> setup_ns;  ///< per rep
  for (const auto& rep : reps) {
    double rep_setup_ns = 0.0;
    for (const auto& [run, h] : rep.host) {
      Samples& s = runs[run];
      rep_setup_ns += h.setup_ns;
      s.batch_ns.insert(s.batch_ns.end(), h.batch_ns.begin(),
                        h.batch_ns.end());
      s.batches = h.batch_ns.size();
    }
    setup_ns.push_back(rep_setup_ns);
  }
  double ns = 0.0;
  std::size_t batches = 0;
  for (auto& [run, s] : runs) {
    if (s.batch_ns.empty()) continue;
    ns += pgasemb::median(s.batch_ns) * static_cast<double>(s.batches);
    batches += s.batches;
  }
  HostCost cost;
  cost.ms_per_batch = batches > 0 ? ns / static_cast<double>(batches) * 1e-6
                                  : 0.0;
  cost.setup_s = pgasemb::median(setup_ns) * 1e-9;
  return cost;
}

/// Median of each key over reps (sim values are equal across reps; host
/// values are not).
Values medianValues(const std::vector<Rep>& reps) {
  std::map<std::string, std::vector<double>> all;
  for (const auto& rep : reps) {
    for (const auto& [k, v] : rep.sim) all[k].push_back(v);
    for (const auto& [k, v] : rep.traced) all[k].push_back(v);
  }
  Values out;
  for (const auto& [k, v] : all) out[k] = pgasemb::median(v);
  return out;
}

/// Mean over the retrievers that reported `base.<r>`.
double meanOverRetrievers(const Values& v, const std::string& base) {
  double sum = 0.0;
  int n = 0;
  for (const auto& r : perfbench::kRetrievers) {
    const auto it = v.find(base + "." + r);
    if (it == v.end()) continue;
    sum += it->second;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

/// Resident-set high-water of this process image, from VmHWM (getrusage's
/// ru_maxrss survives exec and would report the launcher's peak).
double peakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Pins the (single) thread to one CPU; best effort.
void pinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// How long the reps stay on one CPU before moving to the next.
constexpr std::int64_t kCpuSliceNs = 250'000'000;

/// Runs reps until `budget_ns` of wall time has passed (at least one).
/// The reps move through the CPUs the process may use, kCpuSliceNs (or
/// one rep, if longer) on each: on a shared host one core can run 20-70%
/// slower than the others for minutes (a busy neighbour), and the median
/// hostCost() takes then falls among the undisturbed cores instead of on
/// whichever core the run landed on. `peak_rss_mb` gets the process high-water after the first
/// rep: later reps repeat the same work, so their only effect on it is
/// heap fragmentation that varies with the rep count.
std::vector<Rep> repsFor(const Options& opt, perfbench::Tracer& tracer,
                         double budget_ns, double* peak_rss_mb = nullptr) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  std::vector<Rep> reps;
  const std::int64_t start = perfbench::wallNs();
  std::int64_t slice_start = start - kCpuSliceNs;
  std::size_t slices = 0;
  do {
    const std::int64_t now = perfbench::wallNs();
    if (!cpus.empty() && now - slice_start >= kCpuSliceNs) {
      pinTo(cpus[slices++ % cpus.size()]);
      slice_start = now;
    }
    reps.push_back(perfbench::runRep(opt.workload, opt.seed, tracer));
    if (peak_rss_mb != nullptr && reps.size() == 1) *peak_rss_mb = peakRssMb();
  } while (static_cast<double>(perfbench::wallNs() - start) < budget_ns);
  if (!cpus.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
  return reps;
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  // Keep freed memory mapped, as a long-running server's allocator does.
  // Otherwise a training step spends most of its host time in the kernel
  // re-faulting and zeroing the pages of buffers the previous step freed,
  // a cost that swings with other tenants' memory traffic.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Tracer tracer;
  const double budget_ns = static_cast<double>(opt.seconds) * 1e9;

  // Untraced reps give the end-to-end numbers; with --trace 1 half the
  // time goes to them (the tracing-overhead base) and half to traced reps.
  double peak_rss_mb = 0.0;
  const std::vector<Rep> plain = repsFor(
      opt, tracer, opt.trace ? budget_ns / 2 : budget_ns, &peak_rss_mb);
  std::vector<Rep> traced;
  if (opt.trace) {
    tracer.setEnabled(true);
    traced = repsFor(opt, tracer, budget_ns / 2);
    tracer.setEnabled(false);
  }
  const Rep replay = perfbench::replayFunctional(opt.workload, opt.seed);

  std::int64_t attempted = replay.attempted;
  std::int64_t failed = replay.failed;
  std::vector<std::string> errors = replay.errors;
  const auto absorb = [&](const std::vector<Rep>& reps, const char* what) {
    for (const auto& rep : reps) {
      attempted += rep.attempted;
      failed += rep.failed;
      errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
      // Simulated metrics are a function of the seed alone: every rep,
      // traced or not, must reproduce the first exactly.
      if (rep.sim != plain.front().sim) {
        ++failed;
        errors.push_back(std::string(what) +
                         " rep changed a simulated metric");
      }
    }
  };
  absorb(plain, "untraced");
  absorb(traced, "traced");
  const bool correct = failed == 0;

  const HostCost host = hostCost(plain);

  Values out;
  std::vector<MetricDecl> decls;
  if (!opt.trace) {
    decls = endToEndMetrics();
    out = plain.front().sim;
    out["host_ms_per_batch"] = host.ms_per_batch;
    out["setup_s"] = host.setup_s;
    out["peak_rss_mb"] = peak_rss_mb;
  } else {
    decls = perLayerMetrics();
    out = medianValues(traced);
    for (const char* base :
         {"dlrm.dense_ms", "dlrm.host_ms_per_batch", "dlrm.mlp_backward_ms",
          "dlrm.backward_host_ms_per_step", "engine.host_ms_per_batch",
          "sim.host_ns_per_event"}) {
      out[base] = meanOverRetrievers(out, base);
    }
    out["pgas.quiet_tail_ms"] = out["pgas.quiet_tail_ms.pgas_fused"];
    out["trace.overhead_ms_per_batch"] =
        hostCost(traced).ms_per_batch - host.ms_per_batch;
  }

  // Host costs at the cache probe's reference speed (see
  // perfbench::sampleHostSpeed()): every workload's batch cost moved with
  // the probe's, over 5 runs of 20 s each.
  const double speed = perfbench::hostSpeedFactor();
  if (!opt.trace) {
    out["host_ms_per_batch"] *= speed;
    out["setup_s"] *= speed;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%ld trace=%d "
              "reps=%zu+%zu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, plain.size(), traced.size());
  for (const auto& d : decls) {
    const auto it = out.find(d.name);
    std::printf("  %-44s %16.6f %-6s %-9s %s-is-better\n", d.name.c_str(),
                it == out.end() ? 0.0 : it->second, d.unit.c_str(),
                d.clock.c_str(), d.better.c_str());
  }
  for (const auto& n : perWorkloadNames(opt.workload)) {
    const auto it = plain.front().sim.find(n.key);
    std::printf("  %-44s %16.6f %-6s simulated (%s)\n", n.name.c_str(),
                it == plain.front().sim.end() ? 0.0 : it->second, n.unit,
                n.key.c_str());
  }
  std::printf("  unscaled: host_ms_per_batch %.6f ms, setup_s %.6f s; "
              "cache probe %.3f ms "
              "(reference %.1f ms), scale %.4f\n",
              host.ms_per_batch, host.setup_s, perfbench::speedSampleMs(),
              perfbench::kReferenceSpeedMs, speed);
  if (opt.trace && opt.workload == "infer_1node") {
    std::printf("  core.emb_speedup %.3fx beside the paper's 1.87x and "
                "EXPERIMENTS.md T1's 1.74x (4 GPUs)\n",
                out["core.emb_speedup"]);
  }
  std::printf("  attempted %lld, failed %lld\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (const auto& e : errors) std::printf("  FAILED: %s\n", e.c_str());

  if (opt.trace && !opt.trace_out.empty()) {
    const std::string header =
        "\"workload\": \"" + opt.workload +
        "\", \"seed\": " + std::to_string(opt.seed);
    if (!tracer.writeJson(opt.trace_out, header)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < decls.size(); ++i) {
    const auto it = out.find(decls[i].name);
    json += (i > 0 ? ", \"" : "\"") + decls[i].name + "\": {\"value\": " +
            jsonNumber(it == out.end() ? 0.0 : it->second) +
            ", \"unit\": \"" + decls[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
