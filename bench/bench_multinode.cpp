// Extension bench (paper §V): weak scaling BEYOND the single node.
//
// The paper's system is single-node NVLink; its future work asks how the
// PGAS scheme behaves when inter-node links (higher latency, lower
// bandwidth, message-rate limited) enter the picture, and proposes the
// async aggregator as the mitigation. This bench weak-scales to 16 GPUs
// across 1-4 nodes and compares baseline, raw PGAS, and PGAS+aggregator.
//
// --sweep switches to the DESIGN.md §12 grid: {1,2,4,8,16} nodes x
// 4 GPUs/node (64 GPUs), {flat, hierarchical} routing x {off, fixed,
// adaptive} inter-node compression, for all three retrievers, plus a
// small Functional-mode run per compression mode so the reported
// quantization error is measured, not estimated. Results land in
// multinode_sweep.csv and (opt-in) the BENCH_multinode.json perf record.
#include <climits>

#include "bench_common.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace pgasemb;

namespace {

/// One sweep cell: routing scheme x compression mode.
struct SweepMode {
  const char* routing;      ///< "flat" / "hier"
  const char* compression;  ///< "off" / "fixed" / "adaptive"
  bool hierarchical;
  bool compress;
  bool adaptive;
};

constexpr SweepMode kModes[] = {
    {"flat", "off", false, false, false},
    {"flat", "fixed", false, true, false},
    {"flat", "adaptive", false, true, true},
    {"hier", "off", true, false, false},
    {"hier", "fixed", true, true, false},
    {"hier", "adaptive", true, true, true},
};

/// A run's batch count as the divisor of its per-batch averages (1 when
/// no batch ran).
double batchesOf(const engine::ExperimentResult& result) {
  return result.stats.batches > 0 ? static_cast<double>(result.stats.batches)
                                  : 1.0;
}

int runSweep(const CliParser& cli, const bench::ConfigFlags& flags) {
  const int per_node = static_cast<int>(cli.getInt("gpus-per-node"));
  const int batches = static_cast<int>(cli.getInt("batches"));
  const double bound = cli.getDouble("bound");
  const auto node_list = bench::splitList(
      cli, "sweep-nodes", "node count", [](const std::string& item) {
        const std::int64_t nodes = parseIntStrict(item, "--sweep-nodes");
        if (nodes < 1 || nodes > INT_MAX) {
          throw InvalidArgumentError("--sweep-nodes: bad count '" + item +
                                     "' (want positive ints)");
        }
        return static_cast<int>(nodes);
      });
  const auto retrievers = flags.retrievers();

  // The grid owns routing and compression; of the multi-node flags only
  // --nic-shared-queue carries over.
  const auto make_cfg = [&](int nodes, const SweepMode& mode) {
    engine::ExperimentConfig cfg =
        engine::weakScalingConfig(nodes * per_node);
    cfg.layer = emb::multinodeServingLayerSpec(nodes * per_node);
    cfg.num_batches = batches;
    bench::applyInterNodeLink(cfg, nodes);
    cfg.nic_shared_queue = cli.getBool("nic-shared-queue");
    cfg.hierarchical_a2a = mode.hierarchical;
    cfg.compress_bound = mode.compress ? bound : 0.0;
    cfg.compress_adaptive = mode.adaptive;
    cfg.validate();
    return cfg;
  };

  struct Row {
    int nodes;
    std::string retriever;
    const SweepMode* mode;
    engine::ExperimentResult result;
  };
  std::vector<Row> rows;
  for (const int nodes : node_list) {
    for (const auto& mode : kModes) {
      // A single node has no inter-node links: routing and compression
      // are no-ops there, so only the flat/off cell is distinct.
      if (nodes == 1 && (mode.hierarchical || mode.compress)) continue;
      engine::ScenarioRunner runner(make_cfg(nodes, mode));
      for (auto& run : runner.runAll(retrievers)) {
        rows.push_back(
            {nodes, run.retriever, &mode, std::move(run.result)});
      }
    }
  }

  // Functional-mode accuracy probe: a small 2-node layer actually
  // encodes/decodes every cross-node value, so the per-table error
  // below is measured against the --bound, not estimated from it.
  std::vector<engine::NamedResult> accuracy;
  std::vector<std::string> functional_retrievers;
  for (const auto& name : retrievers) {
    if (name == "nccl_collective" || name == "pgas_fused") {
      functional_retrievers.push_back(name);
    }
  }
  if (!functional_retrievers.empty()) {
    for (const bool adaptive : {false, true}) {
      engine::ExperimentConfig cfg = engine::weakScalingConfig(4);
      cfg.layer.total_tables = 8;
      cfg.layer.rows_per_table = 4096;
      cfg.layer.dim = 32;
      cfg.layer.batch_size = 64;
      cfg.layer.min_pooling = 1;
      cfg.layer.max_pooling = 8;
      cfg.num_batches = 2;
      bench::applyInterNodeLink(cfg, 2);
      cfg.mode = gpu::ExecutionMode::kFunctional;
      cfg.hierarchical_a2a = true;
      cfg.compress_bound = bound;
      cfg.compress_adaptive = adaptive;
      cfg.validate();
      engine::ScenarioRunner runner(cfg);
      for (auto& run : runner.runAll(functional_retrievers)) {
        accuracy.push_back(std::move(run));
      }
    }
  }

  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  char header[256];
  snprintf(header, sizeof(header),
           "Multi-node sweep: %d GPUs/node, flat vs hierarchical "
           "all-to-all, inter-node compression off/fixed/adaptive "
           "(bound %.0e)",
           per_node, bound);
  bench::printHeader(header);

  ConsoleTable table({"nodes", "GPUs", "retriever", "routing", "compress",
                      "ms/batch", "inter MB/batch", "inter msgs/batch",
                      "ratio"});
  for (const auto& row : rows) {
    const double b = batchesOf(row.result);
    const auto& in = row.result.inter_node;
    table.addRow(
        {std::to_string(row.nodes), std::to_string(row.nodes * per_node),
         trace::runStyle(row.retriever).short_name, row.mode->routing,
         row.mode->compression, ConsoleTable::num(row.result.avgBatchMs(), 3),
         in ? ConsoleTable::num(in->inter_wire_equivalent_bytes / b / 1e6, 2)
            : "-",
         in ? ConsoleTable::num(
                  static_cast<double>(in->inter_messages) / b, 0)
            : "-",
         row.result.compression
             ? ConsoleTable::num(row.result.compression->ratio(), 2) + "x"
             : "-"});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(inter MB/batch = wire-equivalent bytes crossing node "
         "boundaries, headers\n and message-rate padding included; "
         "hierarchical routing ships one\n collective flow per node pair, "
         "and PGAS leaders hold slices until a\n message clears the NIC "
         "rate floor; ratio is the codec's raw/wire ratio.)\n");

  if (!accuracy.empty()) {
    const std::string acc = trace::renderCompressionTable(accuracy);
    if (!acc.empty()) {
      printf("\nMeasured quantization error (Functional, 2 nodes x 2 "
             "GPUs/node, bound %.0e):\n%s\n",
             bound, acc.c_str());
    }
  }

  const std::string csv = cli.getString("csv");
  if (!csv.empty()) {
    CsvWriter out(csv,
                  {"nodes", "gpus", "retriever", "routing", "compression",
                   "table", "bits", "ms_per_batch",
                   "inter_wire_bytes_per_batch", "inter_msgs_per_batch",
                   "compress_ratio", "max_abs_err", "mean_abs_err"});
    for (const auto& row : rows) {
      const double b = batchesOf(row.result);
      const auto& in = row.result.inter_node;
      const auto& cr = row.result.compression;
      out.addRow(
          {std::to_string(row.nodes), std::to_string(row.nodes * per_node),
           row.retriever, row.mode->routing, row.mode->compression, "", "",
           ConsoleTable::num(row.result.avgBatchMs(), 4),
           in ? ConsoleTable::num(in->inter_wire_equivalent_bytes / b, 0)
              : "",
           in ? ConsoleTable::num(
                    static_cast<double>(in->inter_messages) / b, 0)
              : "",
           cr ? ConsoleTable::num(cr->ratio(), 4) : "", "", ""});
    }
    // Accuracy rows: one per (run, table), absent when compression off.
    for (const auto& run : accuracy) {
      const auto& cr = run.result.compression;
      if (!cr.has_value()) continue;
      for (const auto& t : cr->tables) {
        out.addRow({"2", "4", run.retriever, "hier",
                    cr->adaptive ? "adaptive" : "fixed",
                    std::to_string(t.table), std::to_string(t.bits), "", "",
                    "", ConsoleTable::num(cr->ratio(), 4),
                    t.samples > 0 ? ConsoleTable::num(t.max_abs_error, 8)
                                  : "",
                    t.samples > 0 ? ConsoleTable::num(t.mean_abs_error, 8)
                                  : ""});
      }
    }
    printf("\nwrote %s\n", csv.c_str());
  }

  // Tracked multi-node metrics (opt-in; default output is unchanged):
  // at the largest swept node count, ms/batch and inter-node
  // wire-equivalent bytes/batch for flat, hierarchical, and
  // hierarchical+fixed-compression. All simulated and deterministic, so
  // the perf gate holds the byte counts to exact equality.
  const std::string bench_json = cli.getString("bench-json");
  if (!bench_json.empty()) {
    int max_nodes = 1;
    for (const int n : node_list) max_nodes = std::max(max_nodes, n);
    struct Tracked {
      const char* routing;
      const char* compression;
      const char* suffix;
    };
    constexpr Tracked kTracked[] = {{"flat", "off", "flat"},
                                    {"hier", "off", "hier"},
                                    {"hier", "fixed", "hier_comp"}};
    std::vector<std::string> keys;
    std::vector<double> ms_per_batch, inter_bytes;
    for (const auto& retriever : retrievers) {
      for (const auto& t : kTracked) {
        for (const auto& row : rows) {
          if (row.nodes != max_nodes || row.retriever != retriever ||
              row.mode->routing != std::string(t.routing) ||
              row.mode->compression != std::string(t.compression)) {
            continue;
          }
          const auto& in = row.result.inter_node;
          keys.push_back(retriever + "." + t.suffix);
          ms_per_batch.push_back(row.result.avgBatchMs());
          inter_bytes.push_back(
              in ? in->inter_wire_equivalent_bytes / batchesOf(row.result)
                 : 0.0);
          break;
        }
      }
    }
    bench::BenchRecord record("multinode");
    record.field("gpus_per_node", std::to_string(per_node));
    record.field("batches", std::to_string(batches));
    record.field("max_nodes", std::to_string(max_nodes));
    record.field("bound", bench::BenchRecord::number("%g", bound));
    record.metric("multinode_ms_per_batch", keys, ms_per_batch, "%.4f");
    record.metric("multinode_inter_bytes_per_batch", keys, inter_bytes,
                  "%.1f");
    record.write(bench_json);
  }
  return 0;
}

}  // namespace

static int benchMain(int argc, char** argv) {
  CliParser cli("Multi-node weak scaling: baseline vs PGAS vs "
                "PGAS+aggregator (paper SV extension).");
  cli.addInt("batches", 10, "batches per configuration");
  cli.addInt("gpus-per-node", 4, "GPUs per node");
  cli.addBool("sweep", false,
              "run the hierarchical-routing x compression grid over "
              "--sweep-nodes instead of the aggregator comparison");
  cli.addString("sweep-nodes", "1,2,4,8,16",
                "comma-separated node counts for --sweep");
  cli.addDouble("bound", 1e-2,
                "absolute error bound of the sweep's fixed/adaptive "
                "compression cells");
  cli.addString("csv", "multinode_sweep.csv",
                "--sweep output CSV path (empty = none)");
  cli.addString("bench-json", "",
                "write the tracked multi-node metrics (ms/batch and "
                "inter-node bytes/batch at the largest swept node count) "
                "to this path; empty = off");
  const bench::ConfigFlags flags(cli, bench::kRetrievers | bench::kMultinode,
                                 "nccl_collective,pgas_fused,nccl_pipelined");
  if (!cli.parseOrExit(argc, argv)) return 0;
  const int per_node = static_cast<int>(cli.getInt("gpus-per-node"));

  if (cli.getBool("sweep")) return runSweep(cli, flags);

  auto make_cfg = [&](int nodes, bool agg) {
    engine::ExperimentConfig cfg =
        engine::weakScalingConfig(nodes * per_node);
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    bench::applyInterNodeLink(cfg, nodes);
    cfg.use_aggregator = agg;
    cfg.aggregator.aggregation_bytes = 64 * 1024;
    cfg.aggregator.max_wait = SimTime::us(50.0);
    flags.apply(cfg);
    return cfg;
  };

  ConsoleTable table({"nodes", "GPUs", "baseline ms", "pgas ms",
                      "pgas+agg ms", "best speedup"});
  for (const int nodes : {1, 2, 4}) {
    engine::ScenarioRunner runner(make_cfg(nodes, false));
    const auto base = runner.run("nccl_collective");
    const auto pgas = runner.run("pgas_fused");
    const auto agg =
        engine::ScenarioRunner(make_cfg(nodes, true)).run("pgas_fused");
    const double best = std::min(pgas.avgBatchMs(), agg.avgBatchMs());
    table.addRow({std::to_string(nodes),
                  std::to_string(nodes * per_node),
                  ConsoleTable::num(base.avgBatchMs(), 3),
                  ConsoleTable::num(pgas.avgBatchMs(), 3),
                  ConsoleTable::num(agg.avgBatchMs(), 3),
                  ConsoleTable::num(base.avgBatchMs() / best, 2) + "x"});
  }
  // Every run is computed before anything is printed, so a flag the
  // library rejects exits with its message alone.
  bench::printHeader(
      "Multi-node weak scaling (4 GPUs/node, IB-like inter-node links)");
  printf("\n%s\n", table.render().c_str());
  printf("(per-GPU workload constant; cross-node traffic rides shared "
         "NICs.\n The aggregator recovers the NIC message-rate loss, as "
         "the paper\n proposes for the multi-node extension.)\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
