// Extension bench (paper §V + Chen et al. SC'22 [7]): the asynchronous
// communication aggregator on a simulated MULTI-NODE system.
//
// Inter-node links have higher latency, lower bandwidth, and a message-
// rate ceiling, so un-aggregated 256-byte stores collapse the NIC's
// message rate. `aggregator.store(...)` batches them into large messages
// at a small staging cost. Sweeps the aggregation size and the max-wait
// timeout.
#include "bench_common.hpp"
#include "util/table.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli("Async aggregator sweep on a 2-node x 2-GPU system "
                "(paper SV / SC'22 [7] extension).");
  cli.addInt("batches", 10, "batches per configuration");
  cli.addDouble("nic-gbps", 25.0, "inter-node NIC bandwidth, GB/s");
  cli.addDouble("nic-msg-rate", 10e6, "NIC message-rate ceiling, msg/s");
  if (!cli.parseOrExit(argc, argv)) return 0;

  bench::printHeader(
      "Async aggregator on multi-node PGAS embedding retrieval");

  auto make_cfg = [&](bool use_agg, std::int64_t agg_bytes,
                      SimTime max_wait) {
    engine::ExperimentConfig cfg;
    cfg.layer = emb::weakScalingLayerSpec(4);
    cfg.layer.total_tables = 64;  // moderate size for the sweep
    cfg.num_gpus = 4;
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    bench::applyInterNodeLink(cfg, 2);
    cfg.inter_node_link.bandwidth_bytes_per_sec =
        cli.getDouble("nic-gbps") * 1e9;
    cfg.inter_node_link.max_messages_per_sec =
        cli.getDouble("nic-msg-rate");
    cfg.use_aggregator = use_agg;
    cfg.aggregator.aggregation_bytes = agg_bytes;
    cfg.aggregator.max_wait = max_wait;
    return cfg;
  };

  const auto raw = engine::ScenarioRunner(make_cfg(false, 0, SimTime::zero()))
                       .run("pgas_fused");
  printf("\nun-aggregated 256 B stores: %.3f ms/batch, %lld messages\n",
         raw.avgBatchMs(), static_cast<long long>(raw.total_wire_messages));

  ConsoleTable table({"agg size", "max wait", "ms/batch", "speedup",
                      "messages", "msg reduction"});
  for (const std::int64_t kb : {4, 16, 64, 256, 1024}) {
    const auto r =
        engine::ScenarioRunner(make_cfg(true, kb * 1024, SimTime::us(50.0)))
            .run("pgas_fused");
    table.addRow(
        {std::to_string(kb) + " KiB", "50 us",
         ConsoleTable::num(r.avgBatchMs(), 3),
         ConsoleTable::num(raw.avgBatchMs() / r.avgBatchMs(), 2) + "x",
         std::to_string(r.total_wire_messages),
         ConsoleTable::num(static_cast<double>(raw.total_wire_messages) /
                               static_cast<double>(std::max<std::int64_t>(
                                   1, r.total_wire_messages)),
                           0) +
             "x"});
  }
  // Max-wait sweep at a fixed 64 KiB aggregation size.
  for (const double wait_us : {5.0, 500.0}) {
    const auto r =
        engine::ScenarioRunner(make_cfg(true, 64 * 1024, SimTime::us(wait_us)))
            .run("pgas_fused");
    table.addRow(
        {"64 KiB", ConsoleTable::num(wait_us, 0) + " us",
         ConsoleTable::num(r.avgBatchMs(), 3),
         ConsoleTable::num(raw.avgBatchMs() / r.avgBatchMs(), 2) + "x",
         std::to_string(r.total_wire_messages), "-"});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(the paper's proposed change: sum.store(out[idx], pe) -> "
         "aggregator.store(out[idx], sum, pe))\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
