// Ablation A2: per-message header overhead (paper §IV-A2d).
//
// "Compared to large messages, those small messages are not
//  bandwidth-efficient as the message header takes a good portion of
//  bandwidth... the overhead only increases very slightly [because] the
//  PGAS fused implementation is not bandwidth-limited as long as the
//  communication can be done within the computation period."
//
// Sweeping the header size shows exactly that: wire inefficiency grows,
// runtime barely moves until the drain no longer fits in the compute
// window.
#include "bench_common.hpp"
#include "util/table.hpp"

static int benchMain(int argc, char** argv) {
  using namespace pgasemb;
  CliParser cli("Message-header overhead ablation (4 GPUs, weak config).");
  cli.addInt("batches", 10, "batches per configuration");
  if (!cli.parseOrExit(argc, argv)) return 0;

  bench::printHeader(
      "Ablation: per-message header bytes vs PGAS fused runtime");

  ConsoleTable table({"header (B)", "wire efficiency", "pgas ms/batch",
                      "slowdown vs 0 B"});
  double base_ms = 0.0;
  for (const int header : {0, 16, 32, 64, 128, 256, 1024}) {
    auto cfg = engine::weakScalingConfig(4);
    cfg.num_batches = static_cast<int>(cli.getInt("batches"));
    cfg.link.header_bytes = header;
    const auto r = engine::ScenarioRunner(cfg).run("pgas_fused");
    if (header == 0) base_ms = r.avgBatchMs();
    const double eff = 256.0 / (256.0 + header);
    table.addRow({std::to_string(header), ConsoleTable::num(eff, 3),
                  ConsoleTable::num(r.avgBatchMs(), 3),
                  ConsoleTable::num(r.avgBatchMs() / base_ms, 3) + "x"});
  }
  printf("\n%s\n", table.render().c_str());
  printf("(wire efficiency halves at 256 B headers, yet runtime barely "
         "moves while the drain still fits inside compute — the paper's "
         "point)\n");
  return 0;
}

int main(int argc, char** argv) {
  return pgasemb::bench::guardedMain(argc, argv, benchMain);
}
