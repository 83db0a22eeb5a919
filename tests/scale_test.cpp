// Every retriever past 64 GPUs (ROADMAP item 1).
//
// 17 nodes x 4 GPUs = 68 GPUs and 32 x 4 = 128 GPUs on the IB-like
// inter-node links, flat and hierarchical, two TimingOnly batches per
// run. Each run must conserve fabric payload, and the pipelined baseline
// must move exactly the collective's inter-node bytes and messages
// wherever the codec's width does not depend on timing (codec off and
// fixed-width). Below 65 GPUs the sweep goldens pin the same equality;
// this suite is the first to run any retriever above 64 GPUs, where a
// fixed per-GPU table in the pipelined retriever once overflowed. At 128
// GPUs every per-slice leader message would sit under the NIC's
// message-rate floor, so hierarchical PGAS must ship fewer messages than
// one per (source, slice, remote node).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/scenario_runner.hpp"
#include "fabric/fabric.hpp"

namespace pgasemb::engine {
namespace {

constexpr int kGpusPerNode = 4;
constexpr int kBatches = 2;

ExperimentConfig scaleConfig(int nodes, bool hierarchical,
                             double compress_bound) {
  ExperimentConfig cfg = weakScalingConfig(nodes * kGpusPerNode);
  cfg.layer = emb::multinodeServingLayerSpec(nodes * kGpusPerNode);
  cfg.num_batches = kBatches;
  cfg.num_nodes = nodes;
  cfg.inter_node_link.bandwidth_bytes_per_sec = 25e9;
  cfg.inter_node_link.latency = SimTime::us(5.0);
  cfg.inter_node_link.header_bytes = 64;
  cfg.inter_node_link.max_messages_per_sec = 10e6;
  cfg.hierarchical_a2a = hierarchical;
  cfg.compress_bound = compress_bound;
  return cfg;
}

struct CellRun {
  ExperimentResult result;
  double injected = 0.0;
  double delivered = 0.0;
  double dropped = 0.0;
};

CellRun runAtScale(const std::string& retriever, int nodes, bool hierarchical,
                   double compress_bound) {
  ScenarioRunner runner(scaleConfig(nodes, hierarchical, compress_bound));
  CellRun run{runner.run(retriever)};
  const auto& fabric = runner.builder().fabric();
  run.injected = fabric.injectionCounter().total();
  run.delivered = fabric.deliveryCounter().total();
  run.dropped = static_cast<double>(fabric.droppedPayloadBytes());
  return run;
}

/// Runs every retriever at `nodes` x 4 GPUs with the codec off and at a
/// fixed width, appending each cell's three runs, in retriever order, to
/// `cells`.
void runEveryRetriever(int nodes, bool hierarchical,
                       std::vector<std::vector<CellRun>>& cells) {
  for (const double bound : {0.0, 1e-2}) {
    const std::string cell = std::to_string(nodes * kGpusPerNode) +
                             " GPUs " + (hierarchical ? "hier" : "flat") +
                             (bound > 0.0 ? " fixed codec" : " no codec");
    std::vector<CellRun>& runs = cells.emplace_back();
    for (const char* name :
         {"nccl_collective", "pgas_fused", "nccl_pipelined"}) {
      runs.push_back(runAtScale(name, nodes, hierarchical, bound));
      const CellRun& run = runs.back();
      const std::string what = cell + ", " + name;
      EXPECT_EQ(run.result.stats.batches, kBatches) << what;
      EXPECT_GT(run.result.stats.total, SimTime::zero()) << what;
      EXPECT_GT(run.injected, 0.0) << what;
      EXPECT_EQ(run.injected, run.delivered + run.dropped) << what;
      EXPECT_EQ(run.dropped, 0.0) << what;
      ASSERT_TRUE(run.result.inter_node.has_value()) << what;
      EXPECT_GT(run.result.inter_node->inter_payload_bytes, 0) << what;
      EXPECT_EQ(run.result.compression.has_value(), bound > 0.0) << what;
    }
    const InterNodeTraffic& collective = *runs[0].result.inter_node;
    const InterNodeTraffic& pipelined = *runs[2].result.inter_node;
    EXPECT_EQ(pipelined.inter_payload_bytes, collective.inter_payload_bytes)
        << cell;
    EXPECT_EQ(pipelined.inter_messages, collective.inter_messages) << cell;
    EXPECT_EQ(pipelined.inter_wire_equivalent_bytes,
              collective.inter_wire_equivalent_bytes)
        << cell;
    EXPECT_EQ(runs[2].result.total_wire_bytes,
              runs[0].result.total_wire_bytes)
        << cell;
  }
}

class ScaleTest : public ::testing::TestWithParam<bool> {};

TEST_P(ScaleTest, EveryRetrieverConservesAndPipelinedMatchesCollective) {
  std::vector<std::vector<CellRun>> cells;
  runEveryRetriever(17, GetParam(), cells);
}

TEST_P(ScaleTest, At128GpusEveryRetrieverConservesAndLeadersHoldSlices) {
  constexpr int kNodes = 32;
  const bool hierarchical = GetParam();
  std::vector<std::vector<CellRun>> cells;
  runEveryRetriever(kNodes, hierarchical, cells);
  if (!hierarchical || HasFailure()) return;
  // One leader message per (source, slice, remote node) crosses two NIC
  // links; holding slices until a message clears the rate floor must
  // send fewer, with and without the codec.
  const ExperimentConfig cfg = scaleConfig(kNodes, true, 0.0);
  const std::int64_t per_slice_messages = 2LL * cfg.num_gpus *
                                          cfg.pgas_slices * (kNodes - 1) *
                                          kBatches;
  for (const auto& runs : cells) {
    const CellRun& pgas = runs[1];
    EXPECT_LT(pgas.result.inter_node->inter_messages, per_slice_messages)
        << (pgas.result.compression.has_value() ? "fixed codec"
                                                : "no codec");
  }
}

INSTANTIATE_TEST_SUITE_P(Routing, ScaleTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "hierarchical" : "flat";
                         });

}  // namespace
}  // namespace pgasemb::engine
