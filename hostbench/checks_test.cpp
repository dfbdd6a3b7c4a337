// Each output check accepts a correct result and rejects a deliberately
// corrupted one.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bench.h"
#include "bp/engine.h"
#include "graph/generators.h"
#include "graph/reorder.h"

namespace hostbench {
namespace {

namespace bp = credo::bp;
namespace graph = credo::graph;

bp::BpResult solve(const graph::FactorGraph& g) {
  return bp::make_default_engine(bp::EngineKind::kCpuNode)
      ->run(g, bp::BpOptions{}.with_work_queue(true).with_threads(1));
}

graph::NodeId first_observed(const graph::FactorGraph& g, bool observed) {
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.observed(v) == observed) return v;
  }
  return 0;
}

TEST(Checks, BeliefsPassOnASolvedGrid) {
  const auto g = make_grid(grid_spec(Scale::kSmoke), 3);
  const auto res = solve(g);
  EXPECT_EQ(check_beliefs(g, res.beliefs), "");
  EXPECT_EQ(check_against(compact(res.beliefs), res.beliefs, 0.0), "");
}

TEST(Checks, BeliefsPassOnAReorderedGrid) {
  const auto g = graph::reordered(make_grid(grid_spec(Scale::kSmoke), 3),
                                  graph::ReorderMode::kBfs);
  EXPECT_EQ(check_beliefs(g, solve(g).beliefs), "");
}

TEST(Checks, BeliefsRejectAnUnnormalizedVector) {
  const auto g = make_grid(grid_spec(Scale::kSmoke), 3);
  auto beliefs = solve(g).beliefs;
  beliefs[first_observed(g, false)].v[0] += 0.25f;
  EXPECT_NE(check_beliefs(g, beliefs), "");
}

TEST(Checks, BeliefsRejectANaN) {
  const auto g = make_grid(grid_spec(Scale::kSmoke), 3);
  auto beliefs = solve(g).beliefs;
  beliefs[first_observed(g, false)].v[1] =
      std::numeric_limits<float>::quiet_NaN();
  EXPECT_NE(check_beliefs(g, beliefs), "");
  EXPECT_NE(check_against(compact(beliefs), solve(g).beliefs, 1.0), "");
}

TEST(Checks, BeliefsRejectAnObservedNodeMovedOffItsEvidence) {
  const auto g = make_grid(grid_spec(Scale::kSmoke), 3);
  auto beliefs = solve(g).beliefs;
  auto& b = beliefs[first_observed(g, true)];
  std::swap(b.v[0], b.v[1]);  // still normalized, no longer the evidence
  EXPECT_NE(check_beliefs(g, beliefs), "");
}

TEST(Checks, BeliefsRejectAMissingNode) {
  const auto g = make_grid(grid_spec(Scale::kSmoke), 3);
  auto beliefs = solve(g).beliefs;
  beliefs.pop_back();
  EXPECT_NE(check_beliefs(g, beliefs), "");
}

TEST(Checks, ReferenceRejectsAShiftedBelief) {
  const auto g = make_grid(grid_spec(Scale::kSmoke), 3);
  const auto ref = solve(g).beliefs;
  auto beliefs = ref;
  auto& b = beliefs[first_observed(g, false)];
  b.v[0] = std::min(1.0f, b.v[0] + 0.1f);
  b.v[1] = 1.0f - b.v[0];  // normalized, but off the reference
  EXPECT_EQ(check_beliefs(g, beliefs), "");
  EXPECT_NE(check_against(compact(beliefs), ref, 0.03), "");
  EXPECT_EQ(check_against(compact(beliefs), ref, 0.2), "");
}

TEST(Checks, ReferenceRejectsAShapeMismatch) {
  const auto g = make_grid(grid_spec(Scale::kSmoke), 3);
  const auto ref = solve(g).beliefs;
  auto c = compact(ref);
  c.pop_back();
  EXPECT_NE(check_against(c, ref, 1.0), "");
}

TEST(Checks, SyndromePassesOnADecodedFrameAndRejectsACorruptedOne) {
  const LdpcSpec spec = ldpc_spec(Scale::kSmoke);
  const auto code =
      graph::ldpc::random_regular(spec.bits, spec.dv, spec.dc, 5);
  const auto syndrome = graph::ldpc::syndrome(code, make_error(spec, 9));
  const auto g = graph::ldpc::build_graph(code, syndrome, spec.crossover,
                                          graph::FactorFamily::kLdpcSumProduct);
  const auto res = bp::make_default_engine(bp::EngineKind::kCpuNode)
                       ->run(g, bp::BpOptions{}
                                    .with_max_iterations(spec.max_iterations)
                                    .with_syndrome_stop(true));
  ASSERT_TRUE(res.stats.syndrome_satisfied);
  EXPECT_EQ(check_syndrome(code, res.beliefs, syndrome), "");
  EXPECT_EQ(check_decode_verdict(code, res.beliefs, syndrome, true), "");

  // Flip one bit's hard decision.
  auto beliefs = res.beliefs;
  std::swap(beliefs[0].v[0], beliefs[0].v[1]);
  EXPECT_NE(check_syndrome(code, beliefs, syndrome), "");
  EXPECT_NE(check_decode_verdict(code, beliefs, syndrome, true), "");
  // An honest "undecoded" verdict on those beliefs is a failed op, not a
  // wrong output.
  EXPECT_EQ(check_decode_verdict(code, beliefs, syndrome, false), "");

  // Or keep the beliefs and corrupt the syndrome they must satisfy.
  auto bad = syndrome;
  bad[0] ^= 1;
  EXPECT_NE(check_syndrome(code, res.beliefs, bad), "");
  EXPECT_NE(check_decode_verdict(code, res.beliefs, bad, true), "");

  // A verdict of failure that the beliefs contradict is caught too.
  EXPECT_NE(check_decode_verdict(code, res.beliefs, syndrome, false), "");
}

TEST(Stats, QuantileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace hostbench
