// Tests for the residual schedules (DESIGN.md §5f): the exact
// ResidualSchedule's O(nodes) heap bound, the BulkResidualSchedule's round
// contract, and the bulk-residual engine built on it — agreement with the
// exact residual engine, one-worker replay, budget exhaustion, stops and
// seeded warm re-convergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stop_token>
#include <vector>

#include "bp/engine.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/schedule.h"
#include "graph/delta.h"
#include "graph/generators.h"

namespace credo::bp {
namespace {

using graph::FactorGraph;
using graph::NodeId;
using runtime::BulkResidualSchedule;
using runtime::ConvergenceController;

constexpr auto kEveryIteration =
    ConvergenceController::Cadence::kEveryIteration;

BpOptions sched_opts() {
  BpOptions o;
  o.convergence_threshold = 1e-4f;
  o.queue_threshold = 1e-5f;
  o.max_iterations = 200;
  return o;
}

FactorGraph small_grid(std::uint32_t side = 16, std::uint64_t seed = 7) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.observed_fraction = 0.1;
  cfg.seed = seed;
  return graph::grid(side, side, cfg);
}

/// Nodes the schedulers seed: unobserved with at least one parent.
std::vector<NodeId> schedulable_nodes(const FactorGraph& g) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.observed(v) && g.in_csr().degree(v) > 0) out.push_back(v);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exact ResidualSchedule heap bound
// ---------------------------------------------------------------------------

TEST(ResidualSchedule, HeapStaysLinearUnderRepeatedReprioritization) {
  const auto g = small_grid(16, 41);
  const ConvergenceController ctl(sched_opts(), kEveryIteration);
  perf::Counters c;
  perf::Meter meter(c);
  runtime::ResidualSchedule s(g, ctl, meter);

  const std::uint64_t bound = 2ull * g.num_nodes() + 64;
  NodeId v = 0;
  for (int i = 0; i < 20000 && s.pop(v); ++i) {
    // Re-raise every child far above the queue bar, every single pop —
    // the workload that used to grow the heap without limit.
    s.record(v, 0.5f);
    ASSERT_LE(s.pending(), bound) << "heap grew superlinear at pop " << i;
  }
}

// ---------------------------------------------------------------------------
// BulkResidualSchedule
// ---------------------------------------------------------------------------

TEST(BulkResidualSchedule, RoundsTakeTheTopQuarterAndRunEachStartOnce) {
  const auto g = small_grid(24, 5);
  const ConvergenceController ctl(sched_opts(), kEveryIteration);
  BulkResidualSchedule s(g, ctl, /*workers=*/1);
  perf::Counters c;
  perf::Meter meter(c);
  const auto want = schedulable_nodes(g);
  ASSERT_EQ(s.pending(), want.size());
  ASSERT_GT(want.size(), BulkResidualSchedule::kSelectAll);

  // Zero deltas raise nothing: every start runs exactly once, a quarter
  // of the active set per round until the tail fits one round.
  std::vector<NodeId> ran;
  while (!s.drained()) {
    const std::uint64_t active = s.pending();
    const auto round = s.select(meter, ~0ull);
    EXPECT_EQ(round.size(), active <= BulkResidualSchedule::kSelectAll
                                ? active
                                : active / BulkResidualSchedule::kFraction);
    ran.insert(ran.end(), round.begin(), round.end());
    for (const NodeId v : round) {
      s.consume(meter, v);
      s.record(0, meter, v, 0.0f);
    }
    s.end_round();
  }
  std::sort(ran.begin(), ran.end());
  EXPECT_EQ(ran, want);
}

TEST(BulkResidualSchedule, RaisesListEachChildOnceAndRespectTheBudget) {
  const auto g = small_grid(16, 3);
  const ConvergenceController ctl(sched_opts(), kEveryIteration);
  BulkResidualSchedule s(g, ctl, 2);
  perf::Counters c;
  perf::Meter meter(c);
  while (!s.drained()) {
    for (const NodeId v : s.select(meter, ~0ull)) s.consume(meter, v);
    s.end_round();
  }

  const NodeId v = schedulable_nodes(g).front();
  std::uint64_t children = 0;
  for (const auto& e : g.out_csr().neighbors(v)) {
    if (!g.observed(e.node) && g.in_csr().degree(e.node) > 0) ++children;
  }
  ASSERT_GT(children, 0u);
  // Below the queue bar: nothing activates.
  s.record(0, meter, v, 1e-6f);
  s.end_round();
  EXPECT_TRUE(s.drained());
  // Two workers raise the same children: each is listed once.
  s.record(0, meter, v, 0.5f);
  s.record(1, meter, v, 0.25f);
  s.record(1, meter, v, 0.75f);
  s.end_round();
  EXPECT_EQ(s.pending(), children);
  // A round never exceeds its budget; the rest stays active.
  const auto round = s.select(meter, 1);
  ASSERT_EQ(round.size(), 1u);
  EXPECT_EQ(s.pending(), children - 1);
  // A raise before a selected node runs is folded into its run; one after
  // queues it again.
  s.record(0, meter, v, 0.5f);
  s.consume(meter, round[0]);
  s.end_round();
  EXPECT_EQ(s.pending(), children - 1);
  s.record(0, meter, v, 0.5f);
  s.end_round();
  EXPECT_EQ(s.pending(), children);
}

// ---------------------------------------------------------------------------
// The bulk-residual engine against the exact residual engine
// ---------------------------------------------------------------------------

double max_belief_l1(const std::vector<graph::BeliefVec>& a,
                     const std::vector<graph::BeliefVec>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = 0.0;
    for (std::uint32_t k = 0; k < a[i].size; ++k) {
      d += std::abs(static_cast<double>(a[i].v[k]) - b[i].v[k]);
    }
    worst = std::max(worst, d);
  }
  return worst;
}

BpOptions engine_opts(unsigned threads) {
  BpOptions o;
  o.convergence_threshold = 1e-4f;
  o.queue_threshold = 1e-5f;
  o.max_iterations = 500;
  o.threads = threads;
  return o;
}

BpResult run(EngineKind kind, const FactorGraph& g, const BpOptions& o) {
  return make_default_engine(kind)->run(g, o);
}

TEST(BulkResidual, RegisteredUnderItsOwnNameOnly) {
  EXPECT_EQ(engine_from_name("bulk-residual"), EngineKind::kBulkResidual);
  EXPECT_EQ(engine_from_name("Bulk Residual"), EngineKind::kBulkResidual);
  EXPECT_EQ(engine_slug(EngineKind::kBulkResidual), "bulk-residual");
  EXPECT_EQ(engine_name(EngineKind::kBulkResidual), "Bulk Residual");
  for (const char* gone : {"residual-mq", "mq", "splash", "residual-locked"}) {
    EXPECT_FALSE(engine_from_name(gone).has_value()) << gone;
  }
}

TEST(BulkResidual, MatchesExactResidualOnLoopyGraphs) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.observed_fraction = 0.1;
  cfg.seed = 71;
  const FactorGraph graphs[] = {small_grid(24, 53),
                                graph::uniform_random(2000, 8000, cfg)};
  for (const auto& g : graphs) {
    const auto exact = run(EngineKind::kResidual, g, engine_opts(1));
    ASSERT_TRUE(exact.stats.converged);
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      const auto r = run(EngineKind::kBulkResidual, g, engine_opts(threads));
      EXPECT_TRUE(r.stats.converged) << threads << " threads";
      // Round order + chaotic reads land on the same fixed point up to
      // the queue bar's tolerance.
      EXPECT_LT(max_belief_l1(exact.beliefs, r.beliefs), 5e-3)
          << threads << " threads";
    }
  }
}

TEST(BulkResidual, IsTightOnTrees) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.observed_fraction = 0.15;
  cfg.seed = 61;
  const auto g = graph::random_tree(300, cfg);
  const auto exact = run(EngineKind::kResidual, g, engine_opts(1));
  const auto r = run(EngineKind::kBulkResidual, g, engine_opts(8));
  ASSERT_TRUE(exact.stats.converged);
  EXPECT_TRUE(r.stats.converged);
  EXPECT_LT(max_belief_l1(exact.beliefs, r.beliefs), 1e-3);
}

TEST(BulkResidual, OneWorkerRunReplaysBitForBit) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.observed_fraction = 0.1;
  cfg.seed = 71;
  const auto g = graph::uniform_random(2000, 8000, cfg);
  const auto a = run(EngineKind::kBulkResidual, g, engine_opts(1));
  const auto b = run(EngineKind::kBulkResidual, g, engine_opts(1));
  ASSERT_TRUE(a.stats.converged);
  ASSERT_EQ(a.beliefs.size(), b.beliefs.size());
  for (std::size_t v = 0; v < a.beliefs.size(); ++v) {
    for (std::uint32_t k = 0; k < a.beliefs[v].size; ++k) {
      ASSERT_EQ(a.beliefs[v].v[k], b.beliefs[v].v[k]) << "node " << v;
    }
  }
  EXPECT_EQ(a.stats.elements_processed, b.stats.elements_processed);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
  EXPECT_EQ(a.stats.counters.flops, b.stats.counters.flops);
  EXPECT_EQ(a.stats.counters.atomic_ops, b.stats.counters.atomic_ops);
  EXPECT_EQ(a.stats.counters.parallel_regions,
            b.stats.counters.parallel_regions);
}

TEST(BulkResidual, ExhaustedBudgetReportsUnconverged) {
  const auto g = small_grid(24, 53);
  const auto opts = engine_opts(4).with_max_iterations(1);
  const auto r = run(EngineKind::kBulkResidual, g, opts);
  EXPECT_FALSE(r.stats.converged);
  EXPECT_EQ(r.stats.iterations, 1u);
  EXPECT_EQ(r.stats.elements_processed, g.num_nodes());  // the whole budget
  for (const auto& b : r.beliefs) {
    for (std::uint32_t k = 0; k < b.size; ++k) {
      ASSERT_TRUE(std::isfinite(b.v[k]));
    }
  }
}

TEST(BulkResidual, ConvergesWithAQueueBarBelowTheNoiseFloor) {
  // At the default 1e-7 bar, float32 rounding keeps deltas of ~1.2e-7
  // re-raising each other, so the active set never drains (the exact
  // engine spends its whole budget on this graph). A frontier pass whose
  // summed change is under the global threshold ends the run instead, as
  // a sweep does for c-node.
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.observed_fraction = 0.1;
  cfg.coupling = 0.55f;
  cfg.seed = 7;
  const auto g = graph::grid(128, 128, cfg);
  const auto opts = BpOptions{}.with_threads(4);
  const auto r = run(EngineKind::kBulkResidual, g, opts);
  EXPECT_TRUE(r.stats.converged);
  EXPECT_LT(r.stats.iterations, 20u);
  const auto c_node = run(EngineKind::kCpuNode, g, opts);
  EXPECT_LT(max_belief_l1(c_node.beliefs, r.beliefs), 5e-3);
}

TEST(BulkResidual, CancelledRunStopsUnconverged) {
  const auto g = small_grid(24, 53);
  std::stop_source source;
  source.request_stop();
  const auto r = run(EngineKind::kBulkResidual, g,
                     engine_opts(2).with_stop(source.get_token()));
  EXPECT_FALSE(r.stats.converged);
  EXPECT_EQ(r.stats.stop_reason, runtime::StopReason::kCancelled);
  EXPECT_LT(r.stats.elements_processed, g.num_nodes());  // one round
}

TEST(BulkResidual, SeededWarmRunAgreesWithColdRun) {
  // An evidence delta re-converged from the previous fixed point, seeded
  // at the touched node, lands where a cold run on the new evidence does
  // (the churn test's tolerance), visiting fewer nodes.
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.observed_fraction = 0.2;
  cfg.coupling = 0.5f;
  cfg.seed = 11;
  const auto g = graph::grid(24, 24, cfg);
  const auto opts = engine_opts(4);
  const auto before = run(EngineKind::kBulkResidual, g, opts);
  ASSERT_TRUE(before.stats.converged);

  NodeId target = g.num_nodes() / 2;
  while (g.observed(target)) ++target;
  graph::GraphDelta delta;
  delta.observe(target, 1);
  std::vector<NodeId> touched;
  const auto changed = graph::with_delta(g, delta, &touched);
  const auto cold = run(EngineKind::kBulkResidual, changed, opts);
  const auto warm = run(
      EngineKind::kBulkResidual, changed,
      BpOptions(opts)
          .with_init_beliefs(
              std::make_shared<const std::vector<graph::BeliefVec>>(
                  before.beliefs))
          .with_frontier_seed(
              std::make_shared<const std::vector<NodeId>>(touched)));
  ASSERT_TRUE(cold.stats.converged);
  EXPECT_TRUE(warm.stats.converged);
  EXPECT_GT(warm.stats.frontier_seeded, 0u);
  EXPECT_LT(warm.stats.elements_processed, cold.stats.elements_processed);
  for (NodeId v = 0; v < changed.num_nodes(); ++v) {
    EXPECT_LT(graph::l1_diff(warm.beliefs[v], cold.beliefs[v]), 2e-2f)
        << "node " << v;
  }
}

}  // namespace
}  // namespace credo::bp
