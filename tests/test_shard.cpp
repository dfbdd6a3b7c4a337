// Tests for sharded BP execution (DESIGN.md §5i): contiguous-range
// partition invariants, the double-buffered ghost exchange, the sharding
// option gates, and the sharded engine's agreement with the single-team
// engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "bp/engine.h"
#include "bp/runtime/ghost.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/ldpc.h"
#include "graph/partition.h"
#include "graph/reorder.h"
#include "io/mtx_belief.h"
#include "util/error.h"
#include "util/prng.h"

namespace credo::bp {
namespace {

using graph::FactorGraph;
using graph::NodeId;
using graph::Partition;

FactorGraph small_grid(std::uint32_t side = 16, std::uint64_t seed = 7) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.observed_fraction = 0.1;
  cfg.seed = seed;
  return graph::grid(side, side, cfg);
}

// ---------------------------------------------------------------------------
// Partition invariants
// ---------------------------------------------------------------------------

TEST(Partition, ShardsCoverNodeSpaceContiguouslyAndDisjointly) {
  const auto g = small_grid(20, 11);
  for (const std::uint32_t shards : {1u, 3u, 8u, 32u}) {
    const auto p = Partition::contiguous(g, shards);
    ASSERT_EQ(p.shard_count(), shards);
    NodeId expect_begin = 0;
    for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
      const graph::Shard& sh = p.shard(s);
      EXPECT_EQ(sh.begin, expect_begin) << "shard " << s;
      EXPECT_GT(sh.end, sh.begin) << "shard " << s << " must not be empty";
      expect_begin = sh.end;
    }
    EXPECT_EQ(expect_begin, g.num_nodes());
  }
}

TEST(Partition, ShardCountClampsToNodeCount) {
  graph::BeliefConfig cfg;
  cfg.seed = 3;
  const auto g = graph::random_tree(5, cfg);
  const auto p = Partition::contiguous(g, 64);
  EXPECT_EQ(p.shard_count(), 5u);
  for (std::uint32_t s = 0; s < 5; ++s) {
    EXPECT_EQ(p.shard(s).num_nodes(), 1u);
  }
}

TEST(Partition, OwnerInvertsTheRanges) {
  const auto g = small_grid(20, 11);
  const auto p = Partition::contiguous(g, 7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::uint32_t s = p.owner(v);
    EXPECT_GE(v, p.shard(s).begin);
    EXPECT_LT(v, p.shard(s).end);
  }
}

TEST(Partition, BoundarySetsMatchTheEdgeList) {
  const auto g = small_grid(18, 23);
  const auto p = Partition::contiguous(g, 5);

  // Recompute border/ghost sets from first principles.
  std::vector<std::set<NodeId>> border(5), ghosts(5);
  std::uint64_t cut = 0;
  for (const graph::DirectedEdge& e : g.edges()) {
    const std::uint32_t so = p.owner(e.src), to = p.owner(e.dst);
    if (so == to) continue;
    ++cut;
    border[so].insert(e.src);
    ghosts[to].insert(e.src);
  }
  EXPECT_EQ(p.edge_cut(), cut);
  for (std::uint32_t s = 0; s < 5; ++s) {
    const graph::Shard& sh = p.shard(s);
    EXPECT_TRUE(std::is_sorted(sh.border.begin(), sh.border.end()));
    EXPECT_TRUE(std::is_sorted(sh.ghosts.begin(), sh.ghosts.end()));
    EXPECT_EQ(std::set<NodeId>(sh.border.begin(), sh.border.end()),
              border[s]);
    EXPECT_EQ(std::set<NodeId>(sh.ghosts.begin(), sh.ghosts.end()),
              ghosts[s]);
    // Boundary symmetry: every ghost of s sits in its owner's border, and
    // s appears in that owner's reader set.
    for (const NodeId gv : sh.ghosts) {
      const std::uint32_t o = p.owner(gv);
      const auto& ob = p.shard(o).border;
      EXPECT_TRUE(std::binary_search(ob.begin(), ob.end(), gv));
      const auto& readers = p.readers(o);
      EXPECT_TRUE(std::find(readers.begin(), readers.end(), s) !=
                  readers.end());
    }
  }
}

TEST(Partition, EdgeCutGrowsWithShardCountAndBalanceStaysTight) {
  const auto g = small_grid(32, 5);
  double prev_cut = -1.0;
  for (const std::uint32_t shards : {2u, 8u, 32u}) {
    const auto p = Partition::contiguous(g, shards);
    EXPECT_GE(p.edge_cut_fraction(), prev_cut);
    prev_cut = p.edge_cut_fraction();
    EXPECT_GE(p.balance(), 1.0);
    EXPECT_LT(p.balance(), 1.5) << shards << " shards";
  }
  // A row-major grid cut into bands has a one-row boundary per cut.
  const auto p8 = Partition::contiguous(g, 8);
  EXPECT_LT(p8.edge_cut_fraction(), 0.15);
}

TEST(Partition, SingleShardHasNoBoundary) {
  const auto g = small_grid(12, 9);
  const auto p = Partition::contiguous(g, 1);
  EXPECT_EQ(p.edge_cut(), 0u);
  EXPECT_TRUE(p.shard(0).border.empty());
  EXPECT_TRUE(p.shard(0).ghosts.empty());
  EXPECT_TRUE(p.readers(0).empty());
  EXPECT_DOUBLE_EQ(p.balance(), 1.0);
}

// ---------------------------------------------------------------------------
// GhostExchange
// ---------------------------------------------------------------------------

TEST(GhostExchange, PublishThenImportRefreshesGhostSlots) {
  const auto g = small_grid(16, 31);
  const auto p = Partition::contiguous(g, 4);
  runtime::GhostExchange ex(p);
  perf::Counters c;
  perf::Meter meter(c);

  // Owned-first local layout per shard, seeded from distinct per-node
  // values so copies are traceable.
  const auto value_of = [](NodeId global) {
    return static_cast<float>(global + 1);
  };
  std::vector<std::vector<graph::BeliefVec>> local(4);
  for (std::uint32_t s = 0; s < 4; ++s) {
    const graph::Shard& sh = p.shard(s);
    local[s].resize(sh.num_nodes() + sh.ghosts.size(),
                    graph::BeliefVec::uniform(2));
    for (NodeId v = sh.begin; v < sh.end; ++v) {
      local[s][v - sh.begin].v[0] = value_of(v);
    }
  }

  for (std::uint32_t s = 0; s < 4; ++s) {
    // First publish always reports changed.
    if (!p.shard(s).border.empty()) {
      EXPECT_TRUE(ex.publish(s, local[s], 1e-6f, meter));
    }
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    std::vector<NodeId> changed;
    ex.import(s, local[s], 1e-6f, changed, meter);
    const graph::Shard& sh = p.shard(s);
    for (std::size_t k = 0; k < sh.ghosts.size(); ++k) {
      EXPECT_EQ(local[s][sh.num_nodes() + k].v[0], value_of(sh.ghosts[k]))
          << "shard " << s << " ghost " << k;
    }
    // Every ghost slot moved away from uniform, so every slot reports.
    EXPECT_EQ(changed.size(), sh.ghosts.size());
  }
  EXPECT_GT(c.shard_exchange_bytes, 0u);
  EXPECT_GT(c.shard_exchange_ops, 0u);
}

TEST(GhostExchange, ImportSkipsSourcesWithoutFreshPublishes) {
  const auto g = small_grid(16, 31);
  const auto p = Partition::contiguous(g, 2);
  ASSERT_FALSE(p.shard(0).border.empty());
  runtime::GhostExchange ex(p);
  perf::Counters c;
  perf::Meter meter(c);

  std::vector<std::vector<graph::BeliefVec>> local(2);
  for (std::uint32_t s = 0; s < 2; ++s) {
    local[s].resize(p.shard(s).num_nodes() + p.shard(s).ghosts.size(),
                    graph::BeliefVec::uniform(2));
  }
  EXPECT_TRUE(ex.publish(0, local[0], 1e-6f, meter));
  std::vector<NodeId> changed;
  EXPECT_EQ(ex.import(1, local[1], 1e-6f, changed, meter), 1u);
  // No new publish: the source epoch is unchanged, nothing is copied.
  changed.clear();
  EXPECT_EQ(ex.import(1, local[1], 1e-6f, changed, meter), 0u);
  EXPECT_TRUE(changed.empty());

  // An unchanged republish flips the buffer but reports no change.
  EXPECT_FALSE(ex.publish(0, local[0], 1e-6f, meter));
  EXPECT_EQ(ex.import(1, local[1], 1e-6f, changed, meter), 1u);
  EXPECT_TRUE(changed.empty());
}

TEST(GhostExchange, SubThresholdDriftAccumulatesToAWake) {
  // Regression: change detection must diff against the last publish that
  // REPORTED a change, not merely the previous flip — otherwise a border
  // belief can drift arbitrarily far through publishes that each move
  // less than the threshold, and a parked reader is never woken.
  const auto g = small_grid(16, 31);
  const auto p = Partition::contiguous(g, 2);
  ASSERT_FALSE(p.shard(0).border.empty());
  runtime::GhostExchange ex(p);
  perf::Counters c;
  perf::Meter meter(c);

  std::vector<graph::BeliefVec> local(
      p.shard(0).num_nodes() + p.shard(0).ghosts.size(),
      graph::BeliefVec::uniform(2));
  EXPECT_TRUE(ex.publish(0, local, 0.01f, meter));  // first always wakes

  // Drift every border belief by an L1 of 0.006 per publish — each step
  // under the 0.01 bar, but two steps from the last changed publish
  // cross it.
  bool woke = false;
  int steps = 0;
  while (!woke && steps < 5) {
    ++steps;
    for (const NodeId b : p.shard(0).border) {
      local[b].v[0] = 0.5f + 0.003f * static_cast<float>(steps);
      local[b].v[1] = 1.0f - local[b].v[0];
    }
    woke = ex.publish(0, local, 0.01f, meter);
  }
  EXPECT_TRUE(woke);
  EXPECT_LE(steps, 3);
  // Holding still after the wake reports no further change.
  EXPECT_FALSE(ex.publish(0, local, 0.01f, meter));
}

// ---------------------------------------------------------------------------
// Option gates
// ---------------------------------------------------------------------------

TEST(ShardOptions, ValidateRejectsZeroKnobs) {
  BpOptions o;
  EXPECT_TRUE(o.validate_status().is_ok());
  o.shard_count = 0;
  EXPECT_FALSE(o.validate_status().is_ok());
  o = BpOptions{};
  o.shard_exchange_every = 0;
  EXPECT_FALSE(o.validate_status().is_ok());
}

TEST(ShardOptions, WithShardsSetsBothKnobs) {
  const BpOptions o = BpOptions{}.with_shards(32, 4);
  EXPECT_EQ(o.shard_count, 32u);
  EXPECT_EQ(o.shard_exchange_every, 4u);
  EXPECT_EQ(BpOptions{}.with_shards(16).shard_exchange_every,
            kDefaultShardExchangeEvery);
}

TEST(ShardOptions, ShardKnobsRejectedOnNonShardedEngines) {
  const auto g = small_grid(8, 3);
  for (const EngineKind kind :
       {EngineKind::kCpuNode, EngineKind::kOmpNode, EngineKind::kResidual,
        EngineKind::kBulkResidual, EngineKind::kTree}) {
    const auto engine = make_default_engine(kind);
    EXPECT_THROW((void)engine->run(g, BpOptions{}.with_shards(4)),
                 util::InvalidArgument)
        << engine_slug(kind);
    EXPECT_THROW(
        (void)engine->run(g, BpOptions{}.with_shards(kDefaultShardCount, 2)),
        util::InvalidArgument)
        << engine_slug(kind);
    // The defaults pass through untouched.
    EXPECT_NO_THROW((void)engine->run(g, BpOptions{}));
  }
}

TEST(ShardOptions, ShardedEngineRegisteredEverywhere) {
  EXPECT_EQ(engine_from_name("sharded"), EngineKind::kSharded);
  EXPECT_EQ(engine_from_name("Sharded"), EngineKind::kSharded);
  EXPECT_EQ(engine_from_name("shard"), EngineKind::kSharded);
  EXPECT_EQ(engine_name(EngineKind::kSharded), "Sharded");
  EXPECT_EQ(engine_slug(EngineKind::kSharded), "sharded");
  EXPECT_TRUE(engine_supports_family(EngineKind::kSharded,
                                     graph::FactorFamily::kTabular));
  EXPECT_FALSE(engine_supports_family(EngineKind::kSharded,
                                      graph::FactorFamily::kLdpcSumProduct));
  EXPECT_TRUE(engine_supports_warm_start(EngineKind::kSharded,
                                         graph::FactorFamily::kTabular));
  EXPECT_TRUE(engine_supports_frontier_seed(EngineKind::kSharded,
                                            graph::FactorFamily::kTabular));
}

TEST(ShardOptions, ShardedRejectsLdpcGraphs) {
  const auto code = graph::ldpc::random_regular(64, 3, 6, 5);
  const std::vector<std::uint8_t> error(code.bits, 0);
  const auto syn = graph::ldpc::syndrome(code, error);
  const auto g = graph::ldpc::build_graph(
      code, syn, 0.05f, graph::FactorFamily::kLdpcSumProduct);
  const auto engine = make_default_engine(EngineKind::kSharded);
  EXPECT_THROW((void)engine->run(g, BpOptions{}), util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Sharded engine vs single-team engines
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
  o.work_queue = true;
  o.threads = threads;
  return o;
}

TEST(ShardedEngine, BeliefsMatchSequentialOnGrid) {
  const auto g = small_grid(24, 53);
  const auto exact =
      make_default_engine(EngineKind::kResidual)->run(g, engine_opts(1));
  ASSERT_TRUE(exact.stats.converged);
  for (const unsigned shards : {1u, 4u, 16u}) {
    for (const unsigned threads : {1u, 8u}) {
      const auto r = make_default_engine(EngineKind::kSharded)
                         ->run(g, engine_opts(threads).with_shards(shards));
      EXPECT_TRUE(r.stats.converged)
          << shards << " shards, " << threads << " threads";
      EXPECT_LT(max_belief_l1(exact.beliefs, r.beliefs), 5e-3)
          << shards << " shards, " << threads << " threads";
    }
  }
}

TEST(ShardedEngine, BeliefsAreTightOnTrees) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.observed_fraction = 0.15;
  cfg.seed = 61;
  const auto g = graph::random_tree(300, cfg);
  const auto exact =
      make_default_engine(EngineKind::kResidual)->run(g, engine_opts(1));
  ASSERT_TRUE(exact.stats.converged);
  const auto r = make_default_engine(EngineKind::kSharded)
                     ->run(g, engine_opts(8).with_shards(8));
  EXPECT_TRUE(r.stats.converged);
  EXPECT_LT(max_belief_l1(exact.beliefs, r.beliefs), 1e-3);
}

TEST(ShardedEngine, SingleWorkerRunsAreBitReproducible) {
  // At one worker the shard round-robin is fixed, so repeated runs replay
  // the exact same float trajectory. (Multi-worker runs vary only in when
  // a shard imports relative to a neighbor's publish — ghost staleness,
  // bounded by the cadence — so those agree to tolerance, not bit-exactly;
  // BeliefsMatchSequentialOnGrid covers that.)
  const auto g = small_grid(20, 17);
  const auto a = make_default_engine(EngineKind::kSharded)
                     ->run(g, engine_opts(1).with_shards(8, 2));
  const auto b = make_default_engine(EngineKind::kSharded)
                     ->run(g, engine_opts(1).with_shards(8, 2));
  ASSERT_EQ(a.beliefs.size(), b.beliefs.size());
  for (std::size_t v = 0; v < a.beliefs.size(); ++v) {
    for (std::uint32_t k = 0; k < a.beliefs[v].size; ++k) {
      EXPECT_EQ(a.beliefs[v].v[k], b.beliefs[v].v[k]) << "node " << v;
    }
  }
}

TEST(ShardedEngine, DenseModeConvergesToo) {
  const auto g = small_grid(24, 53);
  BpOptions o = engine_opts(8).with_shards(8);
  o.work_queue = false;
  const auto r = make_default_engine(EngineKind::kSharded)->run(g, o);
  EXPECT_TRUE(r.stats.converged);
  const auto exact =
      make_default_engine(EngineKind::kResidual)->run(g, engine_opts(1));
  EXPECT_LT(max_belief_l1(exact.beliefs, r.beliefs), 5e-3);
}

TEST(ShardedEngine, ExchangeCadenceTradesIterationsForTraffic) {
  const auto g = small_grid(32, 29);
  const auto every1 = make_default_engine(EngineKind::kSharded)
                          ->run(g, engine_opts(4).with_shards(8, 1));
  const auto every8 = make_default_engine(EngineKind::kSharded)
                          ->run(g, engine_opts(4).with_shards(8, 8));
  ASSERT_TRUE(every1.stats.converged);
  ASSERT_TRUE(every8.stats.converged);
  // A slower cadence exchanges strictly fewer times per sweep.
  EXPECT_LT(every8.stats.counters.shard_exchange_ops,
            every1.stats.counters.shard_exchange_ops);
  // Both land on the same answer.
  EXPECT_LT(max_belief_l1(every1.beliefs, every8.beliefs), 5e-3);
}

TEST(ShardedEngine, CountsExchangeTrafficAndModelsExchangeTime) {
  const auto g = small_grid(24, 53);
  const auto r = make_default_engine(EngineKind::kSharded)
                     ->run(g, engine_opts(4).with_shards(8));
  EXPECT_GT(r.stats.counters.shard_exchange_bytes, 0u);
  EXPECT_GT(r.stats.counters.shard_exchange_ops, 0u);
  EXPECT_GT(r.stats.time.exchange_s, 0.0);
  // Single shard: no boundary, no exchange.
  const auto solo = make_default_engine(EngineKind::kSharded)
                        ->run(g, engine_opts(1).with_shards(1));
  EXPECT_EQ(solo.stats.counters.shard_exchange_bytes, 0u);
  EXPECT_EQ(solo.stats.time.exchange_s, 0.0);
}

TEST(ShardedEngine, HonorsWarmStartAndFrontierSeed) {
  const auto g = small_grid(24, 47);
  const auto cold = make_default_engine(EngineKind::kSharded)
                        ->run(g, engine_opts(4).with_shards(8));
  ASSERT_TRUE(cold.stats.converged);

  // Re-running from the converged state touches almost nothing.
  auto warm_state = std::make_shared<const std::vector<graph::BeliefVec>>(
      cold.beliefs);
  BpOptions warm = engine_opts(4).with_shards(8);
  warm.init_beliefs = warm_state;
  const auto rewarm = make_default_engine(EngineKind::kSharded)->run(g, warm);
  EXPECT_TRUE(rewarm.stats.converged);
  EXPECT_LT(rewarm.stats.elements_processed, cold.stats.elements_processed);

  // Seeding a single perturbed node re-converges from that frontier only.
  NodeId seed_node = 0;
  while (g.observed(seed_node) || g.in_csr().degree(seed_node) == 0) {
    ++seed_node;
  }
  BpOptions seeded = engine_opts(4).with_shards(8);
  seeded.init_beliefs = warm_state;
  seeded.frontier_seed = std::make_shared<const std::vector<NodeId>>(
      std::vector<NodeId>{seed_node});
  const auto inc = make_default_engine(EngineKind::kSharded)->run(g, seeded);
  EXPECT_TRUE(inc.stats.converged);
  EXPECT_GT(inc.stats.frontier_seeded, 0u);
  EXPECT_LT(inc.stats.elements_processed, cold.stats.elements_processed);
  EXPECT_LT(max_belief_l1(cold.beliefs, inc.beliefs), 5e-3);
}

TEST(ShardedEngine, ReorderedGraphsUnpermuteBeliefs) {
  const auto base = small_grid(20, 41);
  const auto reordered = graph::reordered(base, graph::ReorderMode::kBfs);
  const auto plain = make_default_engine(EngineKind::kSharded)
                         ->run(base, engine_opts(4).with_shards(8));
  const auto rr = make_default_engine(EngineKind::kSharded)
                      ->run(reordered, engine_opts(4).with_shards(8));
  EXPECT_TRUE(rr.stats.converged);
  // Both answers come back in original ids; same fixed point.
  EXPECT_LT(max_belief_l1(plain.beliefs, rr.beliefs), 5e-3);
}

TEST(ShardedEngine, DistributedStopDrainDoesNotSwallowGhostWakes) {
  // Regression: the distributed stopping rule drains a still-stamped
  // queue. The stamp id must be retired with the drain — otherwise a
  // later ghost wake's frontier pushes are silently deduplicated against
  // the drained queue, the wake is lost (the import already advanced the
  // route epoch), and the run parks "converged" with boundary beliefs
  // that never saw the neighbor's change.
  //
  // Trigger, in two shards with a long exchange period so each shard
  // reaches internal quiescence inside its FIRST claim, before any
  // ghost exchange. Shard 0 is a loopy 4-cycle with random priors:
  // loopy churn decays geometrically, so the distributed stop fires
  // while sub-bar residuals keep the queue stamped — the drain traps
  // the cycle's stamps, then the shard publishes its noise and parks.
  // Shard 1 is a strongly coupled relay path with evidence at the far
  // end: its first claim absorbs the evidence, moves its border belief
  // to the evidence pole, and that changed publish wakes shard 0 —
  // necessarily AFTER shard 0's drain. The wake's only payload is a
  // frontier push of cycle node 3; a trapped stamp swallows it, the
  // cycle never sees the evidence, and the run reports converged with
  // the cycle at its no-evidence fixed point, an O(0.1) belief error.
  // The padding path between cycle and relay is disconnected filler:
  // it drains on the first sweep and only balances the partition
  // weights so the work-balanced 2-way cut lands exactly between nodes
  // 31 and 32, keeping the wake's target inside the trapped cycle.
  graph::GraphBuilder b;
  util::Prng rng(19);
  for (NodeId v = 0; v < 4; ++v) b.add_node(graph::random_prior(2, rng));
  for (NodeId v = 4; v < 63; ++v) b.add_node(graph::BeliefVec::uniform(2));
  b.add_observed_node(2, 0);  // node 63: evidence
  const auto strong = graph::JointMatrix::diffusion(2, 0.999f);
  const auto weak = graph::JointMatrix::diffusion(2, 0.8f);
  for (NodeId v = 0; v < 4; ++v) {
    b.add_undirected(v, v + 1 < 4 ? v + 1 : 0, weak);  // the loopy cycle
  }
  for (NodeId v = 4; v < 31; ++v) b.add_undirected(v, v + 1, weak);  // pad
  b.add_undirected(3, 32, weak);  // connector: cycle -> relay border
  for (NodeId v = 32; v < 63; ++v) b.add_undirected(v, v + 1, strong);
  const auto g = b.finalize();

  BpOptions o = engine_opts(1).with_shards(2, 200);
  o.queue_threshold = 1e-7f;
  const auto r = make_default_engine(EngineKind::kSharded)->run(g, o);
  EXPECT_TRUE(r.stats.converged);
  const auto exact =
      make_default_engine(EngineKind::kResidual)->run(g, engine_opts(1));
  ASSERT_TRUE(exact.stats.converged);
  EXPECT_LT(max_belief_l1(exact.beliefs, r.beliefs), 5e-3);
}

TEST(ShardedEngine, ConvergingOnTheFinalBudgetedSweepStaysConverged) {
  // Regression: a shard whose frontier drains on exactly its
  // max_iterations-th sweep is quiescent at the cap, not capped with
  // work remaining — the run must keep its convergence, matching the
  // single-team drivers. One worker makes the replay deterministic.
  const auto g = small_grid(20, 17);
  BpOptions o = engine_opts(1).with_shards(8, 2);
  const auto full = make_default_engine(EngineKind::kSharded)->run(g, o);
  ASSERT_TRUE(full.stats.converged);

  o.max_iterations = full.stats.iterations;
  const auto capped = make_default_engine(EngineKind::kSharded)->run(g, o);
  EXPECT_EQ(capped.stats.iterations, full.stats.iterations);
  EXPECT_TRUE(capped.stats.converged);

  // One sweep short genuinely caps with work remaining: unconverged.
  o.max_iterations = full.stats.iterations - 1;
  const auto short_run = make_default_engine(EngineKind::kSharded)->run(g, o);
  EXPECT_FALSE(short_run.stats.converged);
}

TEST(ShardedEngine, FloatNoiseOnTheBorderDoesNotHoldShardsAwake) {
  // Border beliefs near 1.0 can flip by one float ulp, which is above the
  // default 1e-7 queue bar. Such flips are far below a shard's share of
  // the stopping threshold and must not wake the neighbor shard: on this
  // MTX round-tripped grid (priors rounded to the file's precision) two
  // shards would otherwise wake each other every round up to the sweep
  // cap. One worker makes the replay deterministic.
  const auto dir = std::filesystem::temp_directory_path() / "credo_shard_ut";
  std::filesystem::create_directories(dir);
  const std::string nodes = (dir / "noise_nodes.mtx").string();
  const std::string edges = (dir / "noise_edges.mtx").string();
  io::write_mtx_belief(small_grid(128, 7), nodes, edges);
  const FactorGraph g = io::read_mtx_belief(nodes, edges);

  BpOptions o;
  o.convergence_threshold = 1e-3f;
  o.max_iterations = 200;
  o.work_queue = true;
  o.threads = 1;
  const auto r = make_default_engine(EngineKind::kSharded)->run(g, o);
  EXPECT_TRUE(r.stats.converged);
  EXPECT_LT(r.stats.iterations, 100u);
  const auto ref = make_default_engine(EngineKind::kCpuNode)->run(g, o);
  ASSERT_TRUE(ref.stats.converged);
  EXPECT_LT(max_belief_l1(ref.beliefs, r.beliefs), 5e-3);
}

TEST(ShardedEngine, EightThreadStressOnIrregularGraph) {
  // Heavy-tailed degrees + many shards + full team: the sanitizer config
  // runs this as the §5i data-race canary.
  graph::BeliefConfig cfg;
  cfg.beliefs = 4;
  cfg.observed_fraction = 0.05;
  cfg.seed = 97;
  const auto g = graph::preferential_attachment(4000, 3, cfg);
  for (int rep = 0; rep < 3; ++rep) {
    const auto r = make_default_engine(EngineKind::kSharded)
                       ->run(g, engine_opts(8).with_shards(32));
    EXPECT_GE(r.stats.iterations, 1u);
    EXPECT_GT(r.stats.elements_processed, 0u);
    for (const auto& b : r.beliefs) {
      float sum = 0.0f;
      for (std::uint32_t k = 0; k < b.size; ++k) sum += b.v[k];
      ASSERT_NEAR(sum, 1.0f, 1e-3f);
    }
  }
}

}  // namespace
}  // namespace credo::bp
