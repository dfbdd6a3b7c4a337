// Cross-engine correctness: every loopy engine must reach (nearly) the same
// fixed point on the same graph, work queues must not change the answer
// materially, and observed nodes must stay fixed.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "bp/engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/metadata.h"
#include "util/error.h"
#include "util/prng.h"

namespace credo {
namespace {

using bp::BpOptions;
using bp::BpResult;
using bp::EngineKind;
using graph::BeliefConfig;
using graph::FactorGraph;

/// Largest per-state belief difference between two results.
float max_belief_gap(const BpResult& a, const BpResult& b) {
  EXPECT_EQ(a.beliefs.size(), b.beliefs.size());
  float worst = 0.0f;
  for (std::size_t v = 0; v < a.beliefs.size(); ++v) {
    worst = std::max(worst, graph::l1_diff(a.beliefs[v], b.beliefs[v]));
  }
  return worst;
}

FactorGraph small_graph(std::uint32_t beliefs, std::uint64_t seed = 7) {
  BeliefConfig cfg;
  cfg.beliefs = beliefs;
  cfg.seed = seed;
  cfg.observed_fraction = 0.1;
  return graph::uniform_random(200, 800, cfg);
}

BpOptions default_opts() {
  BpOptions o;
  o.convergence_threshold = 1e-4f;
  o.max_iterations = 200;
  return o;
}

TEST(BpEngines, CpuNodeConverges) {
  const auto g = small_graph(2);
  const auto eng = bp::make_default_engine(EngineKind::kCpuNode);
  const auto r = eng->run(g, default_opts());
  EXPECT_TRUE(r.stats.converged);
  EXPECT_GT(r.stats.iterations, 1u);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    float sum = 0.0f;
    for (std::uint32_t s = 0; s < g.arity(v); ++s) {
      sum += r.beliefs[v][s];
    }
    ASSERT_NEAR(sum, 1.0f, 1e-4f) << "node " << v;
  }
}

TEST(BpEngines, AllLoopyEnginesAgree) {
  const auto g = small_graph(3);
  const auto opts = default_opts();
  const auto c_node = bp::make_default_engine(EngineKind::kCpuNode);
  const auto reference = c_node->run(g, opts);
  ASSERT_TRUE(reference.stats.converged);
  for (const auto kind :
       {EngineKind::kCpuEdge, EngineKind::kOmpEdge, EngineKind::kCudaNode,
        EngineKind::kCudaEdge, EngineKind::kAccEdge}) {
    const auto r = bp::make_default_engine(kind)->run(g, opts);
    EXPECT_LT(max_belief_gap(reference, r), 0.02f)
        << "engine " << bp::engine_name(kind);
  }

  // This graph has a second BP fixed point, which omp-node's chaotic
  // 8-thread schedule sometimes reaches (most nodes off by up to 2.0 L1).
  // Here omp-node must reach *a* fixed point: run to a tenth of the
  // threshold (a chaotic sweep sum just under 1e-4 can leave the next
  // sequential sweep just over it), c-node warm-started from its result
  // converges in its first iteration.
  BpOptions tight = opts;
  tight.convergence_threshold = 1e-5f;
  const auto chaotic =
      bp::make_default_engine(EngineKind::kOmpNode)->run(g, tight);
  ASSERT_TRUE(chaotic.stats.converged);
  BpOptions warm = opts;
  warm.init_beliefs =
      std::make_shared<std::vector<graph::BeliefVec>>(chaotic.beliefs);
  const auto settled = c_node->run(g, warm);
  EXPECT_TRUE(settled.stats.converged);
  EXPECT_EQ(settled.stats.iterations, 1u);

  // With weaker couplings the fixed point is unique, and omp-node agrees
  // with c-node under every interleaving.
  BeliefConfig weak;
  weak.beliefs = 3;
  weak.seed = 7;
  weak.observed_fraction = 0.1;
  weak.coupling = 0.35f;
  const auto gw = graph::uniform_random(200, 800, weak);
  const auto weak_reference = c_node->run(gw, opts);
  ASSERT_TRUE(weak_reference.stats.converged);
  const auto weak_omp =
      bp::make_default_engine(EngineKind::kOmpNode)->run(gw, opts);
  EXPECT_LT(max_belief_gap(weak_reference, weak_omp), 0.02f);
}

TEST(BpEngines, OmpEdgeMatchesCEdgeBitForBit) {
  // omp-edge combines destination-owned, each node's in-edges in c-edge's
  // add order, so any team size reproduces c-edge exactly. Long per-worker
  // ranges on a 20k-node graph are where racing shared-accumulator adds
  // would lose addends.
  BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 7;
  cfg.observed_fraction = 0.1;
  const auto g = graph::uniform_random(20000, 80000, cfg);
  BpOptions opts = default_opts();
  const auto reference =
      bp::make_default_engine(EngineKind::kCpuEdge)->run(g, opts);
  for (const unsigned threads : {2u, 4u, 8u}) {
    opts.threads = threads;
    const auto r = bp::make_default_engine(EngineKind::kOmpEdge)->run(g, opts);
    ASSERT_EQ(r.beliefs.size(), reference.beliefs.size());
    std::size_t differing = 0;
    for (std::size_t v = 0; v < r.beliefs.size(); ++v) {
      for (std::uint32_t s = 0; s < r.beliefs[v].size; ++s) {
        if (r.beliefs[v].v[s] != reference.beliefs[v].v[s]) {
          ++differing;
          break;
        }
      }
    }
    EXPECT_EQ(differing, 0u) << threads << " threads";
    EXPECT_EQ(r.stats.iterations, reference.stats.iterations)
        << threads << " threads";
  }
}

TEST(BpEngines, WorkQueueMatchesFullProcessing) {
  const auto g = small_graph(2, 11);
  auto opts = default_opts();
  for (const auto kind :
       {EngineKind::kCpuNode, EngineKind::kCpuEdge, EngineKind::kCudaNode,
        EngineKind::kCudaEdge}) {
    opts.work_queue = false;
    const auto full = bp::make_default_engine(kind)->run(g, opts);
    opts.work_queue = true;
    const auto queued = bp::make_default_engine(kind)->run(g, opts);
    EXPECT_LT(max_belief_gap(full, queued), 0.02f)
        << "engine " << bp::engine_name(kind);
    EXPECT_TRUE(queued.stats.converged);
  }
}

TEST(BpEngines, ObservedNodesStayFixed) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.observed_fraction = 0.3;
  cfg.seed = 3;
  const auto g = graph::uniform_random(100, 400, cfg);
  for (const auto kind : {EngineKind::kCpuNode, EngineKind::kCpuEdge,
                          EngineKind::kCudaNode, EngineKind::kCudaEdge}) {
    const auto r = bp::make_default_engine(kind)->run(g, default_opts());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!g.observed(v)) continue;
      EXPECT_LT(graph::l1_diff(r.beliefs[v], g.prior(v)), 1e-6f)
          << "engine " << bp::engine_name(kind) << " node " << v;
    }
  }
}

TEST(BpEngines, TreeEngineExactOnChain) {
  // 3-node chain with hand-computable marginals: x0 -- x1 -- x2,
  // x2 observed. Compare against brute-force enumeration.
  graph::GraphBuilder b;
  const auto n0 = b.add_node(graph::BeliefVec(
      std::span<const float>(std::array<float, 2>{0.7f, 0.3f})));
  const auto n1 = b.add_node(graph::BeliefVec::uniform(2));
  const auto n2 = b.add_observed_node(2, 0);
  graph::JointMatrix j01(2, 2);
  j01.at(0, 0) = 0.9f; j01.at(0, 1) = 0.1f;
  j01.at(1, 0) = 0.2f; j01.at(1, 1) = 0.8f;
  graph::JointMatrix j12(2, 2);
  j12.at(0, 0) = 0.6f; j12.at(0, 1) = 0.4f;
  j12.at(1, 0) = 0.3f; j12.at(1, 1) = 0.7f;
  b.add_undirected(n0, n1, j01);
  b.add_undirected(n1, n2, j12);
  const auto g = b.finalize();

  // Brute force: p(x0,x1,x2) ∝ prior0(x0) φ01(x0,x1) φ12(x1,x2) [x2 = 0].
  double marg1[2] = {0, 0};
  double total = 0;
  for (int x0 = 0; x0 < 2; ++x0) {
    for (int x1 = 0; x1 < 2; ++x1) {
      const double p = (x0 == 0 ? 0.7 : 0.3) * j01.at(x0, x1) *
                       j12.at(x1, 0);
      marg1[x1] += p;
      total += p;
    }
  }
  marg1[0] /= total;
  marg1[1] /= total;

  bp::BpOptions opts;
  for (const bool naive : {true, false}) {
    opts.tree_naive = naive;
    const auto r = bp::make_default_engine(EngineKind::kTree)->run(g, opts);
    EXPECT_NEAR(r.beliefs[n1][0], marg1[0], 1e-4)
        << (naive ? "naive" : "indexed");
    EXPECT_NEAR(r.beliefs[n1][1], marg1[1], 1e-4);
  }
}

TEST(BpEngines, TreeNaiveAndIndexedAgree) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 5;
  cfg.shared_joint = false;
  const auto g = graph::random_tree(64, cfg);
  bp::BpOptions opts;
  opts.tree_naive = true;
  const auto naive = bp::make_default_engine(EngineKind::kTree)->run(g, opts);
  opts.tree_naive = false;
  const auto indexed =
      bp::make_default_engine(EngineKind::kTree)->run(g, opts);
  EXPECT_LT(max_belief_gap(naive, indexed), 1e-5f);
  // The naive path must cost far more modelled time on the same input.
  EXPECT_GT(naive.stats.time.total(), indexed.stats.time.total());
}

TEST(BpEngines, ModelledTimesArePopulated) {
  const auto g = small_graph(2);
  for (const auto kind :
       {EngineKind::kCpuNode, EngineKind::kCpuEdge, EngineKind::kOmpEdge,
        EngineKind::kCudaNode, EngineKind::kCudaEdge}) {
    const auto r = bp::make_default_engine(kind)->run(g, default_opts());
    EXPECT_GT(r.stats.time.total(), 0.0) << bp::engine_name(kind);
    EXPECT_GT(r.stats.counters.flops, 0u) << bp::engine_name(kind);
  }
}

TEST(BpEngines, GpuEnginesChargeTransferOverheads) {
  const auto g = small_graph(2);
  const auto r =
      bp::make_default_engine(EngineKind::kCudaNode)->run(g, default_opts());
  EXPECT_GT(r.stats.counters.h2d_bytes, 0u);
  EXPECT_GT(r.stats.counters.device_allocs, 0u);
  EXPECT_GT(r.stats.counters.kernel_launches, 0u);
  // For a graph this small, management overhead dominates (§4.1.1 reports
  // 99.8% on the smallest benchmark).
  EXPECT_GT(r.stats.time.management_fraction(), 0.5);
}


TEST(BpEngines, ResidualEngineAgreesWithSweeps) {
  const auto g = small_graph(3, 17);
  const auto opts = default_opts();
  const auto reference =
      bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  const auto residual =
      bp::make_default_engine(EngineKind::kResidual)->run(g, opts);
  EXPECT_LT(max_belief_gap(reference, residual), 0.05f);
  EXPECT_TRUE(residual.stats.converged);
}

TEST(BpEngines, ResidualDoesFewerUpdatesThanFullSweeps) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 19;
  const auto g = graph::uniform_random(2000, 8000, cfg);
  bp::BpOptions opts;
  opts.work_queue = false;  // compare against unfiltered sweeps
  const auto sweep =
      bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  const auto residual =
      bp::make_default_engine(EngineKind::kResidual)->run(g, opts);
  EXPECT_LT(residual.stats.elements_processed,
            sweep.stats.elements_processed);
}

TEST(BpEngines, BatchedConvergenceOvershootIsBounded) {
  // The GPU engine only checks convergence every `batch` iterations, so it
  // may overshoot the sequential engine by at most batch-1 iterations
  // (§4.1: CUDA runs stay "within 10 iterations").
  const auto g = small_graph(2, 23);
  auto opts = default_opts();
  opts.work_queue = false;
  opts.convergence_batch = 1;
  const auto exact =
      bp::make_default_engine(EngineKind::kCudaNode)->run(g, opts);
  for (const std::uint32_t batch : {2u, 4u, 8u}) {
    opts.convergence_batch = batch;
    const auto batched =
        bp::make_default_engine(EngineKind::kCudaNode)->run(g, opts);
    EXPECT_GE(batched.stats.iterations, exact.stats.iterations);
    EXPECT_LE(batched.stats.iterations, exact.stats.iterations + batch);
    // Fewer convergence transfers with larger batches.
    EXPECT_LE(batched.stats.counters.transfer_ops,
              exact.stats.counters.transfer_ops);
  }
}

TEST(BpEngines, BlockSizeDoesNotChangeResults) {
  const auto g = small_graph(2, 29);
  auto opts = default_opts();
  opts.block_threads = 1024;
  const auto big =
      bp::make_default_engine(EngineKind::kCudaEdge)->run(g, opts);
  opts.block_threads = 128;
  const auto small =
      bp::make_default_engine(EngineKind::kCudaEdge)->run(g, opts);
  EXPECT_EQ(max_belief_gap(big, small), 0.0f);
  EXPECT_GT(small.stats.counters.kernel_launches, 0u);
}

TEST(BpEngines, SharedAndPerEdgeJointsAgreeWhenMatricesMatch) {
  // Build the same graph twice: once with a shared matrix, once with that
  // matrix replicated per edge. Fixed points must match exactly.
  // Symmetric potential: the shared-joint mode applies the one matrix in
  // both directions, whereas per-edge add_undirected transposes the
  // reverse edge — identical only for symmetric matrices.
  const auto j = graph::JointMatrix::diffusion(2, 0.8f);
  graph::GraphBuilder shared_b;
  graph::GraphBuilder per_edge_b;
  shared_b.use_shared_joint(j);
  util::Prng prior_rng(32);
  std::vector<graph::BeliefVec> priors;
  for (int i = 0; i < 60; ++i) {
    priors.push_back(graph::random_prior(2, prior_rng));
    shared_b.add_node(priors.back());
    per_edge_b.add_node(priors.back());
  }
  util::Prng edge_rng(33);
  for (int e = 0; e < 200; ++e) {
    const auto u = static_cast<graph::NodeId>(edge_rng.uniform(60));
    auto v = static_cast<graph::NodeId>(edge_rng.uniform(59));
    if (v >= u) ++v;
    shared_b.add_undirected(u, v);
    per_edge_b.add_undirected(u, v, j);
  }
  const auto gs = shared_b.finalize();
  const auto gp = per_edge_b.finalize();
  const auto opts = default_opts();
  for (const auto kind : {EngineKind::kCpuEdge, EngineKind::kCudaNode}) {
    const auto rs = bp::make_default_engine(kind)->run(gs, opts);
    const auto rp = bp::make_default_engine(kind)->run(gp, opts);
    EXPECT_LT(max_belief_gap(rs, rp), 1e-5f) << bp::engine_name(kind);
    // The shared form must be cheaper on the GPU (constant cache) and use
    // far less memory.
    EXPECT_LT(gs.memory_bytes(), gp.memory_bytes());
  }
}

TEST(BpEngines, EngineNamesRoundTripThroughTheOneParser) {
  // bp::engine_from_name is the single parser for engine names: both the
  // paper's display names and the CLI slugs must round-trip for all nine
  // kinds, so new engines can't silently miss a spelling.
  constexpr std::array<EngineKind, 9> kAll = {
      EngineKind::kCpuNode,  EngineKind::kCpuEdge,  EngineKind::kOmpNode,
      EngineKind::kOmpEdge,  EngineKind::kCudaNode, EngineKind::kCudaEdge,
      EngineKind::kAccEdge,  EngineKind::kTree,     EngineKind::kResidual};
  for (const auto kind : kAll) {
    const auto from_display = bp::engine_from_name(bp::engine_name(kind));
    ASSERT_TRUE(from_display.has_value()) << bp::engine_name(kind);
    EXPECT_EQ(*from_display, kind) << bp::engine_name(kind);

    const auto from_slug = bp::engine_from_name(bp::engine_slug(kind));
    ASSERT_TRUE(from_slug.has_value()) << bp::engine_slug(kind);
    EXPECT_EQ(*from_slug, kind) << bp::engine_slug(kind);
  }
}

TEST(BpEngines, EngineFromNameNormalizesAndRejects) {
  // Case, separators and the documented aliases all resolve...
  EXPECT_EQ(bp::engine_from_name("CUDA Edge"), EngineKind::kCudaEdge);
  EXPECT_EQ(bp::engine_from_name("cuda_edge"), EngineKind::kCudaEdge);
  EXPECT_EQ(bp::engine_from_name("OpenMP-Node"), EngineKind::kOmpNode);
  EXPECT_EQ(bp::engine_from_name("openmp edge"), EngineKind::kOmpEdge);
  EXPECT_EQ(bp::engine_from_name("OpenACC Edge"), EngineKind::kAccEdge);
  EXPECT_EQ(bp::engine_from_name("tree-bp"), EngineKind::kTree);
  EXPECT_EQ(bp::engine_from_name("Residual"), EngineKind::kResidual);
  // ...and garbage does not.
  EXPECT_FALSE(bp::engine_from_name("").has_value());
  EXPECT_FALSE(bp::engine_from_name("gpu").has_value());
  EXPECT_FALSE(bp::engine_from_name("c-node-extra").has_value());
}

TEST(BpEngines, ZeroIterationBudgetIsRejected) {
  // A zero iteration budget can never make progress; BpOptions::validate
  // (called by Engine::run for every engine) rejects it up front instead
  // of silently returning unconverged priors.
  const auto g = small_graph(2, 37);
  auto opts = default_opts();
  opts.max_iterations = 0;
  for (const auto kind : {EngineKind::kCpuNode, EngineKind::kCpuEdge,
                          EngineKind::kCudaNode}) {
    EXPECT_THROW((void)bp::make_default_engine(kind)->run(g, opts),
                 util::InvalidArgument)
        << bp::engine_name(kind);
  }
}


TEST(BpEngines, DampingStabilizesMultiStableDynamics) {
  // On a dense hub graph (rmat) the undamped Jacobi (Edge) and
  // Gauss-Seidel (Node) schedules can settle different attractors; with
  // damping the schedules agree. This pins the documented purpose of
  // BpOptions::damping.
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 41;
  cfg.coupling = 0.85f;
  const auto g = graph::rmat(10, 30'000, cfg);
  auto opts = default_opts();
  opts.work_queue = false;
  opts.damping = 0.5f;
  const auto node = bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  const auto edge = bp::make_default_engine(EngineKind::kCpuEdge)->run(g, opts);
  double gap_sum = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    gap_sum += graph::l1_diff(node.beliefs[v], edge.beliefs[v]);
  }
  EXPECT_LT(gap_sum / g.num_nodes(), 0.02);
}

TEST(BpEngines, DampingZeroMatchesUndampedExactly) {
  const auto g = small_graph(3, 43);
  auto opts = default_opts();
  const auto base = bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  opts.damping = 0.0f;
  const auto damped0 =
      bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  EXPECT_EQ(max_belief_gap(base, damped0), 0.0f);
}

TEST(BpEngines, DampedEnginesStillAgree) {
  const auto g = small_graph(2, 47);
  auto opts = default_opts();
  opts.damping = 0.3f;
  const auto reference =
      bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  for (const auto kind : {EngineKind::kCpuEdge, EngineKind::kCudaNode,
                          EngineKind::kCudaEdge, EngineKind::kResidual}) {
    const auto r = bp::make_default_engine(kind)->run(g, opts);
    EXPECT_LT(max_belief_gap(reference, r), 0.05f)
        << bp::engine_name(kind);
  }
}

}  // namespace
}  // namespace credo
