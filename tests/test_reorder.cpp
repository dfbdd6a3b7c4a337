// Locality pass (graph/reorder.h): permutation algebra, reordered-graph
// structure preservation, engine transparency (beliefs come back in the
// caller's original ids under every mode) and the GraphCache keying.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bp/engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "io/mtx_belief.h"
#include "serve/graph_cache.h"
#include "util/error.h"

namespace credo {
namespace {

using bp::BpOptions;
using bp::BpResult;
using bp::EngineKind;
using graph::FactorGraph;
using graph::NodeId;
using graph::Permutation;
using graph::ReorderMode;

constexpr ReorderMode kAllModes[] = {ReorderMode::kNone, ReorderMode::kBfs,
                                     ReorderMode::kRcm,
                                     ReorderMode::kDegree};

FactorGraph shuffled_grid(std::uint32_t side, std::uint32_t beliefs = 2) {
  graph::BeliefConfig cfg;
  cfg.beliefs = beliefs;
  cfg.seed = 23;
  cfg.observed_fraction = 0.1;
  auto g = graph::grid(side, side, cfg);
  return graph::relabeled(
      g, graph::random_order(g.num_nodes(), /*seed=*/0xabc));
}

float max_belief_gap(const BpResult& a, const BpResult& b) {
  EXPECT_EQ(a.beliefs.size(), b.beliefs.size());
  float worst = 0.0f;
  for (std::size_t v = 0; v < a.beliefs.size(); ++v) {
    worst = std::max(worst, graph::l1_diff(a.beliefs[v], b.beliefs[v]));
  }
  return worst;
}

TEST(Permutation, ApplyUnapplyRoundTrip) {
  const auto perm = graph::random_order(64, 99);
  std::vector<int> ids(64);
  for (int i = 0; i < 64; ++i) ids[i] = i;
  const auto permuted = perm.apply(ids);
  // apply scatters: the value from old id i lands at to_new(i).
  for (NodeId i = 0; i < 64; ++i) EXPECT_EQ(permuted[perm.to_new(i)], i);
  // unapply is its exact inverse.
  EXPECT_EQ(perm.unapply(permuted), ids);
  // to_new / to_old are mutually inverse bijections.
  for (NodeId i = 0; i < 64; ++i) {
    EXPECT_EQ(perm.to_old(perm.to_new(i)), i);
    EXPECT_EQ(perm.to_new(perm.to_old(i)), i);
  }
}

TEST(Permutation, IdentityAndInverse) {
  EXPECT_TRUE(Permutation::identity(16).is_identity());
  const auto perm = graph::random_order(16, 5);
  const auto inv = perm.inverse();
  EXPECT_TRUE(Permutation::compose(perm, inv).is_identity());
  for (NodeId i = 0; i < 16; ++i) EXPECT_EQ(inv.to_new(i), perm.to_old(i));
}

TEST(Permutation, ComposeAppliesInSequence) {
  const auto first = graph::random_order(32, 1);
  const auto then = graph::random_order(32, 2);
  const auto both = Permutation::compose(first, then);
  for (NodeId i = 0; i < 32; ++i) {
    EXPECT_EQ(both.to_new(i), then.to_new(first.to_new(i)));
  }
}

TEST(Permutation, RejectsNonBijections) {
  EXPECT_THROW(Permutation::from_new_to_old({0, 0, 1}), std::exception);
  EXPECT_THROW(Permutation::from_new_to_old({0, 3, 1}), std::exception);
}

TEST(ReorderMode, ParseAcceptsEveryModeName) {
  for (const auto mode : kAllModes) {
    EXPECT_EQ(graph::parse_reorder_mode(graph::reorder_mode_name(mode)),
              mode);
  }
  EXPECT_EQ(graph::parse_reorder_mode("RCM"), ReorderMode::kRcm);
}

TEST(ReorderMode, ParseRejectsUnknownListingValidModes) {
  try {
    (void)graph::parse_reorder_mode("hilbert");
    FAIL() << "expected InvalidArgument";
  } catch (const util::InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hilbert"), std::string::npos);
    for (const auto mode : kAllModes) {
      EXPECT_NE(msg.find(graph::reorder_mode_name(mode)),
                std::string::npos)
          << msg;
    }
  }
}

TEST(Reordered, PreservesStructureAndPayload) {
  const auto g = shuffled_grid(12);
  for (const auto mode : kAllModes) {
    const auto r = graph::reordered(g, mode);
    ASSERT_EQ(r.num_nodes(), g.num_nodes());
    ASSERT_EQ(r.num_edges(), g.num_edges());
    if (mode == ReorderMode::kNone) {
      EXPECT_EQ(r.permutation(), nullptr);
      continue;
    }
    const auto* perm = r.permutation();
    ASSERT_NE(perm, nullptr);
    EXPECT_EQ(r.reorder_mode(), mode);
    // Per-node payload rides with the node.
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const NodeId nv = perm->to_new(v);
      EXPECT_EQ(r.arity(nv), g.arity(v));
      EXPECT_EQ(r.observed(nv), g.observed(v));
      EXPECT_EQ(graph::l1_diff(r.prior(nv), g.prior(v)), 0.0f);
    }
    // The edge multiset maps 1:1 through the permutation.
    std::vector<std::pair<NodeId, NodeId>> expect, got;
    for (const auto& e : g.edges()) {
      expect.emplace_back(perm->to_new(e.src), perm->to_new(e.dst));
    }
    for (const auto& e : r.edges()) got.emplace_back(e.src, e.dst);
    std::sort(expect.begin(), expect.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(expect, got);
  }
}

TEST(Reordered, BfsAndRcmShrinkEdgeSpan) {
  const auto g = shuffled_grid(24);
  const double base = graph::mean_edge_span(g);
  EXPECT_LT(graph::mean_edge_span(graph::reordered(g, ReorderMode::kBfs)),
            base / 4);
  EXPECT_LT(graph::mean_edge_span(graph::reordered(g, ReorderMode::kRcm)),
            base / 4);
}

TEST(Reordered, EdgeListSortedByTargetThenSource) {
  const auto r = graph::reordered(shuffled_grid(10), ReorderMode::kRcm);
  const auto& edges = r.edges();
  for (std::size_t i = 1; i < edges.size(); ++i) {
    const bool ordered =
        edges[i - 1].dst < edges[i].dst ||
        (edges[i - 1].dst == edges[i].dst &&
         edges[i - 1].src <= edges[i].src);
    ASSERT_TRUE(ordered) << "edge " << i;
  }
}

TEST(Reordered, TreeEngineBeliefsBitIdenticalUnderAnyOrdering) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 17;
  cfg.observed_fraction = 0.1;
  const auto tree = graph::relabeled(
      graph::random_tree(96, cfg), graph::random_order(96, 0x7ee));
  BpOptions opts;
  const auto engine = bp::make_default_engine(EngineKind::kTree);
  const auto base = engine->run(tree, opts);
  for (const auto mode :
       {ReorderMode::kBfs, ReorderMode::kRcm, ReorderMode::kDegree}) {
    const auto r = engine->run(graph::reordered(tree, mode), opts);
    // Beliefs come back in original ids. Exact two-pass BP multiplies the
    // same child messages in permuted order, and float multiplication is
    // not associative, so the fixed point can move by an ulp (measured
    // ~2e-7) — but no more: same structure, same message set, same
    // normalization points. Pin that scale, ~1000x below the loopy
    // cross-engine tolerance.
    EXPECT_LT(max_belief_gap(base, r), 1e-5f)
        << graph::reorder_mode_name(mode);
  }
}

TEST(Reordered, LoopyEnginesAgreeAcrossOrderings) {
  const auto g = shuffled_grid(12);
  BpOptions opts;
  opts.convergence_threshold = 1e-4f;
  for (const auto kind :
       {EngineKind::kCpuNode, EngineKind::kCpuEdge, EngineKind::kOmpNode,
        EngineKind::kOmpEdge, EngineKind::kResidual,
        EngineKind::kBulkResidual}) {
    const auto engine = bp::make_default_engine(kind);
    const auto base = engine->run(g, opts);
    for (const auto mode :
         {ReorderMode::kBfs, ReorderMode::kRcm, ReorderMode::kDegree}) {
      const auto r = engine->run(graph::reordered(g, mode), opts);
      // Loopy fixed points are reached through differently-ordered float
      // sums; same tolerance the cross-engine tests use.
      EXPECT_LT(max_belief_gap(base, r), 0.02f)
          << bp::engine_name(kind) << " / "
          << graph::reorder_mode_name(mode);
    }
  }
}

TEST(Reordered, RelabeledRequiresPermFreeInput) {
  const auto g = shuffled_grid(6);
  const auto r = graph::reordered(g, ReorderMode::kBfs);
  EXPECT_THROW(
      (void)graph::relabeled(r, graph::random_order(r.num_nodes(), 1)),
      std::exception);
}

TEST(GraphCache, DistinctEntriesPerReorderMode) {
  const auto dir =
      std::filesystem::temp_directory_path() / "credo_reorder_ut";
  std::filesystem::create_directories(dir);
  const std::string nodes = (dir / "g_nodes.mtx").string();
  const std::string edges = (dir / "g_edges.mtx").string();
  io::write_mtx_belief(shuffled_grid(8), nodes, edges);

  serve::GraphCache cache(8);
  const auto none = cache.fetch(nodes, edges, ReorderMode::kNone);
  const auto rcm = cache.fetch(nodes, edges, ReorderMode::kRcm);
  const auto bfs = cache.fetch(nodes, edges, ReorderMode::kBfs);
  EXPECT_FALSE(none.hit);
  EXPECT_FALSE(rcm.hit);  // same files, different key
  EXPECT_FALSE(bfs.hit);
  EXPECT_EQ(cache.fetch(nodes, edges, ReorderMode::kNone).hit, true);
  EXPECT_EQ(cache.fetch(nodes, edges, ReorderMode::kRcm).hit, true);
  EXPECT_EQ(none.entry->graph->permutation(), nullptr);
  ASSERT_NE(rcm.entry->graph->permutation(), nullptr);
  EXPECT_EQ(rcm.entry->graph->reorder_mode(), ReorderMode::kRcm);
}

TEST(Builder, FinalizeWithModeRecordsPermutation) {
  graph::GraphBuilder b;
  b.use_shared_joint(graph::JointMatrix::diffusion(2, 0.7f));
  graph::BeliefVec uniform;
  uniform.size = 2;
  uniform.v[0] = uniform.v[1] = 0.5f;
  for (int i = 0; i < 4; ++i) b.add_node(uniform);
  b.add_edge(0, 3);
  b.add_edge(3, 1);
  b.add_edge(1, 2);
  const auto g = b.finalize(ReorderMode::kRcm);
  ASSERT_NE(g.permutation(), nullptr);
  EXPECT_EQ(g.reorder_mode(), ReorderMode::kRcm);
  EXPECT_EQ(g.num_nodes(), 4u);
}

}  // namespace
}  // namespace credo
