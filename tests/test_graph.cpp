// Unit and property tests for the graph substrate: belief math, CSR,
// builder, stores, generators, metadata.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <set>
#include <span>
#include <utility>

#include "graph/belief.h"
#include "graph/belief_store.h"
#include "graph/builder.h"
#include "graph/csr.h"
#include "graph/factor_graph.h"
#include "graph/generators.h"
#include "graph/metadata.h"
#include "util/error.h"

namespace credo::graph {
namespace {

// ---------------------------------------------------------------------------
// Belief math
// ---------------------------------------------------------------------------

TEST(Belief, NormalizeSumsToOne) {
  BeliefVec b;
  b.size = 3;
  b[0] = 2.0f;
  b[1] = 1.0f;
  b[2] = 1.0f;
  normalize(b);
  EXPECT_FLOAT_EQ(b[0], 0.5f);
  EXPECT_FLOAT_EQ(b[0] + b[1] + b[2], 1.0f);
}

TEST(Belief, NormalizeDegenerateFallsBackToUniform) {
  BeliefVec b = BeliefVec::uniform(4);
  for (std::uint32_t i = 0; i < 4; ++i) b[i] = 0.0f;
  normalize(b);
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(b[i], 0.25f);
}

TEST(Belief, ObservedIsPointMass) {
  const auto b = BeliefVec::observed(3, 1);
  EXPECT_FLOAT_EQ(b[0], 0.0f);
  EXPECT_FLOAT_EQ(b[1], 1.0f);
  EXPECT_FLOAT_EQ(b[2], 0.0f);
}

TEST(Belief, ObservedRejectsBadState) {
  EXPECT_THROW(BeliefVec::observed(2, 2), std::logic_error);
}

TEST(Belief, L1DiffSymmetric) {
  const auto a = BeliefVec::observed(2, 0);
  const auto b = BeliefVec::observed(2, 1);
  EXPECT_FLOAT_EQ(l1_diff(a, b), 2.0f);
  EXPECT_FLOAT_EQ(l1_diff(b, a), 2.0f);
  EXPECT_FLOAT_EQ(l1_diff(a, a), 0.0f);
}

TEST(Belief, CombineMultiplies) {
  BeliefVec acc = BeliefVec::ones(2);
  BeliefVec m;
  m.size = 2;
  m[0] = 0.25f;
  m[1] = 0.75f;
  combine(acc, m);
  EXPECT_FLOAT_EQ(acc[0], 0.25f);
  EXPECT_FLOAT_EQ(acc[1], 0.75f);
}

TEST(Belief, CombineGuardsUnderflow) {
  BeliefVec acc = BeliefVec::ones(2);
  BeliefVec m;
  m.size = 2;
  m[0] = 1e-22f;
  m[1] = 1e-23f;
  for (int i = 0; i < 10; ++i) combine(acc, m);
  // Rescaling keeps the max component representable and the ratio intact.
  EXPECT_GT(acc[0], 0.0f);
  EXPECT_NEAR(acc[1] / acc[0], 1e-10f, 1e-11f);
}

TEST(Belief, ComputeMessageMatchesHandCalc) {
  BeliefVec in;
  in.size = 2;
  in[0] = 0.5f;
  in[1] = 0.5f;
  JointMatrix j(2, 2);
  j.at(0, 0) = 0.9f;
  j.at(0, 1) = 0.1f;
  j.at(1, 0) = 0.2f;
  j.at(1, 1) = 0.8f;
  BeliefVec out;
  compute_message(in, j, out);
  // (0.5*0.9 + 0.5*0.2, 0.5*0.1 + 0.5*0.8) = (0.55, 0.45), normalized.
  EXPECT_NEAR(out[0], 0.55f, 1e-6f);
  EXPECT_NEAR(out[1], 0.45f, 1e-6f);
}

TEST(Belief, DiffusionMatrixRowsNormalized) {
  const auto j = JointMatrix::diffusion(5, 0.6f);
  for (std::uint32_t r = 0; r < 5; ++r) {
    float sum = 0;
    for (std::uint32_t c = 0; c < 5; ++c) sum += j.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
    EXPECT_FLOAT_EQ(j.at(r, r), 0.6f);
  }
}

// ---------------------------------------------------------------------------
// CSR
// ---------------------------------------------------------------------------

TEST(Csr, ByTargetAndSourceAgreeWithEdgeList) {
  const std::vector<DirectedEdge> edges = {
      {0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}, {3, 0}, {0, 3}};
  const auto in = Csr::by_target(4, edges);
  const auto out = Csr::by_source(4, edges);
  EXPECT_EQ(in.num_entries(), edges.size());
  EXPECT_EQ(out.num_entries(), edges.size());
  // Every edge appears exactly once in each orientation.
  std::multiset<std::pair<NodeId, NodeId>> from_in;
  for (NodeId v = 0; v < 4; ++v) {
    for (const auto& e : in.neighbors(v)) {
      from_in.insert({e.node, v});  // (src, dst)
      EXPECT_EQ(edges[e.edge].src, e.node);
      EXPECT_EQ(edges[e.edge].dst, v);
    }
  }
  std::multiset<std::pair<NodeId, NodeId>> expected;
  for (const auto& e : edges) expected.insert({e.src, e.dst});
  EXPECT_EQ(from_in, expected);
  // Degrees.
  EXPECT_EQ(in.degree(0), 3u);
  EXPECT_EQ(out.degree(0), 3u);
  EXPECT_EQ(in.degree(3), 1u);
}

TEST(Csr, RejectsOutOfRangeEndpoint) {
  const std::vector<DirectedEdge> edges = {{0, 5}};
  EXPECT_THROW(Csr::by_target(2, edges), std::logic_error);
}

TEST(Csr, EmptyGraph) {
  const auto csr = Csr::by_target(3, {});
  EXPECT_EQ(csr.num_entries(), 0u);
  EXPECT_EQ(csr.degree(0), 0u);
  EXPECT_TRUE(csr.neighbors(1).empty());
}

// ---------------------------------------------------------------------------
// Builder / FactorGraph
// ---------------------------------------------------------------------------

TEST(Builder, BuildsConsistentGraph) {
  GraphBuilder b;
  const auto n0 = b.add_node(BeliefVec::uniform(2), "a");
  const auto n1 = b.add_node(BeliefVec::uniform(2), "b");
  const auto j = JointMatrix::diffusion(2, 0.7f);
  b.add_undirected(n0, n1, j);
  const auto g = b.finalize();
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.names().at(0), "a");
  EXPECT_EQ(g.in_csr().degree(0), 1u);
  EXPECT_FALSE(g.joints().is_shared());
}

TEST(Builder, EdgesSortedBySourceAfterFinalize) {
  graph::BeliefConfig cfg;
  cfg.seed = 3;
  const auto g = uniform_random(50, 200, cfg);
  for (EdgeId e = 1; e < g.num_edges(); ++e) {
    EXPECT_LE(g.edge(e - 1).src, g.edge(e).src);
  }
}

TEST(Builder, PerEdgeMatricesFollowTheSort) {
  // Give each edge a unique matrix keyed by its endpoints; after finalize
  // the matrix must still describe its edge.
  GraphBuilder b;
  for (int i = 0; i < 6; ++i) b.add_node(BeliefVec::uniform(2));
  util::Prng rng(4);
  std::vector<std::pair<NodeId, NodeId>> pairs = {
      {5, 0}, {2, 4}, {0, 3}, {1, 2}};
  for (const auto& [u, v] : pairs) {
    JointMatrix j(2, 2);
    j.at(0, 0) = static_cast<float>(u);
    j.at(0, 1) = static_cast<float>(v);
    j.at(1, 0) = 1;
    j.at(1, 1) = 1;
    b.add_edge(u, v, j);
  }
  const auto g = b.finalize();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_FLOAT_EQ(g.joints().at(e).at(0, 0),
                    static_cast<float>(g.edge(e).src));
    EXPECT_FLOAT_EQ(g.joints().at(e).at(0, 1),
                    static_cast<float>(g.edge(e).dst));
  }
}

TEST(Builder, FinalizeKeepsInsertionOrderWithinEachSource) {
  // Sources interleaved, node 2 without out-edges; each matrix carries its
  // edge's insertion index. finalize() orders edges by source, keeps
  // insertion order within each source, and moves each matrix with its
  // edge.
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.add_node(BeliefVec::uniform(2));
  const std::pair<NodeId, NodeId> pairs[] = {{3, 0}, {1, 4}, {3, 2},
                                             {0, 1}, {1, 0}, {4, 3},
                                             {3, 1}, {0, 4}, {1, 2}};
  for (std::size_t i = 0; i < std::size(pairs); ++i) {
    JointMatrix j(2, 2);
    j.at(0, 0) = static_cast<float>(i);
    j.at(0, 1) = j.at(1, 0) = j.at(1, 1) = 1;
    b.add_edge(pairs[i].first, pairs[i].second, j);
  }
  const auto g = b.finalize();
  ASSERT_EQ(g.num_edges(), std::size(pairs));
  std::set<std::size_t> tags;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto tag = static_cast<std::size_t>(g.joints().at(e).at(0, 0));
    ASSERT_LT(tag, std::size(pairs));
    tags.insert(tag);
    EXPECT_EQ(g.edge(e).src, pairs[tag].first) << "edge " << e;
    EXPECT_EQ(g.edge(e).dst, pairs[tag].second) << "edge " << e;
    if (e == 0) continue;
    const auto prev_tag =
        static_cast<std::size_t>(g.joints().at(e - 1).at(0, 0));
    EXPECT_LE(g.edge(e - 1).src, g.edge(e).src) << "edge " << e;
    if (g.edge(e - 1).src == g.edge(e).src) {
      EXPECT_LT(prev_tag, tag) << "edge " << e;
    }
  }
  EXPECT_EQ(tags.size(), std::size(pairs));
}

TEST(Builder, SharedJointModeRejectsPerEdgeMatrix) {
  GraphBuilder b;
  b.use_shared_joint(JointMatrix::diffusion(2, 0.7f));
  b.add_node(BeliefVec::uniform(2));
  b.add_node(BeliefVec::uniform(2));
  EXPECT_THROW(b.add_edge(0, 1, JointMatrix::diffusion(2, 0.5f)),
               std::logic_error);
}

TEST(Builder, RejectsArityMismatch) {
  GraphBuilder b;
  b.add_node(BeliefVec::uniform(2));
  b.add_node(BeliefVec::uniform(3));
  EXPECT_THROW(b.add_edge(0, 1, JointMatrix::diffusion(2, 0.7f)),
               util::InvalidArgument);
}

TEST(Builder, MixedAritiesWithRectangularMatrix) {
  GraphBuilder b;
  b.add_node(BeliefVec::uniform(2));
  b.add_node(BeliefVec::uniform(3));
  JointMatrix j(2, 3);
  for (std::uint32_t r = 0; r < 2; ++r) {
    for (std::uint32_t c = 0; c < 3; ++c) j.at(r, c) = 1.0f / 3;
  }
  b.add_undirected(0, 1, j);
  const auto g = b.finalize();
  EXPECT_EQ(g.arity(0), 2u);
  EXPECT_EQ(g.arity(1), 3u);
  // Reverse direction got the transpose.
  for (EdgeId e = 0; e < 2; ++e) {
    const auto& m = g.joints().at(e);
    EXPECT_EQ(m.rows, g.arity(g.edge(e).src));
    EXPECT_EQ(m.cols, g.arity(g.edge(e).dst));
  }
}

TEST(Builder, ObserveFixesPrior) {
  GraphBuilder b;
  b.add_node(BeliefVec::uniform(2));
  b.observe(0, 1);
  const auto g = b.finalize();
  EXPECT_TRUE(g.observed(0));
  EXPECT_FLOAT_EQ(g.prior(0)[1], 1.0f);
}

TEST(FactorGraph, MemoryBytesTracksJointMode) {
  graph::BeliefConfig cfg;
  cfg.seed = 6;
  cfg.shared_joint = true;
  const auto shared = uniform_random(100, 400, cfg);
  cfg.shared_joint = false;
  const auto per_edge = uniform_random(100, 400, cfg);
  EXPECT_GT(per_edge.memory_bytes(), shared.memory_bytes());
  EXPECT_GT(static_cast<double>(per_edge.joints().payload_bytes()),
            700 * sizeof(JointMatrix) * 0.9);
}

// ---------------------------------------------------------------------------
// Belief stores
// ---------------------------------------------------------------------------

TEST(BeliefStore, RoundTripBothLayouts) {
  for (const auto layout : {BeliefLayout::kAos, BeliefLayout::kSoa}) {
    const auto store = make_belief_store(layout, 10, 3);
    BeliefVec b;
    b.size = 3;
    b[0] = 0.2f;
    b[1] = 0.3f;
    b[2] = 0.5f;
    store->set(7, b);
    BeliefVec out;
    store->get(7, out);
    EXPECT_EQ(out.size, 3u);
    EXPECT_FLOAT_EQ(out[0], 0.2f);
    EXPECT_FLOAT_EQ(out[2], 0.5f);
    // Untouched nodes stay uniform.
    store->get(3, out);
    EXPECT_FLOAT_EQ(out[0], 1.0f / 3);
  }
}

TEST(BeliefStore, AccessRangeShapesDiffer) {
  const auto aos = make_belief_store(BeliefLayout::kAos, 4, 2);
  const auto soa = make_belief_store(BeliefLayout::kSoa, 4, 2);
  int aos_ranges = 0;
  int soa_ranges = 0;
  aos->access_ranges(1, [&](MemRange) { ++aos_ranges; });
  soa->access_ranges(1, [&](MemRange) { ++soa_ranges; });
  // The §3.4 asymmetry: AoS touches one range, SoA touches two.
  EXPECT_EQ(aos_ranges, 1);
  EXPECT_EQ(soa_ranges, 2);
}

// ---------------------------------------------------------------------------
// Generators (parameterized across families)
// ---------------------------------------------------------------------------

struct GenCase {
  const char* name;
  FactorGraph (*make)(std::uint64_t seed);
};

FactorGraph gen_uniform(std::uint64_t seed) {
  BeliefConfig cfg;
  cfg.seed = seed;
  return uniform_random(200, 800, cfg);
}
FactorGraph gen_rmat(std::uint64_t seed) {
  BeliefConfig cfg;
  cfg.seed = seed;
  return rmat(8, 800, cfg);
}
FactorGraph gen_social(std::uint64_t seed) {
  BeliefConfig cfg;
  cfg.seed = seed;
  return preferential_attachment(200, 4, cfg);
}
FactorGraph gen_tree(std::uint64_t seed) {
  BeliefConfig cfg;
  cfg.seed = seed;
  return random_tree(200, cfg);
}
FactorGraph gen_grid(std::uint64_t seed) {
  BeliefConfig cfg;
  cfg.seed = seed;
  return grid(14, 14, cfg);
}

class GeneratorTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorTest, DeterministicForSameSeed) {
  const auto a = GetParam().make(42);
  const auto b = GetParam().make(42);
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).src, b.edge(e).src);
    EXPECT_EQ(a.edge(e).dst, b.edge(e).dst);
  }
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(l1_diff(a.prior(v), b.prior(v)), 0.0f);
  }
}

TEST_P(GeneratorTest, DifferentSeedsDiffer) {
  const auto a = GetParam().make(1);
  const auto b = GetParam().make(2);
  // Structure differs for the random families; the grid's lattice is
  // fixed, so the randomized beliefs must differ instead.
  bool differs = a.num_edges() != b.num_edges();
  for (EdgeId e = 0; !differs && e < a.num_edges(); ++e) {
    differs = a.edge(e).src != b.edge(e).src ||
              a.edge(e).dst != b.edge(e).dst;
  }
  for (NodeId v = 0; !differs && v < a.num_nodes(); ++v) {
    differs = l1_diff(a.prior(v), b.prior(v)) > 0.0f;
  }
  EXPECT_TRUE(differs);
}

TEST_P(GeneratorTest, UndirectedPairing) {
  // Every directed edge has its reverse (MRF expansion, §3.3).
  const auto g = GetParam().make(7);
  std::multiset<std::pair<NodeId, NodeId>> fwd;
  std::multiset<std::pair<NodeId, NodeId>> rev;
  for (const auto& e : g.edges()) {
    fwd.insert({e.src, e.dst});
    rev.insert({e.dst, e.src});
  }
  EXPECT_EQ(fwd, rev);
}

TEST_P(GeneratorTest, PriorsAreNormalized) {
  const auto g = GetParam().make(5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    float sum = 0;
    for (std::uint32_t s = 0; s < g.arity(v); ++s) sum += g.prior(v)[s];
    ASSERT_NEAR(sum, 1.0f, 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratorTest,
    ::testing::Values(GenCase{"uniform", gen_uniform},
                      GenCase{"rmat", gen_rmat},
                      GenCase{"social", gen_social},
                      GenCase{"tree", gen_tree},
                      GenCase{"grid", gen_grid}),
    [](const ::testing::TestParamInfo<GenCase>& info) {
      return info.param.name;
    });

TEST(Generators, TreeIsAcyclic) {
  BeliefConfig cfg;
  cfg.seed = 8;
  const auto g = random_tree(100, cfg);
  // A tree on n nodes has exactly n-1 undirected edges.
  EXPECT_EQ(g.num_edges(), 2u * 99u);
}

TEST(Generators, GridHasLatticeEdgeCount) {
  BeliefConfig cfg;
  const auto g = grid(5, 4, cfg);
  EXPECT_EQ(g.num_nodes(), 20u);
  // 4*(5-1) horizontal + 5*(4-1) vertical = 31 undirected.
  EXPECT_EQ(g.num_edges(), 2u * 31u);
}

TEST(Generators, SocialGraphIsHeavyTailed) {
  BeliefConfig cfg;
  cfg.seed = 10;
  const auto g = preferential_attachment(2000, 4, cfg);
  const auto md = compute_metadata(g);
  // Hubs should far exceed the average degree.
  EXPECT_GT(md.max_in_degree, 5 * md.avg_in_degree);
}

TEST(Generators, ObservedFractionApproximatelyHonored) {
  BeliefConfig cfg;
  cfg.observed_fraction = 0.2;
  cfg.seed = 11;
  const auto g = uniform_random(2000, 4000, cfg);
  int observed = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) observed += g.observed(v);
  EXPECT_NEAR(observed / 2000.0, 0.2, 0.05);
}

// ---------------------------------------------------------------------------
// Metadata
// ---------------------------------------------------------------------------

TEST(Metadata, FeaturesMatchDefinition) {
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.add_node(BeliefVec::uniform(3));
  const auto j = JointMatrix::diffusion(3, 0.7f);
  // Star centered on 0 (undirected): in-degree of 0 is 3.
  b.add_undirected(0, 1, j);
  b.add_undirected(0, 2, j);
  b.add_undirected(0, 3, j);
  const auto g = b.finalize();
  const auto md = compute_metadata(g);
  EXPECT_EQ(md.num_nodes, 4u);
  EXPECT_EQ(md.num_directed_edges, 6u);
  EXPECT_EQ(md.beliefs, 3u);
  EXPECT_EQ(md.max_in_degree, 3u);
  EXPECT_EQ(md.max_out_degree, 3u);
  EXPECT_DOUBLE_EQ(md.degree_imbalance(), 1.0);
  EXPECT_DOUBLE_EQ(md.nodes_to_edges_ratio(), 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(md.skew(), (6.0 / 4.0) / 3.0);
  const auto f = md.features();
  EXPECT_DOUBLE_EQ(f[0], 4.0);
  EXPECT_DOUBLE_EQ(f[2], 3.0);
}

TEST(Metadata, EmptyGraphIsSafe) {
  const FactorGraph g;
  const auto md = compute_metadata(g);
  EXPECT_EQ(md.num_nodes, 0u);
  EXPECT_DOUBLE_EQ(md.skew(), 0.0);
  EXPECT_DOUBLE_EQ(md.degree_imbalance(), 0.0);
}

}  // namespace
}  // namespace credo::graph
