// Tests for the dynamic-graph subsystem (DESIGN.md §5j): the slack-slotted
// MutableCsr, GraphDelta validation through DynamicGraph::apply, mutation
// round trips back to the original topology, permutation validity across
// compactions, frontier-seeded incremental re-convergence agreeing with a
// full rebuild across the scheduling paradigms, and the serve layer's
// version-bumped snapshots, warm migration, and mutate-while-query stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bp/engine.h"
#include "graph/delta.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "graph/mutable_csr.h"
#include "io/mtx_belief.h"
#include "serve/server.h"
#include "serve/stress.h"

namespace credo::graph {
namespace {

// ---------------------------------------------------------------------------
// MutableCsr
// ---------------------------------------------------------------------------

std::vector<DirectedEdge> chain_edges(NodeId n) {
  std::vector<DirectedEdge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) {
    edges.push_back({v, static_cast<NodeId>(v + 1)});
    edges.push_back({static_cast<NodeId>(v + 1), v});
  }
  return edges;
}

TEST(MutableCsr, BuildMatchesDenseCsrRowByRow) {
  const auto edges = chain_edges(6);
  const auto mcsr = MutableCsr::build(6, edges, /*by_source=*/true, 2);
  const auto dense = Csr::by_source(6, edges);
  ASSERT_EQ(mcsr.num_rows(), 6u);
  EXPECT_EQ(mcsr.num_entries(), edges.size());
  for (NodeId r = 0; r < 6; ++r) {
    const auto row = mcsr.row(r);
    const auto ref = dense.neighbors(r);
    ASSERT_EQ(row.size(), ref.size()) << "row " << r;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].node, ref[i].node);
      EXPECT_EQ(row[i].edge, ref[i].edge);
    }
  }
  EXPECT_DOUBLE_EQ(mcsr.dead_fraction(), 0.0);
}

TEST(MutableCsr, InsertsUseSlackThenRelocate) {
  const auto edges = chain_edges(4);
  auto mcsr = MutableCsr::build(4, edges, /*by_source=*/true, 1);
  const auto before = mcsr.arena_slots();
  // Row 1 has degree 2 and slack 1: the first insert is in place...
  mcsr.add(1, {3, 100});
  EXPECT_EQ(mcsr.arena_slots(), before);
  EXPECT_DOUBLE_EQ(mcsr.dead_fraction(), 0.0);
  // ...the second relocates the row and abandons its old segment.
  mcsr.add(1, {0, 101});
  EXPECT_GT(mcsr.arena_slots(), before);
  EXPECT_GT(mcsr.dead_fraction(), 0.0);
  EXPECT_EQ(mcsr.degree(1), 4u);
  // Insertion order survives the relocation.
  const auto row = mcsr.row(1);
  EXPECT_EQ(row[2].edge, 100u);
  EXPECT_EQ(row[3].edge, 101u);
}

TEST(MutableCsr, RemoveSwapsWithLastAndCompactReclaims) {
  const auto edges = chain_edges(4);
  auto mcsr = MutableCsr::build(4, edges, /*by_source=*/true, 0);
  // Row 1: entries for nodes 0 and 2.
  ASSERT_EQ(mcsr.degree(1), 2u);
  const EdgeId victim = mcsr.row(1)[0].edge;
  EXPECT_TRUE(mcsr.remove(1, victim));
  EXPECT_FALSE(mcsr.remove(1, victim)) << "double remove must report false";
  EXPECT_EQ(mcsr.degree(1), 1u);
  EXPECT_TRUE(mcsr.contains(1, 2));
  EXPECT_FALSE(mcsr.contains(1, 0));

  // Force relocations, then compact: dead space drops to zero and the
  // snapshot walk sees exactly the live entries.
  mcsr.add(0, {2, 50});
  mcsr.add(0, {3, 51});
  EXPECT_GT(mcsr.dead_fraction(), 0.0);
  mcsr.compact(1);
  EXPECT_DOUBLE_EQ(mcsr.dead_fraction(), 0.0);

  std::vector<std::uint64_t> offsets;
  std::vector<MutableCsr::Entry> entries;
  mcsr.snapshot(offsets, entries);
  ASSERT_EQ(offsets.size(), 5u);
  EXPECT_EQ(entries.size(), mcsr.num_entries());
  EXPECT_EQ(offsets[4], entries.size());
  // Row 0 kept insertion order: original chain entry, then the two adds.
  EXPECT_EQ(entries[offsets[0] + 1].edge, 50u);
  EXPECT_EQ(entries[offsets[0] + 2].edge, 51u);
}

// ---------------------------------------------------------------------------
// GraphDelta validation (through DynamicGraph::apply — atomicity included)
// ---------------------------------------------------------------------------

FactorGraph test_grid(std::uint32_t side = 8, std::uint32_t beliefs = 2) {
  BeliefConfig cfg;
  cfg.beliefs = beliefs;
  cfg.seed = 11;
  cfg.observed_fraction = 0.1;
  // Per-edge joint store: the mutation tests below exercise the
  // matrix-carrying add_edge/set_potential forms.
  cfg.shared_joint = false;
  return grid(side, side, cfg);
}

bp::BpOptions test_options() {
  return bp::BpOptions{}.with_max_iterations(80).with_convergence_threshold(
      1e-3f);
}

TEST(GraphDelta, RejectsInvalidBatchesAtomically) {
  const auto g = test_grid();
  auto dyn = DynamicGraph::from_graph(g, DynamicOptions{});
  const std::uint64_t v0 = dyn.version();
  const auto m = JointMatrix::diffusion(2, 0.8f);

  const auto rejected = [&](const GraphDelta& d) {
    const util::Status s = dyn.apply(d);
    EXPECT_FALSE(s.is_ok());
    // Atomic: a rejected batch changes nothing.
    EXPECT_EQ(dyn.version(), v0);
    EXPECT_EQ(dyn.num_edges(), g.num_edges());
    return s;
  };

  // Out-of-range and pending ids.
  rejected(GraphDelta{}.observe(g.num_nodes(), 0));
  rejected(GraphDelta{}.add_edge(GraphDelta::new_node(0), 1, m));

  // Edge preconditions: self-loop, duplicate, absent removal.
  rejected(GraphDelta{}.add_edge(3, 3, m));
  ASSERT_TRUE(dyn.has_edge(0, 1));
  rejected(GraphDelta{}.add_edge(0, 1, m));
  ASSERT_FALSE(dyn.has_edge(0, 9));
  rejected(GraphDelta{}.remove_edge(0, 9));

  // Matrix discipline: per-edge graphs need a matrix of the right shape.
  rejected(GraphDelta{}.add_edge(0, 9));
  rejected(GraphDelta{}.add_edge(0, 9, JointMatrix::diffusion(3, 0.8f)));

  // Evidence discipline: set_prior on an observed node is rejected (the
  // same rule the ephemeral EvidenceDelta path enforces).
  NodeId obs_node = 0;
  while (!g.observed(obs_node)) ++obs_node;
  rejected(GraphDelta{}.set_prior(obs_node, BeliefVec::uniform(2)));

  // Removed-node discipline, via an accepted removal first.
  NodeId victim = 0;
  while (g.observed(victim)) ++victim;
  ASSERT_TRUE(dyn.apply(GraphDelta{}.remove_node(victim)).is_ok());
  const std::uint64_t v1 = dyn.version();
  EXPECT_EQ(v1, v0 + 1);
  const auto expect_rejected_now = [&](const GraphDelta& d) {
    EXPECT_FALSE(dyn.apply(d).is_ok());
    EXPECT_EQ(dyn.version(), v1);
  };
  expect_rejected_now(GraphDelta{}.remove_node(victim));
  expect_rejected_now(GraphDelta{}.observe(victim, 0));
  NodeId other = 0;
  while (other == victim || dyn.removed(other)) ++other;
  expect_rejected_now(GraphDelta{}.add_edge(victim, other, m));

  // A batch whose LAST op is invalid must also leave no trace of the
  // earlier valid ops (validate-then-apply, not apply-and-unwind).
  GraphDelta half_good;
  half_good.add_node(BeliefVec::uniform(2))
      .add_edge(GraphDelta::new_node(0), other, m)
      .remove_edge(0, 9);  // absent
  const NodeId n_before = dyn.num_nodes();
  EXPECT_FALSE(dyn.apply(half_good).is_ok());
  EXPECT_EQ(dyn.num_nodes(), n_before);
  EXPECT_EQ(dyn.version(), v1);
}

TEST(GraphDelta, WithDeltaAppliesEvidenceAndRejectsTopology) {
  const auto g = test_grid();
  NodeId unobs = 0;
  while (g.observed(unobs)) ++unobs;

  GraphDelta evidence;
  evidence.observe(unobs, 1);
  const FactorGraph overlaid = with_delta(g, evidence);
  EXPECT_TRUE(overlaid.observed(unobs));
  EXPECT_EQ(evidence.touched(), std::vector<NodeId>{unobs});

  GraphDelta topo;
  topo.add_node(BeliefVec::uniform(2));
  EXPECT_TRUE(topo.has_topology());
  EXPECT_FALSE(evidence.has_topology());
  EXPECT_THROW((void)with_delta(g, topo), util::InvalidArgument);

  // Fingerprints key warm state: op content must matter, op count alone
  // must not.
  GraphDelta a, b, c;
  a.observe(unobs, 1);
  b.observe(unobs, 1);
  c.observe(unobs, 0);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

// ---------------------------------------------------------------------------
// Mutation round trips and snapshots
// ---------------------------------------------------------------------------

TEST(DynamicGraph, InsertThenRemoveRoundTripsToIsomorphicGraph) {
  const auto g = test_grid();
  auto dyn = DynamicGraph::from_graph(g, DynamicOptions{});
  const auto opts = test_options();
  const auto engine = bp::make_default_engine(bp::EngineKind::kCpuNode);
  const auto reference = engine->run(g, opts);

  // Grow a node wired to node 5, plus an extra edge between two existing
  // nodes; then undo all of it.
  const auto m = JointMatrix::diffusion(2, 0.8f);
  NodeId u = 20, v = 40;
  ASSERT_FALSE(dyn.has_edge(u, v));
  GraphDelta grow;
  grow.add_node(BeliefVec::uniform(2))
      .add_edge(GraphDelta::new_node(0), 5, m)
      .add_edge(u, v, m);
  ASSERT_TRUE(dyn.apply(grow).is_ok());
  const NodeId fresh = g.num_nodes();
  EXPECT_EQ(dyn.num_nodes(), fresh + 1);
  EXPECT_EQ(dyn.num_edges(), g.num_edges() + 4);
  EXPECT_TRUE(dyn.has_edge(fresh, 5));
  // last_touched covers the resolved new id and every named endpoint.
  const auto& touched = dyn.last_touched();
  EXPECT_TRUE(std::find(touched.begin(), touched.end(), fresh) !=
              touched.end());
  EXPECT_TRUE(std::find(touched.begin(), touched.end(), u) != touched.end());

  GraphDelta undo;
  undo.remove_edge(u, v).remove_node(fresh);
  ASSERT_TRUE(dyn.apply(undo).is_ok());
  EXPECT_EQ(dyn.num_edges(), g.num_edges());
  EXPECT_FALSE(dyn.has_edge(u, v));
  EXPECT_TRUE(dyn.removed(fresh));
  // The retired node's former neighbor is in the frontier even though no
  // op named it.
  const auto& touched2 = dyn.last_touched();
  EXPECT_TRUE(std::find(touched2.begin(), touched2.end(), 5) !=
              touched2.end());

  // The snapshot is the original topology plus one isolated zombie row:
  // same edges in the same canonical order, bit-identical beliefs on
  // every original node.
  const auto snap = dyn.snapshot();
  ASSERT_EQ(snap->num_nodes(), fresh + 1);
  ASSERT_EQ(snap->num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(snap->edge(e).src, g.edge(e).src);
    EXPECT_EQ(snap->edge(e).dst, g.edge(e).dst);
  }
  EXPECT_TRUE(snap->observed(fresh)) << "zombies are pinned";
  const auto round_trip = engine->run(*snap, opts);
  EXPECT_EQ(round_trip.stats.iterations, reference.stats.iterations);
  for (NodeId w = 0; w < g.num_nodes(); ++w) {
    for (std::uint32_t s = 0; s < g.arity(w); ++s) {
      ASSERT_EQ(round_trip.beliefs[w][s], reference.beliefs[w][s])
          << "node " << w << " state " << s;
    }
  }
}

TEST(DynamicGraph, PermutationStaysValidAcrossCompactions) {
  // Under a reorder mode the snapshot carries the cached permutation; after
  // mutations and a forced compaction (which recomputes it) the engine
  // must still un-permute to correct original-id beliefs. Reference: the
  // same mutation stream on an unordered twin, 1e-5 tolerance (the
  // test_reorder precedent for cross-ordering float drift).
  const auto g = test_grid(10);
  DynamicOptions ordered;
  ordered.reorder = ReorderMode::kRcm;
  auto dyn = DynamicGraph::from_graph(g, ordered);
  auto twin = DynamicGraph::from_graph(g, DynamicOptions{});

  const auto m = JointMatrix::diffusion(2, 0.8f);
  for (int b = 0; b < 6; ++b) {
    GraphDelta d;
    d.add_node(BeliefVec::uniform(2));
    d.add_edge(GraphDelta::new_node(0),
               static_cast<NodeId>((17 * b + 3) % g.num_nodes()), m);
    const NodeId u = static_cast<NodeId>((13 * b + 1) % g.num_nodes());
    const NodeId v = static_cast<NodeId>((29 * b + 57) % g.num_nodes());
    if (u != v && !dyn.has_edge(u, v)) d.add_edge(u, v, m);
    ASSERT_TRUE(dyn.apply(d).is_ok());
    ASSERT_TRUE(twin.apply(d).is_ok());
  }
  dyn.compact();
  EXPECT_GE(dyn.compactions(), 1u);
  EXPECT_DOUBLE_EQ(dyn.dead_fraction(), 0.0);

  const auto snap = dyn.snapshot();
  ASSERT_NE(snap->permutation(), nullptr);
  EXPECT_EQ(snap->reorder_mode(), ReorderMode::kRcm);
  ASSERT_EQ(snap->num_nodes(), twin.snapshot()->num_nodes());

  // Run both orderings to a much tighter threshold than the 1e-5
  // comparison: the schedules visit edges in different orders, so each
  // stops at a slightly different point of the same basin; the slack
  // between stop threshold and comparison tolerance absorbs that.
  const auto opts = bp::BpOptions{}
                        .with_max_iterations(500)
                        .with_convergence_threshold(1e-6f)
                        .with_queue_threshold(1e-8f);
  const auto engine = bp::make_default_engine(bp::EngineKind::kCpuNode);
  const auto got = engine->run(*snap, opts);
  const auto want = engine->run(*twin.snapshot(), opts);
  ASSERT_EQ(got.beliefs.size(), want.beliefs.size());
  for (NodeId v = 0; v < snap->num_nodes(); ++v) {
    for (std::uint32_t s = 0; s < got.beliefs[v].size; ++s) {
      EXPECT_NEAR(got.beliefs[v][s], want.beliefs[v][s], 1e-5f)
          << "node " << v << " state " << s;
    }
  }
}

TEST(DynamicGraph, SnapshotRightAfterNodeGrowthUnderReorder) {
  // A node-adding delta under a reorder mode, snapshot taken straight away
  // (no compaction in between): the cached permutation must cover the new
  // node, and the engine must un-permute to the unordered twin's beliefs.
  BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 11;
  cfg.observed_fraction = 0.1;
  const auto g = grid(10, 10, cfg);
  ASSERT_TRUE(g.joints().is_shared());
  DynamicOptions ordered;
  ordered.reorder = ReorderMode::kBfs;
  auto dyn = DynamicGraph::from_graph(g, ordered);
  auto twin = DynamicGraph::from_graph(g, DynamicOptions{});

  GraphDelta d;
  d.add_node(BeliefVec::uniform(2)).add_edge(GraphDelta::new_node(0), 37);
  ASSERT_TRUE(dyn.apply(d).is_ok());
  ASSERT_TRUE(twin.apply(d).is_ok());
  EXPECT_EQ(dyn.compactions(), 0u);

  std::shared_ptr<const FactorGraph> snap;
  ASSERT_NO_THROW(snap = dyn.snapshot());
  ASSERT_NE(snap->permutation(), nullptr);
  EXPECT_EQ(snap->permutation()->size(), g.num_nodes() + 1);

  const auto opts = bp::BpOptions{}
                        .with_max_iterations(500)
                        .with_convergence_threshold(1e-6f)
                        .with_queue_threshold(1e-8f);
  const auto engine = bp::make_default_engine(bp::EngineKind::kCpuNode);
  const auto got = engine->run(*snap, opts);
  const auto want = engine->run(*twin.snapshot(), opts);
  ASSERT_EQ(got.beliefs.size(), want.beliefs.size());
  for (NodeId v = 0; v < snap->num_nodes(); ++v) {
    for (std::uint32_t s = 0; s < got.beliefs[v].size; ++s) {
      EXPECT_NEAR(got.beliefs[v][s], want.beliefs[v][s], 1e-5f)
          << "node " << v << " state " << s;
    }
  }
}

TEST(DynamicGraph, DeadFractionTriggersAutomaticCompaction) {
  // Tiny slack plus repeated inserts on the same rows forces relocations
  // past the dead-fraction threshold; apply() must compact on its own.
  const auto g = test_grid(4);
  DynamicOptions opts;
  opts.row_slack = 0;
  opts.compact_dead_fraction = 0.1;
  auto dyn = DynamicGraph::from_graph(g, opts);
  const auto m = JointMatrix::diffusion(2, 0.8f);
  for (int b = 0; b < 12; ++b) {
    GraphDelta d;
    d.add_node(BeliefVec::uniform(2));
    d.add_edge(GraphDelta::new_node(0),
               static_cast<NodeId>(b % g.num_nodes()), m);
    ASSERT_TRUE(dyn.apply(d).is_ok());
    ASSERT_LE(dyn.dead_fraction(), opts.compact_dead_fraction);
  }
  EXPECT_GE(dyn.compactions(), 1u);
}

// ---------------------------------------------------------------------------
// Incremental re-convergence vs full rebuild, across paradigms
// ---------------------------------------------------------------------------

TEST(DynamicGraph, ChurnAgreesWithRebuildAcrossEngines) {
  // Sequential frontier and bulk residual rounds: on each, a churn stream
  // applied incrementally (previous fixed point patched in, schedule
  // seeded from the touched frontier) must land on the fixed point a cold
  // run on the final topology finds.
  const auto opts = test_options().with_max_iterations(200);
  // Contractive regime (weak coupling, 20% evidence): loopy BP has one
  // fixed point here, so warm and cold schedules must meet at it. At
  // strong coupling the grid is multi-stable and the comparison would be
  // between two equally valid fixed points.
  BeliefConfig churn_cfg;
  churn_cfg.beliefs = 3;
  churn_cfg.seed = 11;
  churn_cfg.observed_fraction = 0.2;
  churn_cfg.coupling = 0.5f;
  churn_cfg.shared_joint = false;
  for (const bp::EngineKind kind :
       {bp::EngineKind::kCpuNode, bp::EngineKind::kBulkResidual}) {
    SCOPED_TRACE(std::string(bp::engine_slug(kind)));
    const auto g = grid(16, 16, churn_cfg);
    ASSERT_TRUE(bp::engine_supports_frontier_seed(kind, g.family()));
    auto dyn = DynamicGraph::from_graph(g, DynamicOptions{});
    const auto engine = bp::make_default_engine(kind);

    auto prev = engine->run(*dyn.snapshot(), opts).beliefs;
    const auto m = JointMatrix::diffusion(3, 0.8f);
    for (int b = 0; b < 5; ++b) {
      GraphDelta d;
      d.add_node(BeliefVec::uniform(3));
      d.add_edge(GraphDelta::new_node(0),
                 static_cast<NodeId>((41 * b + 7) % g.num_nodes()), m);
      NodeId nudge = static_cast<NodeId>((23 * b + 2) % g.num_nodes());
      while (dyn.observed(nudge)) nudge = (nudge + 1) % g.num_nodes();
      BeliefVec p = BeliefVec::uniform(3);
      p[b % 3] = 2.0f;
      normalize(p);
      d.set_prior(nudge, p);
      ASSERT_TRUE(dyn.apply(d).is_ok());

      auto ropts = opts;
      ropts.with_init_beliefs(
               std::make_shared<const std::vector<BeliefVec>>(
                   dyn.patch_beliefs(prev)))
          .with_frontier_seed(std::make_shared<const std::vector<NodeId>>(
              dyn.last_touched()));
      const auto inc = engine->run(*dyn.snapshot(), ropts);
      EXPECT_GT(inc.stats.frontier_seeded, 0u);
      EXPECT_LT(inc.stats.frontier_seeded, dyn.num_nodes());
      prev = inc.beliefs;
    }

    const auto cold = engine->run(*dyn.snapshot(), opts);
    ASSERT_EQ(prev.size(), cold.beliefs.size());
    for (NodeId v = 0; v < dyn.num_nodes(); ++v) {
      EXPECT_LT(l1_diff(prev[v], cold.beliefs[v]), 2e-2f) << "node " << v;
    }
  }
}

TEST(DynamicGraph, SharedJointGraphsGrowThroughMatrixFreeEdges) {
  // Generated graphs default to a shared joint store; there a delta may
  // not smuggle in a per-edge matrix (the store has nowhere to put it),
  // and the matrix-free add_edge reuses the shared table. The per-edge
  // form rejects the matrix-free spelling symmetrically.
  BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 11;
  cfg.observed_fraction = 0.1;
  const auto shared_g = grid(6, 6, cfg);
  ASSERT_TRUE(shared_g.joints().is_shared());
  auto dyn = DynamicGraph::from_graph(shared_g, DynamicOptions{});

  GraphDelta with_matrix;
  with_matrix.add_edge(0, 7, JointMatrix::diffusion(2, 0.8f));
  EXPECT_FALSE(dyn.apply(with_matrix).is_ok());

  GraphDelta free_form;
  free_form.add_node(BeliefVec::uniform(2))
      .add_edge(GraphDelta::new_node(0), 5)
      .add_edge(0, 7);
  ASSERT_TRUE(dyn.apply(free_form).is_ok());
  EXPECT_TRUE(dyn.has_edge(shared_g.num_nodes(), 5));
  EXPECT_TRUE(dyn.has_edge(0, 7));

  // The snapshot still carries the shared store and runs end-to-end.
  const auto snap = dyn.snapshot();
  EXPECT_TRUE(snap->joints().is_shared());
  const auto engine = bp::make_default_engine(bp::EngineKind::kCpuNode);
  const auto r = engine->run(*snap, test_options());
  EXPECT_TRUE(r.stats.converged);

  // Per-edge graphs reject the matrix-free form instead.
  auto per_edge = DynamicGraph::from_graph(test_grid(6), DynamicOptions{});
  GraphDelta no_matrix;
  no_matrix.add_edge(0, 7);
  EXPECT_FALSE(per_edge.apply(no_matrix).is_ok());
}

TEST(BpOptions, FrontierDampingAppliesOnlyWhileSeeded) {
  // The knob is a floor on damping during frontier-seeded runs; it must
  // not perturb cold runs, and an out-of-range value must not validate.
  EXPECT_FALSE(bp::BpOptions{}.with_frontier_damping(1.0f).validate_status().is_ok());
  EXPECT_TRUE(bp::BpOptions{}.with_frontier_damping(0.5f).validate_status().is_ok());

  const auto g = test_grid();
  const auto engine = bp::make_default_engine(bp::EngineKind::kCpuNode);
  const auto plain = engine->run(g, test_options());
  const auto with_knob =
      engine->run(g, test_options().with_frontier_damping(0.9f));
  // No frontier seed set: bit-identical to the plain run.
  EXPECT_EQ(plain.stats.iterations, with_knob.stats.iterations);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::uint32_t s = 0; s < g.arity(v); ++s) {
      ASSERT_EQ(plain.beliefs[v][s], with_knob.beliefs[v][s]);
    }
  }
}

// ---------------------------------------------------------------------------
// Header hygiene: EvidenceDelta is internal to graph/ now
// ---------------------------------------------------------------------------

TEST(HeaderHygiene, EvidenceDeltaStaysInsideGraphModule) {
  // Satellite of the §5j redesign: GraphDelta is the one delta vocabulary;
  // EvidenceDelta survives only as graph/'s internal evidence-application
  // engine. Any spelling of it outside src/graph reintroduces the split
  // API this PR removed.
  namespace fs = std::filesystem;
  const fs::path src = fs::path(CREDO_SOURCE_DIR) / "src";
  ASSERT_TRUE(fs::exists(src));
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cpp") continue;
    const auto rel = fs::relative(entry.path(), src).string();
    if (rel.rfind("graph/", 0) == 0) continue;
    std::ifstream in(entry.path());
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str().find("EvidenceDelta"), std::string::npos)
        << "EvidenceDelta referenced outside src/graph: " << rel;
  }
}

}  // namespace
}  // namespace credo::graph

// ---------------------------------------------------------------------------
// Serve integration: versioned snapshots, warm migration, churn stress
// ---------------------------------------------------------------------------

namespace credo::serve {
namespace {

std::pair<std::string, std::string> write_graph(
    const graph::FactorGraph& g, const std::string& name) {
  // Per-process directory: concurrent copies of this suite must not
  // overwrite each other's fixtures.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("credo_dynamic_ut_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / name).string();
  io::write_mtx_belief(g, prefix + "_nodes.mtx", prefix + "_edges.mtx");
  return {prefix + "_nodes.mtx", prefix + "_edges.mtx"};
}

ServerOptions plain_server(unsigned workers) {
  ServerOptions o;
  o.workers = workers;
  o.use_dispatcher = false;
  o.queue_capacity = 256;
  return o;
}

graph::FactorGraph serve_grid() {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 19;
  cfg.observed_fraction = 0.1;
  cfg.shared_joint = false;  // mutation deltas below carry edge matrices
  return graph::grid(8, 8, cfg);
}

bp::BpOptions serve_options() {
  return bp::BpOptions{}.with_max_iterations(80).with_convergence_threshold(
      1e-3f);
}

TEST(ServerMutation, TopologyDeltaBumpsVersionAndSupersedesParsedGraph) {
  const auto [nodes, edges] = write_graph(serve_grid(), "mutate_version");
  Server server(plain_server(1));
  const auto submit = [&](Request req) {
    return server.submit(std::move(req)).get();
  };
  const auto base = [&] {
    return Request{}
        .with_files(nodes, edges)
        .with_options(serve_options())
        .with_engine(bp::EngineKind::kCpuNode);
  };

  const Response before = submit(base());
  ASSERT_TRUE(before.ok()) << before.error;
  EXPECT_EQ(before.graph_version, 0u);
  const auto n0 = before.result.beliefs.size();

  graph::GraphDelta grow;
  grow.add_node(graph::BeliefVec::uniform(2))
      .add_edge(graph::GraphDelta::new_node(0), 5,
                graph::JointMatrix::diffusion(2, 0.8f));
  const Response mutated = submit(base().with_delta(grow));
  ASSERT_TRUE(mutated.ok()) << mutated.error;
  EXPECT_EQ(mutated.graph_version, 1u);
  EXPECT_EQ(mutated.result.beliefs.size(), n0 + 1);

  // A later plain request for the same files sees the mutated topology,
  // not a re-parse of the on-disk bytes.
  const Response after = submit(base());
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_EQ(after.graph_version, 1u);
  EXPECT_EQ(after.result.beliefs.size(), n0 + 1);

  server.shutdown();
  EXPECT_EQ(server.stats().mutations, 1u);
  EXPECT_EQ(server.stats().completed, 3u);
}

TEST(ServerMutation, NodeGrowthOnAReorderedKeySucceeds) {
  // A node-adding mutation on a reordered graph key: the mutated snapshot
  // is taken before any compaction, so the cached permutation must already
  // cover the new node.
  const auto [nodes, edges] = write_graph(serve_grid(), "mutate_reordered");
  Server server(plain_server(1));
  const auto request = [&] {
    return Request{}
        .with_graph(GraphKey::files(nodes, edges)
                        .with_reorder(graph::ReorderMode::kBfs))
        .with_options(serve_options())
        .with_engine(bp::EngineKind::kCpuNode);
  };
  const Response before = server.submit(request()).get();
  ASSERT_TRUE(before.ok()) << before.error;

  graph::GraphDelta grow;
  grow.add_node(graph::BeliefVec::uniform(2))
      .add_edge(graph::GraphDelta::new_node(0), 5,
                graph::JointMatrix::diffusion(2, 0.8f));
  const Response mutated = server.submit(request().with_delta(grow)).get();
  EXPECT_EQ(mutated.status, util::StatusCode::kOk) << mutated.error;
  EXPECT_EQ(mutated.graph_version, 1u);
  EXPECT_EQ(mutated.result.beliefs.size(), before.result.beliefs.size() + 1);
  server.shutdown();
}

TEST(ServerMutation, WarmStateMigratesAcrossTheVersionBump) {
  const auto [nodes, edges] = write_graph(serve_grid(), "mutate_warm");
  Server server(plain_server(1));
  const auto submit = [&](Request req) {
    return server.submit(std::move(req)).get();
  };
  const auto base = [&] {
    return Request{}
        .with_files(nodes, edges)
        .with_options(serve_options())
        .with_engine(bp::EngineKind::kCpuNode)
        .with_warm_start();
  };

  const Response cold = submit(base());
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.warm_start);

  // The mutation migrates the retained fixed point (touched region reset)
  // under the new versioned key: the post-mutation run is warm AND
  // frontier-seeded, and re-converges in fewer iterations than cold.
  graph::GraphDelta grow;
  grow.add_node(graph::BeliefVec::uniform(2))
      .add_edge(graph::GraphDelta::new_node(0), 9,
                graph::JointMatrix::diffusion(2, 0.8f));
  const Response mutated = submit(base().with_delta(grow));
  ASSERT_TRUE(mutated.ok()) << mutated.error;
  EXPECT_EQ(mutated.graph_version, 1u);
  EXPECT_TRUE(mutated.warm_start);
  EXPECT_GT(mutated.frontier_fraction, 0.0);
  EXPECT_LT(mutated.frontier_fraction, 1.0);
  EXPECT_LE(mutated.result.stats.iterations, cold.result.stats.iterations);

  // The stale pre-mutation warm entry must NOT overlay the new topology:
  // a repeat warm request resolves against the versioned key.
  const Response repeat = submit(base());
  ASSERT_TRUE(repeat.ok()) << repeat.error;
  EXPECT_EQ(repeat.graph_version, 1u);
  EXPECT_TRUE(repeat.warm_start);
  EXPECT_EQ(repeat.result.beliefs.size(), mutated.result.beliefs.size());
  server.shutdown();
}

TEST(ServerMutation, RejectsInlineGraphsAndInvalidDeltas) {
  const auto shared =
      std::make_shared<const graph::FactorGraph>(serve_grid());
  const auto [nodes, edges] = write_graph(serve_grid(), "mutate_invalid");
  Server server(plain_server(1));

  graph::GraphDelta topo;
  topo.add_node(graph::BeliefVec::uniform(2));

  // Inline graphs have no stable identity to version.
  const Response inline_resp =
      server.submit(Request{}
                        .with_preloaded(shared)
                        .with_options(serve_options())
                        .with_engine(bp::EngineKind::kCpuNode)
                        .with_delta(topo))
          .get();
  EXPECT_EQ(inline_resp.status, util::StatusCode::kInvalidArgument);

  // An invalid mutation fails cleanly and leaves the graph unversioned.
  graph::GraphDelta bad;
  bad.remove_edge(0, 0);
  const Response bad_resp =
      server.submit(Request{}
                        .with_files(nodes, edges)
                        .with_options(serve_options())
                        .with_engine(bp::EngineKind::kCpuNode)
                        .with_delta(bad))
          .get();
  EXPECT_EQ(bad_resp.status, util::StatusCode::kInvalidArgument);

  const Response plain = server
                             .submit(Request{}
                                         .with_files(nodes, edges)
                                         .with_options(serve_options())
                                         .with_engine(
                                             bp::EngineKind::kCpuNode))
                             .get();
  ASSERT_TRUE(plain.ok()) << plain.error;
  EXPECT_EQ(plain.graph_version, 0u);
  server.shutdown();
  EXPECT_EQ(server.stats().mutations, 0u);
  EXPECT_EQ(server.stats().failed, 2u);
  EXPECT_EQ(server.stats().submitted, server.stats().finished());
}

TEST(ServerMutation, ConcurrentChurnAndQueriesStayAccounted) {
  // Mutate-while-query under sanitizers: several sessions race topology
  // mutations against plain queries on the same graphs. Every request must
  // finish, none may fail, and the mutation counter must climb.
  const auto [n1, e1] = write_graph(serve_grid(), "churn_a");
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 23;
  cfg.observed_fraction = 0.1;
  cfg.shared_joint = false;
  const auto [n2, e2] =
      write_graph(graph::uniform_random(120, 360, cfg), "churn_b");

  auto sopts = plain_server(3);
  Server server(sopts);
  StressConfig stress;
  stress.graphs = {{n1, e1}, {n2, e2}};
  stress.requests = 48;
  stress.sessions = 4;
  stress.mix = {bp::EngineKind::kCpuNode, bp::EngineKind::kResidual};
  stress.options = serve_options();
  stress.warm = true;
  stress.churn_every = 4;
  stress.churn_edges = 2;
  stress.churn_seed = 5;
  const StressReport report = run_stress(server, stress);
  server.shutdown();

  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.finished());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.mutations, 0u);
  EXPECT_EQ(stats.completed, report.server.completed);
}

}  // namespace
}  // namespace credo::serve
