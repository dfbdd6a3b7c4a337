// Tests for the dynamic-graph subsystem (DESIGN.md §5j): GraphDelta
// validation through DynamicGraph::apply and with_delta (one pass),
// each version equal to the GraphBuilder graph of the same insertions,
// mutation round trips back to the original topology, a fresh permutation
// per version under a reorder mode, frontier-seeded incremental
// re-convergence agreeing with a full rebuild across the scheduling
// paradigms, and the serve layer's version-bumped snapshots, warm
// migration, and mutate-while-query stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bp/engine.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "io/mtx_belief.h"
#include "serve/server.h"
#include "serve/stress.h"
#include "util/prng.h"

namespace credo::graph {
namespace {

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
  auto dyn = DynamicGraph::from_graph(g);
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
  // same rule with_delta enforces).
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
  // earlier valid ops (the version is published only when all passed).
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
  std::vector<NodeId> touched;
  const FactorGraph overlaid = with_delta(g, evidence, &touched);
  EXPECT_TRUE(overlaid.observed(unobs));
  EXPECT_EQ(touched, std::vector<NodeId>{unobs});

  GraphDelta topo;
  topo.add_node(BeliefVec::uniform(2));
  EXPECT_TRUE(topo.has_topology());
  EXPECT_FALSE(evidence.has_topology());
  EXPECT_THROW((void)with_delta(g, topo), util::InvalidArgument);
}

TEST(GraphDelta, OneValidatorServesWithDeltaAndDynamicApply) {
  // with_delta on a BFS-reordered graph and DynamicGraph::apply run one
  // pass: every evidence violation fails both with the same message,
  // checked in original ids through the reordered graph's permutation.
  const auto g = test_grid();
  const FactorGraph ordered = reordered(g, ReorderMode::kBfs);
  ASSERT_NE(ordered.permutation(), nullptr);
  auto dyn = DynamicGraph::from_graph(g);
  NodeId pinned = 0;
  while (!g.observed(pinned)) ++pinned;
  NodeId loose = 0;
  while (g.observed(loose)) ++loose;

  const std::vector<GraphDelta> violations = {
      GraphDelta{}.observe(g.num_nodes(), 0),
      GraphDelta{}.set_prior(loose, BeliefVec::uniform(3)),
      GraphDelta{}.set_prior(pinned, BeliefVec::uniform(2)),
      GraphDelta{}.observe(loose, 1).set_prior(loose, BeliefVec::uniform(2)),
      GraphDelta{}.observe(loose, 2),
  };
  for (const GraphDelta& d : violations) {
    const util::Status s = dyn.apply(d);
    ASSERT_FALSE(s.is_ok());
    try {
      (void)with_delta(ordered, d);
      ADD_FAILURE() << "with_delta accepted: " << s.message();
    } catch (const util::InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()), s.message());
    }
  }
  EXPECT_EQ(dyn.version(), 0u);

  // A valid batch lands on the same nodes through either path.
  const GraphDelta ok = GraphDelta{}.observe(loose, 1).unobserve(pinned);
  ASSERT_TRUE(dyn.apply(ok).is_ok());
  const FactorGraph evidenced = with_delta(ordered, ok);
  const Permutation& perm = *evidenced.permutation();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId w = perm.to_new(v);
    ASSERT_EQ(evidenced.observed(w), dyn.observed(v)) << "node " << v;
    for (std::uint32_t k = 0; k < g.arity(v); ++k) {
      ASSERT_EQ(evidenced.prior(w)[k], dyn.snapshot()->prior(v)[k]);
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation round trips and snapshots
// ---------------------------------------------------------------------------

TEST(DynamicGraph, InsertThenRemoveRoundTripsToIsomorphicGraph) {
  const auto g = test_grid();
  auto dyn = DynamicGraph::from_graph(g);
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

JointMatrix asymmetric(float a, float b) {
  JointMatrix m(2, 2);
  m.at(0, 0) = a;
  m.at(0, 1) = 1.0f - a;
  m.at(1, 0) = b;
  m.at(1, 1) = 1.0f - b;
  return m;
}

void expect_same_graph(const FactorGraph& got, const FactorGraph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    ASSERT_EQ(got.observed(v), want.observed(v)) << "node " << v;
    ASSERT_EQ(got.arity(v), want.arity(v)) << "node " << v;
    for (std::uint32_t k = 0; k < want.arity(v); ++k) {
      ASSERT_EQ(got.prior(v)[k], want.prior(v)[k]) << "node " << v;
    }
  }
  for (EdgeId e = 0; e < want.num_edges(); ++e) {
    ASSERT_EQ(got.edge(e).src, want.edge(e).src) << "edge " << e;
    ASSERT_EQ(got.edge(e).dst, want.edge(e).dst) << "edge " << e;
    const JointMatrix& a = got.joints().at(e);
    const JointMatrix& b = want.joints().at(e);
    ASSERT_EQ(a.rows, b.rows);
    ASSERT_EQ(a.cols, b.cols);
    for (std::uint32_t i = 0; i < b.rows; ++i) {
      for (std::uint32_t j = 0; j < b.cols; ++j) {
        ASSERT_EQ(a.at(i, j), b.at(i, j)) << "edge " << e;
      }
    }
  }
}

/// The GraphBuilder input a DynamicGraph's current version must equal:
/// node priors and pins, retired flags, and the directed edge-insertion
/// sequence (survivors in order, each batch's additions appended).
struct Mirror {
  struct Insertion {
    DirectedEdge e;
    JointMatrix m;
  };
  std::vector<BeliefVec> priors;
  std::vector<bool> pinned;
  std::vector<bool> retired;
  std::vector<Insertion> edges;
  std::optional<JointMatrix> shared;

  explicit Mirror(const FactorGraph& g) {
    if (g.joints().is_shared()) shared = g.joints().shared_matrix();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      priors.push_back(g.prior(v));
      pinned.push_back(g.observed(v));
      retired.push_back(false);
    }
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      edges.push_back({g.edge(e), g.joints().at(e)});
    }
  }

  [[nodiscard]] bool linked(NodeId u, NodeId v) const {
    return std::any_of(edges.begin(), edges.end(), [&](const Insertion& x) {
      return (x.e.src == u && x.e.dst == v) || (x.e.src == v && x.e.dst == u);
    });
  }

  [[nodiscard]] FactorGraph build() const {
    GraphBuilder b;
    if (shared) b.use_shared_joint(*shared);
    for (NodeId v = 0; v < priors.size(); ++v) {
      b.add_node(priors[v]);
      if (pinned[v]) {
        const float* p = priors[v].v.data();
        b.observe(v, static_cast<std::uint32_t>(
                         std::max_element(p, p + priors[v].size) - p));
      }
    }
    for (const Insertion& x : edges) {
      if (shared) {
        b.add_edge(x.e.src, x.e.dst);
      } else {
        b.add_edge(x.e.src, x.e.dst, x.m);
      }
    }
    return b.finalize();
  }
};

TEST(DynamicGraph, SnapshotEqualsTheBuilderGraphOfTheSameInsertions) {
  // Each version is the graph GraphBuilder makes of the same nodes and
  // edge-insertion sequence: surviving edges keep their row order, new
  // edges follow, removals drop out, set_potential rewrites in place.
  const auto g = test_grid(6);
  auto dyn = DynamicGraph::from_graph(g);
  auto ordered = DynamicGraph::from_graph(reordered(g, ReorderMode::kRcm));

  Mirror want(g);
  std::vector<Mirror::Insertion>& edges = want.edges;
  std::vector<BeliefVec>& priors = want.priors;
  std::vector<bool>& pinned = want.pinned;
  const auto add = [&](NodeId u, NodeId v, const JointMatrix& m) {
    edges.push_back({{u, v}, m});
    edges.push_back({{v, u}, m.transposed()});
  };
  const auto drop = [&](auto dead) {
    std::erase_if(edges,
                  [&](const Mirror::Insertion& x) { return dead(x.e); });
  };
  // Under a reorder mode each version is reordered afresh: exactly the
  // locality pass applied to the unordered twin's version.
  const auto apply = [&](const GraphDelta& d) {
    ASSERT_TRUE(dyn.apply(d).is_ok());
    ASSERT_TRUE(ordered.apply(d).is_ok());
    const auto got = ordered.snapshot();
    const FactorGraph fresh = reordered(*dyn.snapshot(), ReorderMode::kRcm);
    expect_same_graph(*got, fresh);
    ASSERT_NE(got->permutation(), nullptr);
    ASSERT_EQ(got->permutation()->size(), fresh.permutation()->size());
    for (NodeId v = 0; v < fresh.num_nodes(); ++v) {
      ASSERT_EQ(got->permutation()->to_new(v), fresh.permutation()->to_new(v));
    }
  };

  std::vector<NodeId> loose;
  for (NodeId v = 21; loose.size() < 2; ++v) {
    if (!g.observed(v)) loose.push_back(v);
  }
  const NodeId grown = g.num_nodes();
  const auto ma = asymmetric(0.7f, 0.2f);
  const auto mb = asymmetric(0.6f, 0.1f);
  const auto mc = asymmetric(0.9f, 0.4f);
  const auto md = asymmetric(0.55f, 0.35f);

  // Batch 1: grow a node, wire it and a new chord, observe a node.
  apply(GraphDelta{}
            .add_node(BeliefVec::uniform(2))
            .add_edge(GraphDelta::new_node(0), 7, ma)
            .add_edge(3, 20, mb)
            .observe(loose[0], 1));
  priors.push_back(BeliefVec::uniform(2));
  pinned.push_back(false);
  add(grown, 7, ma);
  add(3, 20, mb);
  priors[loose[0]] = BeliefVec::observed(2, 1);
  pinned[loose[0]] = true;

  // Batch 2: drop an original edge, rewrite two potentials, nudge a prior.
  BeliefVec nudge = BeliefVec::uniform(2);
  nudge[0] = 0.8f;
  nudge[1] = 0.2f;
  apply(GraphDelta{}
            .remove_edge(0, 1)
            .set_potential(6, 7, mc)
            .set_potential(grown, 7, md)
            .set_prior(loose[1], nudge));
  drop([](DirectedEdge e) {
    return (e.src == 0 && e.dst == 1) || (e.src == 1 && e.dst == 0);
  });
  for (Mirror::Insertion& x : edges) {
    if (x.e.src == 6 && x.e.dst == 7) x.m = mc;
    if (x.e.src == 7 && x.e.dst == 6) x.m = mc.transposed();
    if (x.e.src == grown && x.e.dst == 7) x.m = md;
    if (x.e.src == 7 && x.e.dst == grown) x.m = md.transposed();
  }
  priors[loose[1]] = nudge;

  // Batch 3: retire a node, re-add the dropped edge (it now follows its
  // rows' other edges), grow a node wired to the first grown one, and
  // release the observation.
  apply(GraphDelta{}
            .remove_node(14)
            .add_edge(0, 1, ma)
            .add_node(BeliefVec::uniform(2))
            .add_edge(GraphDelta::new_node(0), grown, mb)
            .unobserve(loose[0]));
  drop([](DirectedEdge e) { return e.src == 14 || e.dst == 14; });
  priors[14] = BeliefVec::observed(2, 0);
  pinned[14] = true;
  add(0, 1, ma);
  priors.push_back(BeliefVec::uniform(2));
  pinned.push_back(false);
  add(grown + 1, grown, mb);
  priors[loose[0]] = BeliefVec::uniform(2);
  pinned[loose[0]] = false;

  expect_same_graph(*dyn.snapshot(), want.build());
}

/// One random batch against `mirror`: valid ops that `work` (a copy of
/// the mirror) follows op by op, and with probability `bad_p` one invalid
/// op whose message the pass must report, followed by more ops.
struct RandomBatch {
  GraphDelta delta;
  Mirror work;
  std::vector<NodeId> touched;  // sorted, when accepted
  std::string error;            // empty when every op is valid
  bool names_retired = false;   // the invalid op names a retired node
};

RandomBatch random_batch(const Mirror& mirror, std::uint32_t arity,
                         util::Prng& rng) {
  RandomBatch out{GraphDelta{}, mirror, {}, {}, false};
  GraphDelta& d = out.delta;
  Mirror& w = out.work;
  const bool shared = w.shared.has_value();
  const auto base_n = static_cast<NodeId>(mirror.priors.size());
  std::uint32_t adds = 0;
  std::vector<NodeId> hit;

  // Ids as the batch names them: this batch's new nodes are pending.
  const auto ref = [&](NodeId v) {
    return v >= base_n ? GraphDelta::new_node(v - base_n) : v;
  };
  const auto pick = [&](auto keep) -> std::optional<NodeId> {
    for (int tries = 0; tries < 64; ++tries) {
      const auto v = static_cast<NodeId>(rng.uniform(w.priors.size()));
      if (keep(v)) return v;
    }
    return std::nullopt;
  };
  const auto live = [&](NodeId v) { return !w.retired[v]; };
  const auto pair = [&](bool linked) -> std::optional<DirectedEdge> {
    if (linked) {
      if (w.edges.empty()) return std::nullopt;
      const DirectedEdge e = w.edges[rng.uniform(w.edges.size())].e;
      return rng.bernoulli(0.5) ? e : DirectedEdge{e.dst, e.src};
    }
    for (int tries = 0; tries < 64; ++tries) {
      const auto u = pick(live);
      const auto v = pick(live);
      if (u && v && *u != *v && !w.linked(*u, *v)) return DirectedEdge{*u, *v};
    }
    return std::nullopt;
  };
  const auto matrix = [&](std::uint32_t rows, std::uint32_t cols) {
    JointMatrix m(rows, cols);
    for (std::uint32_t i = 0; i < rows; ++i) {
      for (std::uint32_t j = 0; j < cols; ++j) {
        m.at(i, j) = 0.1f + rng.uniform01f();
      }
    }
    return m;
  };
  const auto prior = [&](std::uint32_t n) {
    BeliefVec p = BeliefVec::uniform(n);
    p[0] += rng.uniform01f();
    normalize(p);
    return p;
  };
  const auto unlink = [&](NodeId u, NodeId v) {
    std::erase_if(w.edges, [&](const Mirror::Insertion& x) {
      return (x.e.src == u && x.e.dst == v) || (x.e.src == v && x.e.dst == u);
    });
  };

  // One valid op of a random kind; false when the kind has no target now.
  const auto valid = [&]() -> bool {
    switch (rng.uniform(8)) {
      case 0: {
        const auto v = pick([&](NodeId x) { return live(x) && !w.pinned[x]; });
        if (!v) return false;
        const BeliefVec p = prior(arity);
        d.set_prior(ref(*v), p);
        w.priors[*v] = p;
        hit.push_back(*v);
        return true;
      }
      case 1: {
        const auto v = pick(live);
        if (!v) return false;
        const auto state = static_cast<std::uint32_t>(rng.uniform(arity));
        d.observe(ref(*v), state);
        w.priors[*v] = BeliefVec::observed(arity, state);
        w.pinned[*v] = true;
        hit.push_back(*v);
        return true;
      }
      case 2: {
        const auto v = pick(live);
        if (!v) return false;
        d.unobserve(ref(*v));
        w.priors[*v] = BeliefVec::uniform(arity);
        w.pinned[*v] = false;
        hit.push_back(*v);
        return true;
      }
      case 3: {
        const BeliefVec p = prior(arity);
        d.add_node(p);
        hit.push_back(static_cast<NodeId>(w.priors.size()));
        w.priors.push_back(p);
        w.pinned.push_back(false);
        w.retired.push_back(false);
        ++adds;
        return true;
      }
      case 4: {
        const auto v = pick([&](NodeId x) { return live(x) && x < base_n; });
        if (!v) return false;
        d.remove_node(*v);
        hit.push_back(*v);
        for (const Mirror::Insertion& x : w.edges) {
          if (x.e.src == *v) hit.push_back(x.e.dst);
        }
        std::erase_if(w.edges, [&](const Mirror::Insertion& x) {
          return x.e.src == *v || x.e.dst == *v;
        });
        w.priors[*v] = BeliefVec::observed(arity, 0);
        w.pinned[*v] = true;
        w.retired[*v] = true;
        return true;
      }
      case 5: {
        const auto e = pair(false);
        if (!e) return false;
        const JointMatrix m = shared ? *w.shared : matrix(arity, arity);
        if (shared) {
          d.add_edge(ref(e->src), ref(e->dst));
        } else {
          d.add_edge(ref(e->src), ref(e->dst), m);
        }
        w.edges.push_back({*e, m});
        w.edges.push_back({{e->dst, e->src}, m.transposed()});
        hit.push_back(e->src);
        hit.push_back(e->dst);
        return true;
      }
      case 6: {
        const auto e = pair(true);
        if (!e) return false;
        d.remove_edge(ref(e->src), ref(e->dst));
        unlink(e->src, e->dst);
        hit.push_back(e->src);
        hit.push_back(e->dst);
        return true;
      }
      default: {
        const auto e = pair(true);
        if (shared || !e) return false;
        const JointMatrix m = matrix(arity, arity);
        d.set_potential(ref(e->src), ref(e->dst), m);
        for (Mirror::Insertion& x : w.edges) {
          if (x.e.src == e->src && x.e.dst == e->dst) x.m = m;
          if (x.e.src == e->dst && x.e.dst == e->src) x.m = m.transposed();
        }
        hit.push_back(e->src);
        hit.push_back(e->dst);
        return true;
      }
    }
  };

  // One invalid op of a random kind, with the message the pass reports;
  // empty when the kind has no target now.
  const auto invalid = [&]() -> std::string {
    const auto any = [](NodeId) { return true; };
    switch (rng.uniform(16)) {
      case 0:
        d.observe(base_n + static_cast<NodeId>(rng.uniform(3)), 0);
        return "GraphDelta: node id out of range";
      case 1:
        if (shared) {
          d.add_edge(GraphDelta::new_node(1000), 0);
        } else {
          d.add_edge(GraphDelta::new_node(1000), 0, matrix(arity, arity));
        }
        return "GraphDelta: node id out of range";
      case 2:
        d.add_node(BeliefVec{});
        return "GraphDelta: add_node prior arity out of range";
      case 3: {
        const auto r = pick([&](NodeId x) { return w.retired[x]; });
        if (!r) return "";
        out.names_retired = true;
        switch (rng.uniform(4)) {
          case 0:
            d.set_prior(*r, BeliefVec::uniform(arity));
            return "GraphDelta: set_prior on a removed node";
          case 1:
            d.observe(*r, 0);
            return "GraphDelta: observe on a removed node";
          case 2:
            d.unobserve(*r);
            return "GraphDelta: unobserve on a removed node";
          default:
            d.remove_node(*r);
            return "GraphDelta: remove_node on an already-removed node";
        }
      }
      case 4: {
        const auto r = pick([&](NodeId x) { return w.retired[x]; });
        const auto v = pick(live);
        if (!r || !v) return "";
        if (shared) {
          d.add_edge(ref(*v), *r);
        } else {
          d.add_edge(ref(*v), *r, matrix(arity, arity));
        }
        return "GraphDelta: add_edge endpoint is a removed node";
      }
      case 5:
        if (adds == 0) return "";
        d.remove_node(GraphDelta::new_node(
            static_cast<std::uint32_t>(rng.uniform(adds))));
        return "GraphDelta: remove_node on a node added in the same delta";
      case 6: {
        const auto v = pick(any);
        if (shared) {
          d.add_edge(ref(*v), ref(*v));
        } else {
          d.add_edge(ref(*v), ref(*v), matrix(arity, arity));
        }
        return "GraphDelta: add_edge self-loop";
      }
      case 7: {
        const auto e = pair(true);
        if (!e) return "";
        if (shared) {
          d.add_edge(ref(e->src), ref(e->dst));
        } else {
          d.add_edge(ref(e->src), ref(e->dst), matrix(arity, arity));
        }
        return "GraphDelta: add_edge duplicate — edge already live";
      }
      case 8: {
        const auto e = pair(false);
        if (!e) return "";
        if (rng.bernoulli(0.5)) {
          d.remove_edge(ref(e->src), ref(e->dst));
          return "GraphDelta: remove_edge on an absent edge";
        }
        d.set_potential(ref(e->src), ref(e->dst), matrix(arity, arity));
        return shared ? "GraphDelta: set_potential on a shared-joint graph "
                        "(the matrix is global — rebuild instead)"
                      : "GraphDelta: set_potential on an absent edge";
      }
      case 9: {
        const auto e = pair(false);
        if (!e) return "";
        if (shared) {
          d.add_edge(ref(e->src), ref(e->dst), matrix(arity, arity));
          return "GraphDelta: shared-joint graph — use the matrix-free "
                 "add_edge overload";
        }
        d.add_edge(ref(e->src), ref(e->dst));
        return "GraphDelta: per-edge graph — add_edge needs a matrix";
      }
      case 10: {
        const auto v = pick(live);
        if (!v) return "";
        if (shared) {
          // A node of another arity cannot take the shared matrix.
          d.add_node(BeliefVec::uniform(arity + 1));
          d.add_edge(GraphDelta::new_node(adds), ref(*v));
          return "GraphDelta: add_edge arity does not match the shared joint";
        }
        const auto e = pair(false);
        if (!e) return "";
        d.add_edge(ref(e->src), ref(e->dst), matrix(arity + 1, arity));
        return "GraphDelta: add_edge matrix shape mismatch";
      }
      case 11: {
        const auto e = pair(true);
        if (shared || !e) return "";
        d.set_potential(ref(e->src), ref(e->dst), matrix(arity, arity + 1));
        return "GraphDelta: set_potential matrix shape mismatch";
      }
      case 12: {
        const auto v = pick(live);
        if (!v) return "";
        d.set_prior(ref(*v), BeliefVec::uniform(arity + 1));
        return "GraphDelta: set_prior arity mismatch";
      }
      case 13: {
        const auto v = pick([&](NodeId x) { return live(x) && w.pinned[x]; });
        if (!v) return "";
        d.set_prior(ref(*v), BeliefVec::uniform(arity));
        return "GraphDelta: set_prior on an observed node (unobserve it "
               "first — observed beliefs are pinned)";
      }
      case 14: {
        const auto v = pick(live);
        if (!v) return "";
        d.observe(ref(*v), arity);
        return "GraphDelta: observed state out of range";
      }
      default: {
        const auto e = pair(false);
        if (!e) return "";
        d.remove_edge(ref(e->src), ref(e->dst));
        return "GraphDelta: remove_edge on an absent edge";
      }
    }
  };

  const int ops = 1 + static_cast<int>(rng.uniform(6));
  const bool bad = rng.bernoulli(0.4);
  const int at = static_cast<int>(rng.uniform(ops));
  for (int i = 0; i < ops; ++i) {
    if (bad && i == at) {
      while (out.error.empty()) out.error = invalid();
    } else {
      while (!valid()) {
      }
    }
  }
  std::sort(hit.begin(), hit.end());
  hit.erase(std::unique(hit.begin(), hit.end()), hit.end());
  out.touched = std::move(hit);
  return out;
}

TEST(GraphDelta, SeededRandomBatchesBuildTheMirrorOrLeaveNoTrace) {
  // Seeded random batches of all eight op kinds, about 40% with one
  // invalid op at a random position followed by more ops. A rejected batch
  // leaves the DynamicGraph as it was and reports the first failing op's
  // message; an accepted one is the GraphBuilder graph of the mirrored
  // insertions, with the mirrored retired flags and frontier. with_delta
  // on the BFS-reordered version runs the same pass: the same verdict,
  // message and frontier on the evidence-only batches that name no
  // retired node, and a refusal of every topology batch.
  BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 13;
  cfg.observed_fraction = 0.2;
  const FactorGraph shared_g = grid(5, 5, cfg);
  ASSERT_TRUE(shared_g.joints().is_shared());
  const FactorGraph per_edge_g = test_grid(5, 3);
  ASSERT_FALSE(per_edge_g.joints().is_shared());

  std::uint64_t seed = 29;
  for (const FactorGraph* g : {&shared_g, &per_edge_g}) {
    SCOPED_TRACE(g->joints().is_shared() ? "shared joint" : "per-edge joint");
    const std::uint32_t arity = g->arity(0);
    auto dyn = DynamicGraph::from_graph(*g);
    Mirror mirror(*g);
    util::Prng rng(seed++);
    int accepted = 0;
    int rejected = 0;
    for (int batch = 0; batch < 150; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      RandomBatch rb = random_batch(mirror, arity, rng);
      const auto before = dyn.snapshot();
      const std::uint64_t version = dyn.version();
      const std::vector<NodeId> touched_before = dyn.last_touched();
      const FactorGraph ordered = reordered(*before, ReorderMode::kBfs);

      const util::Status s = dyn.apply(rb.delta);
      if (!rb.error.empty()) {
        ++rejected;
        ASSERT_FALSE(s.is_ok());
        EXPECT_EQ(s.message(), rb.error);
        EXPECT_EQ(dyn.version(), version);
        EXPECT_EQ(dyn.num_nodes(), before->num_nodes());
        EXPECT_EQ(dyn.num_edges(), before->num_edges());
        EXPECT_EQ(dyn.snapshot(), before);
        EXPECT_EQ(dyn.last_touched(), touched_before);
        for (NodeId v = 0; v < mirror.retired.size(); ++v) {
          ASSERT_EQ(dyn.removed(v), mirror.retired[v]) << "node " << v;
        }
      } else {
        ++accepted;
        ASSERT_TRUE(s.is_ok()) << s.message();
        EXPECT_EQ(dyn.version(), version + 1);
        mirror = std::move(rb.work);
        expect_same_graph(*dyn.snapshot(), mirror.build());
        for (NodeId v = 0; v < mirror.retired.size(); ++v) {
          ASSERT_EQ(dyn.removed(v), mirror.retired[v]) << "node " << v;
        }
        EXPECT_EQ(dyn.last_touched(), rb.touched);
      }

      // A plain graph has no retired flags: to with_delta a retired node
      // is an ordinary observed one, so batches naming one are left out.
      if (rb.names_retired) continue;
      std::vector<NodeId> touched;
      try {
        const FactorGraph evidenced = with_delta(ordered, rb.delta, &touched);
        ASSERT_TRUE(s.is_ok());
        ASSERT_FALSE(rb.delta.has_topology());
        EXPECT_EQ(touched, dyn.last_touched());
        const Permutation& perm = *evidenced.permutation();
        for (NodeId v = 0; v < dyn.num_nodes(); ++v) {
          ASSERT_EQ(evidenced.observed(perm.to_new(v)), dyn.observed(v));
        }
      } catch (const util::InvalidArgument& e) {
        EXPECT_EQ(std::string(e.what()),
                  rb.delta.has_topology()
                      ? "GraphDelta: topology mutations cannot apply "
                        "ephemerally to a static FactorGraph — route them "
                        "through a graph::DynamicGraph"
                      : s.message());
      }
    }
    EXPECT_GT(accepted, 40);
    EXPECT_GT(rejected, 40);
  }
}

TEST(DynamicGraph, EachOpSeesParallelEdgesAsBuilt) {
  // GraphBuilder accepts parallel edges. remove_edge takes one directed
  // copy each way, so the other pair is still live for the batch's later
  // ops, exactly as it is for the next batch.
  GraphBuilder b;
  b.use_shared_joint(JointMatrix::diffusion(2, 0.8f));
  for (int i = 0; i < 3; ++i) b.add_node(BeliefVec::uniform(2));
  b.add_undirected(0, 1);
  b.add_undirected(0, 1);
  b.add_undirected(1, 2);
  const FactorGraph g = b.finalize();

  auto dyn = DynamicGraph::from_graph(g);
  EXPECT_EQ(dyn.apply(GraphDelta{}.remove_edge(0, 1).add_edge(0, 1)).message(),
            "GraphDelta: add_edge duplicate — edge already live");
  ASSERT_TRUE(
      dyn.apply(GraphDelta{}.remove_edge(0, 1).remove_edge(1, 0)).is_ok());
  EXPECT_FALSE(dyn.has_edge(0, 1));
  EXPECT_EQ(dyn.num_edges(), 2u);
}

TEST(DynamicGraph, RemoveNodeDropsEdgesAddedEarlierInTheSameBatch) {
  const auto g = test_grid();
  auto dyn = DynamicGraph::from_graph(g);
  const auto m = JointMatrix::diffusion(2, 0.8f);
  const NodeId u = 0, v = 20;
  ASSERT_FALSE(dyn.has_edge(u, v));

  // Later ops see the version as built: the edge is gone once v is.
  EXPECT_FALSE(
      dyn.apply(GraphDelta{}.add_edge(u, v, m).remove_node(v).remove_edge(u, v))
          .is_ok());

  ASSERT_TRUE(dyn.apply(GraphDelta{}.add_edge(u, v, m).remove_node(v)).is_ok());
  EXPECT_TRUE(dyn.removed(v));
  EXPECT_FALSE(dyn.has_edge(u, v));
  const auto snap = dyn.snapshot();
  EXPECT_EQ(snap->in_csr().degree(v), 0u);
  EXPECT_EQ(snap->out_csr().degree(v), 0u);
  EXPECT_EQ(snap->num_edges(), g.num_edges() - 2 * g.out_csr().degree(v));
  const auto& touched = dyn.last_touched();
  EXPECT_TRUE(std::find(touched.begin(), touched.end(), u) != touched.end());
}

TEST(DynamicGraph, PermutationStaysValidAcrossCompactions) {
  // Under a reorder mode the snapshot carries a permutation recomputed for
  // the mutated topology; the engine must still un-permute to correct
  // original-id beliefs. Reference: the same mutation stream on an
  // unordered twin, 1e-5 tolerance (the test_reorder precedent for
  // cross-ordering float drift).
  const auto g = test_grid(10);
  auto dyn = DynamicGraph::from_graph(reordered(g, ReorderMode::kRcm));
  auto twin = DynamicGraph::from_graph(g);

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
  // A node-adding delta under a reorder mode, snapshot taken straight away:
  // the permutation must cover the new node, and the engine must
  // un-permute to the unordered twin's beliefs.
  BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 11;
  cfg.observed_fraction = 0.1;
  const auto g = grid(10, 10, cfg);
  ASSERT_TRUE(g.joints().is_shared());
  auto dyn = DynamicGraph::from_graph(reordered(g, ReorderMode::kBfs));
  auto twin = DynamicGraph::from_graph(g);

  GraphDelta d;
  d.add_node(BeliefVec::uniform(2)).add_edge(GraphDelta::new_node(0), 37);
  ASSERT_TRUE(dyn.apply(d).is_ok());
  ASSERT_TRUE(twin.apply(d).is_ok());

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
    auto dyn = DynamicGraph::from_graph(g);
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
  auto dyn = DynamicGraph::from_graph(shared_g);

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
  auto per_edge = DynamicGraph::from_graph(test_grid(6));
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
  // A node-adding mutation on a reordered graph key: the mutated
  // snapshot's permutation must cover the new node.
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

class MutationResume : public ::testing::TestWithParam<graph::ReorderMode> {
};

TEST_P(MutationResume, MutationCarriesTheFrontierToTheNextVersion) {
  // The stored run's open frontier moves with its beliefs to the next
  // version, joined by the touched nodes: the mutation's run is seeded
  // with both, and the next warm repeat resumes the mutation run's own
  // frontier. A mutation whose run does not converge stores nothing, so a
  // repeat resumes the carried state itself.
  const graph::ReorderMode mode = GetParam();
  const auto [nodes, edges] = write_graph(
      serve_grid(),
      "mutate_resume_" + std::string(graph::reorder_mode_name(mode)));
  const auto parsed =
      graph::reordered(io::read_mtx_belief(nodes, edges), mode);
  const auto kind = bp::EngineKind::kCpuNode;
  const auto engine = bp::make_default_engine(kind);
  const auto opts = serve_options().with_work_queue();
  Server server(plain_server(1));
  const auto base = [&] {
    return Request{}
        .with_graph(GraphKey::files(nodes, edges).with_reorder(mode))
        .with_options(opts)
        .with_engine(kind)
        .with_warm_start();
  };
  const auto resumed = [&](const graph::FactorGraph& g,
                           const std::vector<graph::BeliefVec>& beliefs,
                           const std::vector<graph::NodeId>& seed) {
    return engine->run(
        g, bp::BpOptions(opts)
               .with_init_beliefs(
                   std::make_shared<const std::vector<graph::BeliefVec>>(
                       beliefs))
               .with_frontier_seed(
                   std::make_shared<const std::vector<graph::NodeId>>(seed)));
  };
  const auto expect_same = [](const Response& got, const bp::BpResult& want) {
    ASSERT_EQ(got.result.beliefs.size(), want.beliefs.size());
    for (std::size_t v = 0; v < want.beliefs.size(); ++v) {
      for (std::uint32_t s = 0; s < want.beliefs[v].size; ++s) {
        ASSERT_EQ(got.result.beliefs[v].v[s], want.beliefs[v].v[s])
            << "node " << v;
      }
    }
    EXPECT_EQ(got.result.stats.elements_processed,
              want.stats.elements_processed);
    EXPECT_EQ(got.result.stats.frontier_seeded, want.stats.frontier_seeded);
  };

  // A cold run stores no frontier; the first repeat sweeps every node and
  // stores its own.
  const Response cold = server.submit(base()).get();
  ASSERT_TRUE(cold.ok()) << cold.error;
  std::vector<graph::NodeId> every(parsed.num_nodes());
  for (graph::NodeId v = 0; v < parsed.num_nodes(); ++v) every[v] = v;
  const auto stored = resumed(parsed, cold.result.beliefs, every);
  const Response sweep = server.submit(base()).get();
  ASSERT_TRUE(sweep.ok()) << sweep.error;
  expect_same(sweep, stored);
  ASSERT_TRUE(stored.frontier.has_value());

  // A new edge between two existing nodes, as the server applies it.
  graph::GraphDelta wire;
  wire.add_edge(0, 9, graph::JointMatrix::diffusion(2, 0.8f));
  auto dyn = graph::DynamicGraph::from_graph(parsed);
  ASSERT_TRUE(dyn.apply(wire).is_ok());
  const auto snapshot = dyn.snapshot();
  std::vector<graph::NodeId> seed = dyn.last_touched();
  seed.insert(seed.end(), stored.frontier->begin(), stored.frontier->end());
  const auto mutation =
      resumed(*snapshot, dyn.patch_beliefs(stored.beliefs), seed);
  ASSERT_TRUE(mutation.frontier.has_value());

  const Response mutated = server.submit(base().with_delta(wire)).get();
  ASSERT_TRUE(mutated.ok()) << mutated.error;
  EXPECT_EQ(mutated.graph_version, 1u);
  EXPECT_TRUE(mutated.warm_start);
  expect_same(mutated, mutation);

  const Response repeat = server.submit(base()).get();
  ASSERT_TRUE(repeat.ok()) << repeat.error;
  EXPECT_EQ(repeat.graph_version, 1u);
  const auto at_v1 = resumed(*snapshot, mutation.beliefs, *mutation.frontier);
  expect_same(repeat, at_v1);
  ASSERT_TRUE(at_v1.frontier.has_value());

  // One iteration cannot settle the reset region: nothing is stored, and
  // version 2 keeps the carried state — the touched nodes at their priors
  // and on the frontier, so a repeat re-converges them.
  graph::GraphDelta rewire;
  rewire.add_edge(5, 30, graph::JointMatrix::diffusion(2, 0.8f));
  ASSERT_TRUE(dyn.apply(rewire).is_ok());
  const auto snapshot2 = dyn.snapshot();
  const Response unsettled =
      server
          .submit(base()
                      .with_options(bp::BpOptions(opts).with_max_iterations(1))
                      .with_delta(rewire))
          .get();
  ASSERT_TRUE(unsettled.ok()) << unsettled.error;
  EXPECT_EQ(unsettled.graph_version, 2u);
  ASSERT_FALSE(unsettled.result.stats.converged);
  std::vector<graph::NodeId> carried = *at_v1.frontier;
  carried.insert(carried.end(), dyn.last_touched().begin(),
                 dyn.last_touched().end());
  const Response repeat2 = server.submit(base()).get();
  ASSERT_TRUE(repeat2.ok()) << repeat2.error;
  EXPECT_EQ(repeat2.graph_version, 2u);
  expect_same(repeat2,
              resumed(*snapshot2, dyn.patch_beliefs(at_v1.beliefs), carried));
  server.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Orders, MutationResume,
                         ::testing::Values(graph::ReorderMode::kNone,
                                           graph::ReorderMode::kBfs),
                         [](const auto& info) {
                           return std::string(
                               graph::reorder_mode_name(info.param));
                         });

TEST(ServerMutation, MutationMovesTheWarmStateToTheNewVersion) {
  // Nothing resolves a superseded version again, so the mutation moves its
  // warm state to the new version instead of leaving a stale copy behind.
  const auto [nodes, edges] = write_graph(serve_grid(), "mutate_move");
  Server server(plain_server(1));
  const auto base = [&] {
    return Request{}
        .with_files(nodes, edges)
        .with_options(serve_options())
        .with_engine(bp::EngineKind::kCpuNode)
        .with_warm_start();
  };
  ASSERT_TRUE(server.submit(base()).get().ok());
  EXPECT_EQ(server.cache().warm_size(), 1u);

  graph::GraphDelta grow;
  grow.add_node(graph::BeliefVec::uniform(2))
      .add_edge(graph::GraphDelta::new_node(0), 3,
                graph::JointMatrix::diffusion(2, 0.8f));
  const Response mutated = server.submit(base().with_delta(grow)).get();
  ASSERT_TRUE(mutated.ok()) << mutated.error;
  EXPECT_TRUE(mutated.warm_start);
  EXPECT_EQ(server.cache().warm_size(), 1u);
  server.shutdown();
}

TEST(ServerMutation, RunOnASupersededVersionStoresNoWarmState) {
  // A long warm query resolves version 0, and a mutation of the same files
  // publishes version 1 while it runs. No request resolves version 0
  // again, so the query's converged state is not stored: the warm table
  // holds only the new version's state, whichever run finishes first.
  graph::BeliefConfig cfg;
  cfg.beliefs = 8;
  cfg.seed = 31;
  cfg.observed_fraction = 0.05;
  const auto [nodes, edges] =
      write_graph(graph::grid(60, 60, cfg), "mutate_superseded");
  Server server(plain_server(2));
  // About 280 sweeps: the query runs for hundreds of milliseconds, the
  // mutation publishes its version within a few.
  const auto opts = serve_options().with_max_iterations(2000);
  const auto base = [&] {
    return Request{}
        .with_files(nodes, edges)
        .with_options(opts)
        .with_engine(bp::EngineKind::kCpuNode)
        .with_warm_start();
  };
  // Parse the files first, so the query resolves its version at once. A
  // request without warm_start stores no state.
  const Response parsed =
      server
          .submit(Request{}
                      .with_files(nodes, edges)
                      .with_options(serve_options().with_max_iterations(1))
                      .with_engine(bp::EngineKind::kCpuNode))
          .get();
  ASSERT_EQ(parsed.status, util::StatusCode::kOk) << parsed.error;
  ASSERT_EQ(server.cache().warm_size(), 0u);

  auto slow = server.submit(base());
  graph::GraphDelta grow;
  grow.add_node(graph::BeliefVec::uniform(8))
      .add_edge(graph::GraphDelta::new_node(0), 5);
  const Response mutated = server.submit(base().with_delta(grow)).get();
  const Response query = slow.get();
  ASSERT_TRUE(mutated.ok()) << mutated.error;
  ASSERT_TRUE(mutated.result.stats.converged);
  ASSERT_TRUE(query.ok()) << query.error;
  ASSERT_TRUE(query.result.stats.converged);
  EXPECT_EQ(mutated.graph_version, 1u);
  EXPECT_EQ(server.cache().warm_size(), 1u);

  const Response repeat = server.submit(base()).get();
  ASSERT_TRUE(repeat.ok()) << repeat.error;
  EXPECT_EQ(repeat.graph_version, 1u);
  EXPECT_TRUE(repeat.warm_start);
  EXPECT_EQ(server.cache().warm_size(), 1u);
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
