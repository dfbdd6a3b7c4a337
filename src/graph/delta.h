// Graph-delta vocabulary (DESIGN.md §5j).
//
// A serve re-query changes evidence (priors move, variables get observed
// or released) or topology (edges appear and vanish, nodes join and
// retire), and both kinds of change perturb the same frontier. GraphDelta
// is ONE ordered op list for both, with one touched-set. Evidence-only
// deltas apply ephemerally to any FactorGraph (`with_delta`); deltas that
// carry topology ops go through a graph::DynamicGraph, which keeps the
// retired-node flags and the version count. Both paths run the same
// validator and the same applier (graph/delta.cpp), so their rules cannot
// drift apart.
//
// All node ids are the caller's ORIGINAL ids (pre-reorder), like
// BpOptions::frontier_seed. Ops apply in insertion order; a later op on
// the same node/edge wins.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/belief.h"
#include "graph/csr.h"
#include "graph/factor_graph.h"
#include "util/error.h"

namespace credo::graph {

/// One ordered batch of evidence and/or topology operations against a
/// graph. Fluent: `GraphDelta().add_node(p).add_edge(GraphDelta::new_node(0),
/// 17, m).observe(4, 2)`.
class GraphDelta {
 public:
  /// Placeholder id for the j-th node *this delta* adds, usable as an edge
  /// endpoint in the same batch before the real id exists. Resolved at
  /// apply time to `num_nodes_before + j` — so concurrent mutators never
  /// need to guess the id a racing batch will be assigned.
  [[nodiscard]] static constexpr NodeId new_node(std::uint32_t j) noexcept {
    return kPendingBit | j;
  }

  /// True when `v` is a new_node() placeholder rather than a real id.
  [[nodiscard]] static constexpr bool is_pending(NodeId v) noexcept {
    return (v & kPendingBit) != 0;
  }

  // --- Evidence ops ---

  /// Replaces `node`'s prior (and current-belief starting point). The node
  /// must be unobserved at apply time and the arity must match.
  GraphDelta& set_prior(NodeId node, const BeliefVec& prior);

  /// Pins `node` to a point mass on `state` (observes it).
  GraphDelta& observe(NodeId node, std::uint32_t state);

  /// Releases an observed `node` back to a uniform prior.
  GraphDelta& unobserve(NodeId node);

  // --- Topology ops (DynamicGraph only) ---

  /// Appends a fresh unobserved node with the given prior. Reference it in
  /// later ops of the same batch via new_node(j) where j counts this
  /// delta's add_node calls from 0.
  GraphDelta& add_node(const BeliefVec& prior);

  /// Retires `node`: every incident edge is removed and the node becomes an
  /// isolated observed placeholder, pinned so engines skip it. Ids stay
  /// dense and are never reused (DESIGN.md §5j on zombie semantics).
  GraphDelta& remove_node(NodeId node);

  /// Inserts an undirected MRF edge u—v as two directed edges: `m`
  /// conditions v on u, the reverse direction uses the transpose (the
  /// GraphBuilder::add_undirected convention). Rejected when either
  /// endpoint is removed/out of range, when the edge already exists, or on
  /// a shared-joint graph (use the matrix-free overload there).
  GraphDelta& add_edge(NodeId u, NodeId v, const JointMatrix& m);

  /// Shared-joint form: the inserted pair uses the graph's shared matrix.
  GraphDelta& add_edge(NodeId u, NodeId v);

  /// Removes the undirected edge u—v (both directed halves). Rejected when
  /// no such edge is live.
  GraphDelta& remove_edge(NodeId u, NodeId v);

  /// Replaces the potential on existing edge u—v: `m` for u->v, transpose
  /// for v->u. Per-edge tabular graphs only.
  GraphDelta& set_potential(NodeId u, NodeId v, const JointMatrix& m);

  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }

  /// True when any op changes structure (add/remove edge/node,
  /// set_potential) rather than just evidence. Topology deltas need a
  /// DynamicGraph; with_delta and the serve layer reject them on plain
  /// cached/inline graphs without a dynamic entry.
  [[nodiscard]] bool has_topology() const noexcept;

  /// Sorted, deduplicated list of every *existing* node the delta touches
  /// (original ids) — endpoints of every op except add_node, with pending
  /// new_node() placeholders excluded (they have no id until apply; the
  /// DynamicGraph reports them in last_touched() after resolution). This
  /// seeds the incremental re-convergence frontier.
  [[nodiscard]] std::vector<NodeId> touched() const;

  /// Validates against a plain FactorGraph for *ephemeral* application:
  /// evidence ops are checked by the same validator DynamicGraph::apply
  /// runs (ids in range, arity match, observe states in range, no
  /// set_prior on an observed node); any topology op fails with
  /// kInvalidArgument — structural mutation needs a DynamicGraph.
  [[nodiscard]] util::Status validate(const FactorGraph& g) const noexcept;

 private:
  friend class DeltaAccess;   // graph/delta.cpp — the applier's body
  friend class DynamicGraph;  // graph/dynamic.cpp — checks and applies
  friend FactorGraph with_delta(const FactorGraph& g, const GraphDelta& d);

  static constexpr NodeId kPendingBit = 0x80000000u;

  enum class OpKind : std::uint8_t {
    kSetPrior,
    kObserve,
    kUnobserve,
    kAddNode,
    kRemoveNode,
    kAddEdge,
    kRemoveEdge,
    kSetPotential,
  };
  struct Op {
    OpKind kind;
    NodeId a = 0;             // node, or edge endpoint u
    NodeId b = 0;             // edge endpoint v
    std::uint32_t state = 0;  // kObserve
    BeliefVec prior;          // kSetPrior, kAddNode
    // Heap-held because a JointMatrix is ~4 KiB and most ops carry none.
    std::shared_ptr<const JointMatrix> joint;  // kAddEdge / kSetPotential
  };

  /// The one validator: checks the whole batch against an evolving shadow
  /// of `g` (observation flags, removals, edge liveness) before anything
  /// changes, so a rejected batch leaves no trace. Ids are original ids,
  /// mapped through g's permutation; `removed` flags retired nodes by
  /// original id (empty: none). Topology ops are checked only on graphs
  /// without a permutation (a DynamicGraph's current version).
  [[nodiscard]] util::Status check(const FactorGraph& g,
                                   std::span<const std::uint8_t> removed) const;

  /// The one applier: the next version of `g` with this checked batch
  /// applied. Evidence ops rewrite priors and flags through g's
  /// permutation, sharing the structure; topology ops rebuild the edge
  /// list in builder order, the joint store and both CSRs. Retired nodes
  /// are flagged in `removed` (grown with added nodes) when non-null;
  /// `touched` receives every perturbed node (DynamicGraph::last_touched).
  [[nodiscard]] FactorGraph applied(const FactorGraph& g,
                                    std::vector<std::uint8_t>* removed,
                                    std::vector<NodeId>* touched) const;

  std::vector<Op> ops_;
};

/// A copy of `g` with an *evidence-only* `d` applied: priors and
/// observation flags updated, everything structural shared/unchanged —
/// same edges, CSRs, joint tables, family, names and recorded permutation
/// (beliefs still come back in original ids). Throws util::InvalidArgument
/// when d.validate(g) fails — including when `d` carries topology ops,
/// which cannot apply ephemerally.
[[nodiscard]] FactorGraph with_delta(const FactorGraph& g,
                                     const GraphDelta& d);

}  // namespace credo::graph
