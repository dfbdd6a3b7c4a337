// Graph-delta vocabulary (DESIGN.md §5j).
//
// A serve re-query changes evidence (priors move, variables get observed
// or released) or topology (edges appear and vanish, nodes join and
// retire), and both kinds of change perturb the same frontier. GraphDelta
// is ONE ordered op list for both. Evidence-only deltas apply ephemerally
// to any FactorGraph (`with_delta`); deltas that carry topology ops go
// through a graph::DynamicGraph, which keeps the retired-node flags and
// the version count. Both paths run one pass (graph/delta.cpp) that checks
// each op against the version it is building and then applies it, so each
// rule lives in one place.
//
// All node ids are the caller's ORIGINAL ids (pre-reorder), like
// BpOptions::frontier_seed. Ops apply in insertion order; a later op on
// the same node/edge wins, and each op is checked against the graph as
// the earlier ops left it.
#pragma once

#include <cstdint>
#include <memory>
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

 private:
  friend class DeltaAccess;   // graph/delta.cpp — the pass's body
  friend class DynamicGraph;  // graph/dynamic.cpp — publishes its versions
  friend FactorGraph with_delta(const FactorGraph& g, const GraphDelta& d,
                                std::vector<NodeId>* touched);

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

  /// The one pass: the next version of `g` with this batch applied, or
  /// the first failing op's kInvalidArgument status. Each op is checked
  /// against the version as the earlier ops left it, then applied. Ids are
  /// original ids, mapped through g's permutation. Evidence ops rewrite
  /// priors and flags and share the structure; topology ops rebuild the
  /// edge list in builder order, the joint store and both CSRs, and need
  /// `removed`: a DynamicGraph's retired flags by original id (its graphs
  /// carry no permutation). Only when every op passed does the pass write
  /// `removed` (grown with added nodes) and, when non-null, `touched`:
  /// every perturbed node, sorted (delta endpoints, resolved new-node ids,
  /// former neighbors of removed nodes).
  [[nodiscard]] util::StatusOr<FactorGraph> applied(
      const FactorGraph& g, std::vector<std::uint8_t>* removed,
      std::vector<NodeId>* touched) const;

  std::vector<Op> ops_;
};

/// A copy of `g` with an *evidence-only* `d` applied: priors and
/// observation flags updated, everything structural shared/unchanged —
/// same edges, CSRs, joint tables, family, names and recorded permutation
/// (beliefs still come back in original ids). `touched`, when non-null,
/// receives the nodes the delta names (original ids, sorted): the frontier
/// seed of an incremental re-run. Throws util::InvalidArgument with the
/// first failing op's message — or when `d` carries topology ops, which
/// cannot apply ephemerally.
[[nodiscard]] FactorGraph with_delta(const FactorGraph& g,
                                     const GraphDelta& d,
                                     std::vector<NodeId>* touched = nullptr);

}  // namespace credo::graph
