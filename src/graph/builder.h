// Mutable construction interface for FactorGraph.
//
// Parsers and generators accumulate nodes and edges here; finalize()
// validates arities against the joint matrices and builds both CSR indices.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/factor_graph.h"

namespace credo::graph {

/// Builder for FactorGraph. Not thread-safe; build on one thread.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Starts a graph that shares one joint matrix across all edges (§2.2).
  /// Edges added afterwards must not carry their own matrices.
  void use_shared_joint(const JointMatrix& m);

  /// Switches the builder into a closed-form factor family (DESIGN.md §5g):
  /// edges carry no tables, so only the matrix-free add_edge form is valid
  /// afterwards. For the LDPC families the node-id convention is variables
  /// first, checks after; declare the split with set_ldpc_variables before
  /// finalize(). Must be called before any edges are added; incompatible
  /// with use_shared_joint.
  void use_family(FactorFamily f);

  /// LDPC families: nodes [0, v) are variables (code bits), [v, num_nodes)
  /// are parity checks. finalize() validates the split.
  void set_ldpc_variables(NodeId v);

  /// Pre-allocates for `nodes` nodes and `directed_edges` edges. Purely an
  /// optimization: per-edge matrices are ~4 KiB each, so vector regrowth
  /// is the dominant construction cost without it.
  void reserve(NodeId nodes, std::uint64_t directed_edges);

  /// Adds a node with the given prior; returns its id (dense, 0-based).
  NodeId add_node(const BeliefVec& prior, std::string name = {});

  /// Adds an observed node fixed at `state` out of `arity` states.
  NodeId add_observed_node(std::uint32_t arity, std::uint32_t state,
                           std::string name = {});

  /// Marks an existing node as observed at `state` (its prior becomes a
  /// point mass).
  void observe(NodeId v, std::uint32_t state);

  /// Adds one directed edge with its own conditional matrix (per-edge mode).
  /// NOTE: returned edge ids are provisional — finalize() re-sorts edges by
  /// source node, so they are only meaningful as insertion counters.
  EdgeId add_edge(NodeId src, NodeId dst, const JointMatrix& m);

  /// Adds one directed edge in shared-joint mode.
  EdgeId add_edge(NodeId src, NodeId dst);

  /// Adds an undirected MRF edge as two directed edges. `m` conditions dst
  /// on src; the reverse direction uses the transpose (detailed balance for
  /// symmetric potentials). Returns the id of the first of the pair.
  EdgeId add_undirected(NodeId u, NodeId v, const JointMatrix& m);

  /// Shared-joint form of add_undirected.
  EdgeId add_undirected(NodeId u, NodeId v);

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(priors_.size());
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return edges_.size();
  }

  /// Validates and freezes the graph. The builder is left empty. Edges are
  /// ordered by source node, in insertion order within a source. Throws
  /// InvalidArgument when an LDPC graph breaks the Tanner-graph invariants
  /// (binary nodes, variable<->check edges, both directions of each); a
  /// rejected call leaves the builder as it was.
  FactorGraph finalize();

  /// finalize() followed by the locality pass (graph/reorder.h): the result
  /// is the reordered graph carrying its permutation. kNone is exactly
  /// finalize().
  FactorGraph finalize(ReorderMode mode);

 private:
  std::vector<BeliefVec> priors_;
  std::vector<std::uint8_t> observed_;
  std::vector<std::string> names_;
  bool any_names_ = false;
  std::vector<DirectedEdge> edges_;
  std::optional<JointMatrix> shared_;
  std::vector<JointMatrix> per_edge_;
  FactorFamily family_ = FactorFamily::kTabular;
  NodeId ldpc_variables_ = 0;
};

}  // namespace credo::graph
