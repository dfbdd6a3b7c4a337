// Dynamic graphs: streaming mutation with incremental re-convergence
// (DESIGN.md §5j).
//
// FactorGraph is immutable by design — the engines' CSR walks, the reorder
// permutation and the serve cache all rely on it never changing under
// them. A DynamicGraph is a sequence of immutable versions: it holds the
// current FactorGraph in the caller's ORIGINAL id space plus the
// retired-node flags, and apply() runs a GraphDelta batch (evidence AND
// topology) through the one pass graph::with_delta runs (graph/delta.cpp):
// each op is checked against the next version as it is built, and the
// version replaces the current graph only when every op passed. A
// topology batch rebuilds the edge list in builder order, the joint store
// and both CSRs in O(n + m); an evidence batch rewrites only the node
// arrays.
//
// Under a reorder mode, snapshot() is graph::reordered(current, mode): a
// fresh §5d permutation for every version, so a snapshot is exactly as
// local as reordering the mutated graph from scratch.
//
// Node ids are dense, stable, and never reused: remove_node retires the
// node as an isolated *zombie* — every incident edge removed, the belief
// pinned to a point mass so engines skip it — rather than renumbering the
// survivors. Callers keep addressing live nodes by the ids they always
// had, warm belief tables stay index-compatible across mutations, and the
// zombie rows cost one pinned BeliefVec each until the graph is rebuilt.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/belief.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/factor_graph.h"
#include "util/error.h"

namespace credo::graph {

/// A mutable factor graph. Not thread-safe: callers serialize mutations
/// (the serve layer holds a per-entry mutex); snapshots are immutable and
/// safe to share across threads.
class DynamicGraph {
 public:
  /// Builds from an existing graph. Any recorded permutation is folded out
  /// (graph::original_order) — the DynamicGraph always speaks original ids
  /// — and g.reorder_mode() becomes the ordering of every snapshot. Throws
  /// util::InvalidArgument for closed-form (LDPC) families: their
  /// structure encodes a code, not a mutable belief network.
  static DynamicGraph from_graph(const FactorGraph& g);

  /// Applies one delta batch atomically: on the first failing op nothing
  /// changes and its status comes back; on success the current graph is
  /// replaced by the next version, the version bumps, and last_touched()
  /// reflects the batch.
  [[nodiscard]] util::Status apply(const GraphDelta& delta);

  /// The immutable graph at the current version. Without a reorder mode it
  /// is the current graph itself; under one it is graph::reordered of it,
  /// built on first call after a mutation and cached until the next one,
  /// carrying its permutation so engine results come back in original ids.
  [[nodiscard]] std::shared_ptr<const FactorGraph> snapshot();

  /// Every node perturbed by the last applied delta, in original ids:
  /// delta endpoints, resolved new-node ids, and the former neighbors of
  /// removed nodes (they lost an edge even though no op named them).
  /// This is the frontier seed of the incremental re-convergence.
  [[nodiscard]] const std::vector<NodeId>& last_touched() const noexcept {
    return last_touched_;
  }

  /// Overlays converged beliefs from a previous version onto the current
  /// one: untouched nodes keep `prev`, nodes in last_touched() and nodes
  /// that did not exist yet reset to their prior. The result is a valid
  /// BpOptions::init_beliefs for the current snapshot — this is how the
  /// serve layer migrates a warm-table entry across a mutation instead of
  /// discarding it wholesale.
  [[nodiscard]] std::vector<BeliefVec> patch_beliefs(
      const std::vector<BeliefVec>& prev) const;

  /// Monotonic mutation counter; bumps once per successful apply().
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Total node rows including zombies (dense original-id space).
  [[nodiscard]] NodeId num_nodes() const noexcept {
    return current_->num_nodes();
  }
  /// Live directed edges.
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return current_->num_edges();
  }
  [[nodiscard]] bool removed(NodeId v) const noexcept {
    return removed_[v] != 0;
  }
  [[nodiscard]] bool observed(NodeId v) const noexcept {
    return current_->observed(v);
  }
  [[nodiscard]] std::uint32_t arity(NodeId v) const noexcept {
    return current_->arity(v);
  }
  /// True when a live directed edge u->v or v->u exists.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

 private:
  DynamicGraph() = default;

  ReorderMode mode_ = ReorderMode::kNone;
  std::shared_ptr<const FactorGraph> current_;  // original ids, no permutation
  std::vector<std::uint8_t> removed_;           // by original id
  std::uint64_t version_ = 0;
  std::vector<NodeId> last_touched_;
  std::shared_ptr<const FactorGraph> snap_;  // reordered current_, if a mode
};

}  // namespace credo::graph
