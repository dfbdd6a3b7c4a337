// Dynamic graphs: streaming mutation with incremental re-convergence
// (DESIGN.md §5j).
//
// FactorGraph is immutable by design — the engines' CSR walks, the reorder
// permutation and the serve cache all rely on it never changing under
// them. A DynamicGraph is the mutable twin: it holds the same node arrays
// plus slack-slotted CSRs (graph/mutable_csr.h) in the caller's ORIGINAL
// id space, applies GraphDelta batches (evidence AND topology) with
// Status-returning validation, and produces immutable `snapshot()`
// FactorGraphs the engines run unchanged. Mutation is O(degree) per op;
// the snapshot is O(n + m) with no sort (rows are kept in the canonical
// by-source order GraphBuilder produces).
//
// The §5d reorder permutation is kept *approximately* valid: snapshots
// reuse the permutation computed at the last compaction (nodes added since
// take the next reordered ids, in original-id order), and a compaction
// — which repacks the slotted CSRs, drops tombstoned edge slots and
// re-runs compute_order — triggers when either slack occupancy
// (dead_fraction) or `mean_edge_span` drift under the stale permutation
// crosses its threshold. Between compactions a snapshot under a reorder
// mode is therefore slightly less local than a fresh RCM/BFS would be;
// that staleness is the price of O(1) mutation, and the drift trigger
// bounds it.
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
#include <optional>
#include <string>
#include <vector>

#include "graph/belief.h"
#include "graph/csr.h"
#include "graph/delta.h"
#include "graph/factor_graph.h"
#include "graph/mutable_csr.h"
#include "graph/reorder.h"
#include "util/error.h"

namespace credo::graph {

/// Tuning for a DynamicGraph.
struct DynamicOptions {
  /// Ordering applied to snapshots (recomputed only at compactions).
  ReorderMode reorder = ReorderMode::kNone;
  /// Spare entry slots per CSR row at build/compaction — inserts up to the
  /// slack are in-place; beyond it the row relocates.
  std::uint32_t row_slack = 2;
  /// Compact when abandoned arena slots exceed this fraction (either CSR).
  double compact_dead_fraction = 0.25;
  /// Under a reorder mode, compact when mean_edge_span under the cached
  /// permutation exceeds this multiple of its value at the last compaction.
  double compact_span_drift = 1.5;
};

/// A mutable factor graph. Not thread-safe: callers serialize mutations
/// (the serve layer holds a per-entry mutex); snapshots are immutable and
/// safe to share across threads.
class DynamicGraph {
 public:
  /// Builds from an existing graph. Any recorded permutation is folded out
  /// — the DynamicGraph always speaks original ids — and recomputed per
  /// `opts.reorder` for snapshots. Throws util::InvalidArgument for
  /// closed-form (LDPC) families: their structure encodes a code, not a
  /// mutable belief network.
  static DynamicGraph from_graph(const FactorGraph& g, DynamicOptions opts);

  /// Validates and applies one delta batch atomically: on error nothing
  /// changes; on success the version bumps, last_touched() reflects the
  /// batch, the cached snapshot is invalidated, and a compaction may run.
  [[nodiscard]] util::Status apply(const GraphDelta& delta);

  /// The immutable graph at the current version, built on first call after
  /// a mutation and cached until the next one. Under a reorder mode the
  /// snapshot carries the cached (possibly stale) permutation so engine
  /// results still come back in original ids.
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
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }

  /// Total node rows including zombies (dense original-id space).
  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(priors_.size());
  }
  /// Live directed edges.
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return live_edges_;
  }
  [[nodiscard]] bool removed(NodeId v) const noexcept {
    return removed_[v] != 0;
  }
  [[nodiscard]] bool observed(NodeId v) const noexcept {
    return observed_[v] != 0;
  }
  [[nodiscard]] std::uint32_t arity(NodeId v) const noexcept {
    return priors_[v].size;
  }
  /// True when a live directed edge u->v or v->u exists.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Worst abandoned-slot fraction across the two slotted CSRs — the slack
  /// half of the compaction trigger.
  [[nodiscard]] double dead_fraction() const noexcept;

  /// Mean |u - v| over live edges under the cached permutation (raw ids
  /// when reorder is kNone) — the drift half of the trigger.
  [[nodiscard]] double mean_edge_span() const noexcept;

  /// Forces a compaction: repacks both CSRs, renumbers edge slots densely,
  /// and (under a reorder mode) recomputes the permutation.
  void compact();

  [[nodiscard]] const DynamicOptions& options() const noexcept {
    return opts_;
  }

 private:
  DynamicGraph() = default;

  [[nodiscard]] util::Status validate(const GraphDelta& delta) const;
  void add_directed(NodeId src, NodeId dst, const JointMatrix* m);
  void kill_slot(EdgeId slot);
  /// Live slot id of directed edge src->dst, or nullopt.
  [[nodiscard]] std::optional<EdgeId> find_slot(NodeId src,
                                                NodeId dst) const noexcept;
  void maybe_compact();
  [[nodiscard]] std::vector<DirectedEdge> live_edges_in_order(
      std::vector<EdgeId>* slots_out) const;

  DynamicOptions opts_;

  // Node arrays, indexed by ORIGINAL id (dense, never reused).
  std::vector<BeliefVec> priors_;
  std::vector<std::uint8_t> observed_;
  std::vector<std::uint8_t> removed_;
  std::vector<std::string> names_;

  // Edge slots: endpoints in original ids plus the per-slot matrix
  // (per-edge mode). Dead slots are tombstoned (elive_ = 0) and recycled
  // through free_; compaction renumbers them densely.
  std::vector<DirectedEdge> eslots_;
  std::vector<JointMatrix> ejoint_;  // empty in shared mode
  std::vector<std::uint8_t> elive_;
  std::vector<EdgeId> free_;
  std::optional<JointMatrix> shared_;
  std::uint64_t live_edges_ = 0;

  MutableCsr out_;  // by source; rows in canonical snapshot order
  MutableCsr in_;   // by target; for remove cascades and degree checks

  // Reorder state: permutation computed at the last compaction (identity
  // when mode is kNone) and the span it achieved then.
  std::shared_ptr<const Permutation> perm_;
  double span_at_compact_ = 0.0;

  std::uint64_t version_ = 0;
  std::uint64_t compactions_ = 0;
  std::vector<NodeId> last_touched_;
  std::shared_ptr<const FactorGraph> snap_;
};

}  // namespace credo::graph
