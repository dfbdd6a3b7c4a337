// Graph locality pass (DESIGN.md §5d): vertex reorderings that pack
// neighborhoods onto adjacent cache lines before the engines ever run.
//
// The paper's per-edge engines spend their cycles on scattered reads of
// neighbor beliefs (§3.4 chose AoS storage for exactly that access
// pattern), and the GraphLab line of work shows CPU BP throughput is
// bounded by memory locality, not FLOPs. This module computes a
// `Permutation` of node ids — breadth-first (kBfs), reverse Cuthill-McKee
// (kRcm) or a degree-sort fallback (kDegree) — and applies it at build
// time to every structure the hot loops traverse: the priors/beliefs
// array, both CSR indices, the joint store, and the edge list, which under
// a reorder mode is sorted by (target, source) so consecutive per-edge
// combines land on warm accumulator lines (the OpenMP Edge engine's
// atomics hit the same cache line back to back instead of ping-ponging).
//
// The permutation rides inside the produced FactorGraph; Engine::run maps
// beliefs back to the caller's original node ids, so the pass is invisible
// to everything above the graph layer except as a speedup.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "graph/factor_graph.h"
#include "util/error.h"

namespace credo::graph {

/// Human-readable mode name ("none", "bfs", "rcm", "degree").
[[nodiscard]] std::string_view reorder_mode_name(ReorderMode mode) noexcept;

/// Case-insensitive parse of a mode name; nullopt for anything else.
[[nodiscard]] std::optional<ReorderMode> reorder_mode_from_name(
    std::string_view name) noexcept;

/// Throwing form for front ends: rejects unknown names with an
/// InvalidArgument that lists every valid mode (never a silent fallback).
[[nodiscard]] ReorderMode parse_reorder_mode(std::string_view name);

/// A bijection between original ("old") and reordered ("new") node ids,
/// stored in both directions so lookups are O(1) either way.
class Permutation {
 public:
  Permutation() = default;

  static Permutation identity(NodeId n);

  /// Builds from the visit sequence orderings produce: new_to_old[k] is
  /// the original id placed at new id k. Checked to be a bijection.
  static Permutation from_new_to_old(std::vector<NodeId> new_to_old);

  /// Composes two permutations applied in sequence: the result maps an
  /// original id through `first` then `then`.
  static Permutation compose(const Permutation& first,
                             const Permutation& then);

  [[nodiscard]] NodeId size() const noexcept {
    return static_cast<NodeId>(to_new_.size());
  }
  [[nodiscard]] bool is_identity() const noexcept;

  [[nodiscard]] NodeId to_new(NodeId old_id) const noexcept {
    return to_new_[old_id];
  }
  [[nodiscard]] NodeId to_old(NodeId new_id) const noexcept {
    return to_old_[new_id];
  }

  [[nodiscard]] Permutation inverse() const;

  /// Permutes a by-old-id vector into by-new-id order:
  /// out[to_new(i)] = in[i].
  template <typename T>
  [[nodiscard]] std::vector<T> apply(const std::vector<T>& by_old) const {
    CREDO_CHECK_MSG(by_old.size() == to_new_.size(),
                    "permutation size mismatch");
    std::vector<T> out(by_old.size());
    for (NodeId i = 0; i < by_old.size(); ++i) out[to_new_[i]] = by_old[i];
    return out;
  }

  /// Inverse of apply: maps a by-new-id vector back to by-old-id order,
  /// out[i] = in[to_new(i)].
  template <typename T>
  [[nodiscard]] std::vector<T> unapply(const std::vector<T>& by_new) const {
    CREDO_CHECK_MSG(by_new.size() == to_new_.size(),
                    "permutation size mismatch");
    std::vector<T> out(by_new.size());
    for (NodeId i = 0; i < by_new.size(); ++i) out[i] = by_new[to_new_[i]];
    return out;
  }

 private:
  std::vector<NodeId> to_new_;  // indexed by old id
  std::vector<NodeId> to_old_;  // indexed by new id
};

/// Computes the ordering for `mode` over the symmetrized edge list.
/// kNone yields the identity. kBfs visits each component breadth-first
/// from its smallest node id; kRcm is Cuthill-McKee from a minimum-degree
/// root with degree-sorted children, reversed; kDegree packs nodes by
/// descending degree (hubs share lines) with original-id tie-break.
[[nodiscard]] Permutation compute_order(ReorderMode mode, NodeId num_nodes,
                                        std::span<const DirectedEdge> edges);

/// A seeded uniform-random permutation — the "arbitrary on-disk id
/// assignment" baseline the locality benches and property tests relabel
/// inputs with.
[[nodiscard]] Permutation random_order(NodeId num_nodes, std::uint64_t seed);

/// Rebuilds `g` under `mode`: nodes renumbered by compute_order, edge list
/// re-sorted by (target, source), CSRs and joint store rebuilt, and the
/// permutation recorded in the result (composed with any permutation `g`
/// already carried) so BpResult beliefs still come back in the caller's
/// original ids. kNone returns `g` unchanged.
[[nodiscard]] FactorGraph reordered(const FactorGraph& g, ReorderMode mode);

/// Bakes an explicit relabeling into a *new* graph: same structure, node
/// ids renamed by `perm`, edge list re-sorted by source exactly as a fresh
/// parse would produce, and no permutation recorded — the result is
/// indistinguishable from having loaded the renamed graph from disk.
/// Requires `g` to carry no recorded permutation.
[[nodiscard]] FactorGraph relabeled(const FactorGraph& g,
                                    const Permutation& perm);

/// `g` in the caller's original ids: any recorded permutation folded out,
/// edges in (source, target) order, no permutation recorded — the form a
/// graph::DynamicGraph mutates. A graph without a permutation comes back
/// unchanged.
[[nodiscard]] FactorGraph original_order(const FactorGraph& g);

/// Locality summary of an ordering: average |src - dst| over directed
/// edges (the quantity BFS/RCM shrink) — reported by `credo info` and the
/// reorder bench.
[[nodiscard]] double mean_edge_span(const FactorGraph& g) noexcept;

}  // namespace credo::graph
