// Locality-pass orderings and their application to FactorGraph.
#include "graph/reorder.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <utility>

#include "util/prng.h"

namespace credo::graph {
namespace {

/// Symmetrized adjacency for the ordering algorithms: neighbors of v over
/// the union of in- and out-edges (MRF pairs appear twice; BFS's visited
/// set and RCM's degree tie-break are insensitive to that). Built with the
/// same counting-sort pass as Csr, without edge ids.
struct SymmetricAdjacency {
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> neighbors;

  SymmetricAdjacency(NodeId n, std::span<const DirectedEdge> edges) {
    offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& e : edges) {
      ++offsets[e.src + 1];
      ++offsets[e.dst + 1];
    }
    for (std::size_t i = 1; i < offsets.size(); ++i) {
      offsets[i] += offsets[i - 1];
    }
    neighbors.resize(2 * edges.size());
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    for (const auto& e : edges) {
      neighbors[cursor[e.src]++] = e.dst;
      neighbors[cursor[e.dst]++] = e.src;
    }
  }

  [[nodiscard]] std::span<const NodeId> of(NodeId v) const noexcept {
    return {neighbors.data() + offsets[v],
            neighbors.data() + offsets[v + 1]};
  }
  [[nodiscard]] std::uint32_t degree(NodeId v) const noexcept {
    return static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]);
  }
};

/// Breadth-first visit sequence. Components are taken up in order of their
/// smallest-id (kBfs) or minimum-degree (kRcm) unvisited node;
/// `degree_sorted_children` additionally expands each node's neighbors in
/// increasing-degree order, which is the Cuthill-McKee rule.
std::vector<NodeId> bfs_sequence(const SymmetricAdjacency& adj, NodeId n,
                                 bool degree_sorted_children) {
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<NodeId> scratch;

  for (NodeId seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    NodeId root = seed;
    if (degree_sorted_children) {
      // Cheap pseudo-peripheral stand-in: the minimum-degree node of the
      // component (found by a scouting BFS), which empirically lands on
      // the rim rather than the middle.
      const std::size_t scout_begin = order.size();
      visited[root] = 1;
      order.push_back(root);
      for (std::size_t head = scout_begin; head < order.size(); ++head) {
        for (const NodeId w : adj.of(order[head])) {
          if (!visited[w]) {
            visited[w] = 1;
            order.push_back(w);
          }
        }
      }
      for (std::size_t i = scout_begin; i < order.size(); ++i) {
        if (adj.degree(order[i]) < adj.degree(root)) root = order[i];
        visited[order[i]] = 0;
      }
      order.resize(scout_begin);
    }

    visited[root] = 1;
    order.push_back(root);
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      const NodeId v = order[head];
      scratch.clear();
      for (const NodeId w : adj.of(v)) {
        if (!visited[w]) {
          visited[w] = 1;
          scratch.push_back(w);
        }
      }
      if (degree_sorted_children) {
        std::stable_sort(scratch.begin(), scratch.end(),
                         [&](NodeId a, NodeId b) {
                           return adj.degree(a) < adj.degree(b);
                         });
      }
      order.insert(order.end(), scratch.begin(), scratch.end());
    }
  }
  return order;
}

std::vector<NodeId> degree_sequence(const SymmetricAdjacency& adj,
                                    NodeId n) {
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  // Descending degree, original id as tie-break: the hottest accumulators
  // and beliefs (hubs) end up packed onto a handful of shared lines.
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return adj.degree(a) > adj.degree(b);
  });
  return order;
}

}  // namespace

std::string_view reorder_mode_name(ReorderMode mode) noexcept {
  switch (mode) {
    case ReorderMode::kNone: return "none";
    case ReorderMode::kBfs: return "bfs";
    case ReorderMode::kRcm: return "rcm";
    case ReorderMode::kDegree: return "degree";
  }
  return "unknown";
}

std::optional<ReorderMode> reorder_mode_from_name(
    std::string_view name) noexcept {
  std::string key;
  key.reserve(name.size());
  for (const char c : name) {
    key.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (key == "none") return ReorderMode::kNone;
  if (key == "bfs") return ReorderMode::kBfs;
  if (key == "rcm") return ReorderMode::kRcm;
  if (key == "degree") return ReorderMode::kDegree;
  return std::nullopt;
}

ReorderMode parse_reorder_mode(std::string_view name) {
  if (const auto mode = reorder_mode_from_name(name)) return *mode;
  throw util::InvalidArgument(
      "unknown reorder mode: " + std::string(name) +
      " (expected none|bfs|rcm|degree)");
}

Permutation Permutation::identity(NodeId n) {
  Permutation p;
  p.to_new_.resize(n);
  p.to_old_.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    p.to_new_[v] = v;
    p.to_old_[v] = v;
  }
  return p;
}

Permutation Permutation::from_new_to_old(std::vector<NodeId> new_to_old) {
  Permutation p;
  const auto n = static_cast<NodeId>(new_to_old.size());
  p.to_old_ = std::move(new_to_old);
  p.to_new_.assign(n, n);  // n = "unset" sentinel for the bijection check
  for (NodeId k = 0; k < n; ++k) {
    const NodeId old_id = p.to_old_[k];
    CREDO_CHECK_MSG(old_id < n && p.to_new_[old_id] == n,
                    "permutation is not a bijection");
    p.to_new_[old_id] = k;
  }
  return p;
}

Permutation Permutation::compose(const Permutation& first,
                                 const Permutation& then) {
  CREDO_CHECK_MSG(first.size() == then.size(),
                  "composed permutations must agree on size");
  const NodeId n = first.size();
  std::vector<NodeId> new_to_old(n);
  for (NodeId k = 0; k < n; ++k) {
    new_to_old[k] = first.to_old(then.to_old(k));
  }
  return from_new_to_old(std::move(new_to_old));
}

bool Permutation::is_identity() const noexcept {
  for (NodeId v = 0; v < to_new_.size(); ++v) {
    if (to_new_[v] != v) return false;
  }
  return true;
}

Permutation Permutation::inverse() const {
  Permutation p;
  p.to_new_ = to_old_;
  p.to_old_ = to_new_;
  return p;
}

Permutation compute_order(ReorderMode mode, NodeId num_nodes,
                          std::span<const DirectedEdge> edges) {
  if (mode == ReorderMode::kNone) return Permutation::identity(num_nodes);
  const SymmetricAdjacency adj(num_nodes, edges);
  std::vector<NodeId> order;
  switch (mode) {
    case ReorderMode::kBfs:
      order = bfs_sequence(adj, num_nodes, /*degree_sorted_children=*/false);
      break;
    case ReorderMode::kRcm:
      order = bfs_sequence(adj, num_nodes, /*degree_sorted_children=*/true);
      std::reverse(order.begin(), order.end());
      break;
    case ReorderMode::kDegree:
      order = degree_sequence(adj, num_nodes);
      break;
    case ReorderMode::kNone:
      break;  // handled above
  }
  return Permutation::from_new_to_old(std::move(order));
}

Permutation random_order(NodeId num_nodes, std::uint64_t seed) {
  std::vector<NodeId> order(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) order[v] = v;
  util::Prng rng(seed);
  // Fisher-Yates over the seeded Prng so relabelings are reproducible.
  for (NodeId i = num_nodes; i > 1; --i) {
    const auto j = static_cast<NodeId>(rng.uniform(i));
    std::swap(order[i - 1], order[j]);
  }
  return Permutation::from_new_to_old(std::move(order));
}

/// Private-member access for the locality pass (FactorGraph friend).
class ReorderAccess {
 public:
  /// Rebuilds `g` with node ids mapped through `perm` and the edge list
  /// stably sorted by `less` over the mapped endpoints; the CSRs and the
  /// joint store follow the edges. Records no permutation.
  template <typename Less>
  static FactorGraph apply(const FactorGraph& g, const Permutation& perm,
                           Less less) {
    const NodeId n = g.num_nodes();
    CREDO_CHECK_MSG(perm.size() == n, "permutation size mismatch");

    FactorGraph out;
    out.priors_ = perm.apply(g.priors_);
    out.observed_ = perm.apply(g.observed_);
    if (!g.names_.empty()) out.names_ = perm.apply(g.names_);

    // Remap endpoints, then sort edges (stably) carrying the original edge
    // ids along for the joint-store permutation.
    const auto& edges = g.edges();
    const auto m = static_cast<EdgeId>(edges.size());
    std::vector<DirectedEdge> mapped(m);
    for (EdgeId e = 0; e < m; ++e) {
      mapped[e] = {perm.to_new(edges[e].src), perm.to_new(edges[e].dst)};
    }
    std::vector<EdgeId> order(m);
    for (EdgeId e = 0; e < m; ++e) order[e] = e;
    std::stable_sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
      return less(mapped[a], mapped[b]);
    });
    std::vector<DirectedEdge> sorted(m);
    for (EdgeId e = 0; e < m; ++e) sorted[e] = mapped[order[e]];

    if (g.joints_->is_shared() || g.joints_->is_closed_form()) {
      // No per-edge payload to permute: share the immutable store itself.
      out.joints_ = g.joints_;
    } else {
      std::vector<JointMatrix> permuted(m);
      for (EdgeId e = 0; e < m; ++e) permuted[e] = g.joints_->at(order[e]);
      out.joints_ = std::make_shared<JointStore>(
          JointStore::per_edge_from(std::move(permuted)));
    }

    out.set_edges(std::move(sorted), n);
    return out;
  }

  /// The locality pass: edges sorted by (target, source) so consecutive
  /// combines hit warm accumulator lines, and the permutation recorded —
  /// composed with any `g` already carries, so un-permutation always lands
  /// back in the caller's *original* ids.
  static FactorGraph reorder(const FactorGraph& g, const Permutation& perm,
                             ReorderMode mode) {
    FactorGraph out = apply(g, perm, [](DirectedEdge a, DirectedEdge b) {
      return a.dst != b.dst ? a.dst < b.dst : a.src < b.src;
    });
    out.reorder_ = mode;
    out.perm_ = std::make_shared<const Permutation>(
        g.perm_ ? Permutation::compose(*g.perm_, perm) : perm);
    return out;
  }

  /// `g`'s recorded permutation folded out: original ids, edges in
  /// (source, target) order.
  static FactorGraph original(const FactorGraph& g) {
    return apply(g, g.perm_->inverse(), [](DirectedEdge a, DirectedEdge b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
  }
};

FactorGraph reordered(const FactorGraph& g, ReorderMode mode) {
  if (mode == ReorderMode::kNone) return g;
  if (g.family() != FactorFamily::kTabular) {
    // The LDPC families encode the variable/check split as id ranges
    // (DESIGN.md §5g); any relabeling would break that convention. LDPC
    // graphs are tiny (decode-under-load serving), so the locality pass
    // has nothing to win here anyway.
    throw util::InvalidArgument(
        "graph reordering applies only to the tabular family");
  }
  const Permutation perm = compute_order(mode, g.num_nodes(), g.edges());
  return ReorderAccess::reorder(g, perm, mode);
}

FactorGraph relabeled(const FactorGraph& g, const Permutation& perm) {
  CREDO_CHECK_MSG(g.permutation() == nullptr,
                  "relabeled() expects a graph without a recorded "
                  "permutation (relabel before reordering)");
  // The parser's by-source order: indistinguishable from a fresh parse.
  return ReorderAccess::apply(g, perm, [](DirectedEdge a, DirectedEdge b) {
    return a.src < b.src;
  });
}

FactorGraph original_order(const FactorGraph& g) {
  return g.permutation() == nullptr ? g : ReorderAccess::original(g);
}

double mean_edge_span(const FactorGraph& g) noexcept {
  if (g.num_edges() == 0) return 0.0;
  double sum = 0.0;
  for (const auto& e : g.edges()) {
    sum += std::abs(static_cast<double>(e.src) - static_cast<double>(e.dst));
  }
  return sum / static_cast<double>(g.num_edges());
}

}  // namespace credo::graph
