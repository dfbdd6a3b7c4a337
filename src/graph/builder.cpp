#include "graph/builder.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/reorder.h"
#include "util/error.h"

namespace credo::graph {

void GraphBuilder::use_shared_joint(const JointMatrix& m) {
  CREDO_CHECK_MSG(per_edge_.empty(),
                  "cannot switch to a shared joint after per-edge matrices "
                  "were added");
  CREDO_CHECK_MSG(family_ == FactorFamily::kTabular,
                  "shared joint matrices apply only to the tabular family");
  CREDO_CHECK_MSG(m.rows == m.cols,
                  "a shared joint matrix must be square: every edge links "
                  "variables of the same arity");
  shared_ = m;
}

void GraphBuilder::use_family(FactorFamily f) {
  if (f == FactorFamily::kTabular) {
    CREDO_CHECK_MSG(family_ == FactorFamily::kTabular,
                    "cannot switch a closed-form builder back to tabular");
    return;
  }
  CREDO_CHECK_MSG(edges_.empty() && per_edge_.empty(),
                  "use_family must be called before edges are added");
  CREDO_CHECK_MSG(!shared_.has_value(),
                  "closed-form families are incompatible with a shared "
                  "joint matrix");
  family_ = f;
}

void GraphBuilder::set_ldpc_variables(NodeId v) {
  CREDO_CHECK_MSG(is_ldpc(family_),
                  "set_ldpc_variables requires an LDPC family "
                  "(use_family first)");
  ldpc_variables_ = v;
}

void GraphBuilder::reserve(NodeId nodes, std::uint64_t directed_edges) {
  priors_.reserve(nodes);
  observed_.reserve(nodes);
  names_.reserve(nodes);
  edges_.reserve(directed_edges);
  if (!shared_.has_value() && family_ == FactorFamily::kTabular) {
    per_edge_.reserve(directed_edges);
  }
}

NodeId GraphBuilder::add_node(const BeliefVec& prior, std::string name) {
  CREDO_CHECK_MSG(prior.size >= 1 && prior.size <= kMaxStates,
                  "node arity out of range");
  const auto id = static_cast<NodeId>(priors_.size());
  priors_.push_back(prior);
  observed_.push_back(0);
  if (!name.empty()) any_names_ = true;
  names_.push_back(std::move(name));
  return id;
}

NodeId GraphBuilder::add_observed_node(std::uint32_t arity,
                                       std::uint32_t state,
                                       std::string name) {
  const NodeId id = add_node(BeliefVec::observed(arity, state),
                             std::move(name));
  observed_[id] = 1;
  return id;
}

void GraphBuilder::observe(NodeId v, std::uint32_t state) {
  CREDO_CHECK_MSG(v < priors_.size(), "node id out of range");
  priors_[v] = BeliefVec::observed(priors_[v].size, state);
  observed_[v] = 1;
}

EdgeId GraphBuilder::add_edge(NodeId src, NodeId dst, const JointMatrix& m) {
  CREDO_CHECK_MSG(!shared_.has_value(),
                  "per-edge matrix supplied to a shared-joint builder");
  CREDO_CHECK_MSG(family_ == FactorFamily::kTabular,
                  "per-edge matrix supplied to a closed-form family builder");
  CREDO_CHECK_MSG(src < priors_.size() && dst < priors_.size(),
                  "edge endpoint out of range");
  if (m.rows != priors_[src].size || m.cols != priors_[dst].size) {
    throw util::InvalidArgument(
        "joint matrix shape does not match endpoint arities");
  }
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({src, dst});
  per_edge_.push_back(m);
  return id;
}

EdgeId GraphBuilder::add_edge(NodeId src, NodeId dst) {
  CREDO_CHECK_MSG(shared_.has_value() || family_ != FactorFamily::kTabular,
                  "matrix-free edge added before use_shared_joint() or "
                  "use_family()");
  CREDO_CHECK_MSG(src < priors_.size() && dst < priors_.size(),
                  "edge endpoint out of range");
  if (shared_.has_value() && (shared_->rows != priors_[src].size ||
                              shared_->cols != priors_[dst].size)) {
    throw util::InvalidArgument(
        "shared joint matrix shape does not match endpoint arities");
  }
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back({src, dst});
  return id;
}

EdgeId GraphBuilder::add_undirected(NodeId u, NodeId v,
                                    const JointMatrix& m) {
  const EdgeId first = add_edge(u, v, m);
  add_edge(v, u, m.transposed());
  return first;
}

EdgeId GraphBuilder::add_undirected(NodeId u, NodeId v) {
  const EdgeId first = add_edge(u, v);
  add_edge(v, u);
  return first;
}

FactorGraph GraphBuilder::finalize() {
  // Edges are stored sorted by source node, in insertion order within a
  // source: the edge engines then stream the source beliefs sequentially
  // (coalesced on the GPU), which is the access pattern the paper's Edge
  // paradigm relies on. One stable counting pass, O(n + m).
  const auto n = static_cast<NodeId>(priors_.size());
  const auto m = static_cast<EdgeId>(edges_.size());
  std::vector<EdgeId> order(m);  // order[k]: insertion index of edge k
  {
    std::vector<EdgeId> next(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& e : edges_) ++next[e.src + 1];
    for (NodeId v = 0; v < n; ++v) next[v + 1] += next[v];
    for (EdgeId i = 0; i < m; ++i) order[next[edges_[i].src]++] = i;
  }
  std::vector<DirectedEdge> sorted(m);
  for (EdgeId k = 0; k < m; ++k) sorted[k] = edges_[order[k]];
  Csr out = Csr::by_source(n, sorted);

  if (is_ldpc(family_)) {
    // Structural invariants the closed-form kernels rely on: the id-range
    // variable/check split, binary nodes, a bipartite variable<->check edge
    // set, and a reverse edge for every directed edge (the decoders store
    // one message per direction and exclude the reverse when updating).
    // Checked before anything leaves the builder, so a rejected finalize()
    // leaves it as it was.
    if (ldpc_variables_ == 0 || ldpc_variables_ >= n) {
      throw util::InvalidArgument(
          "LDPC graph needs variables in [1, num_nodes): call "
          "set_ldpc_variables");
    }
    for (const auto& p : priors_) {
      if (p.size != 2) {
        throw util::InvalidArgument("LDPC nodes must be binary (arity 2)");
      }
    }
    for (const auto& e : edges_) {
      if ((e.src < ldpc_variables_) == (e.dst < ldpc_variables_)) {
        throw util::InvalidArgument(
            "LDPC edges must connect a variable and a check node");
      }
    }
    // The reverse of s→d is among d's out-edges.
    for (const auto& e : sorted) {
      const auto row = out.neighbors(e.dst);
      if (std::none_of(row.begin(), row.end(), [&](const Csr::Entry& r) {
            return r.node == e.src;
          })) {
        throw util::InvalidArgument(
            "LDPC edges must come in directed pairs (Tanner-graph messages "
            "flow both ways)");
      }
    }
  }
  FactorGraph g;
  g.family_ = family_;
  g.ldpc_variables_ = ldpc_variables_;
  g.priors_ = std::move(priors_);
  g.observed_ = std::move(observed_);
  if (any_names_) g.names_ = std::move(names_);
  if (family_ != FactorFamily::kTabular) {
    g.joints_ = std::make_shared<JointStore>(JointStore::closed_form());
  } else if (shared_.has_value()) {
    g.joints_ = std::make_shared<JointStore>(JointStore::shared(*shared_));
  } else {
    std::vector<JointMatrix> permuted(m);
    for (EdgeId k = 0; k < m; ++k) permuted[k] = per_edge_[order[k]];
    g.joints_ = std::make_shared<JointStore>(
        JointStore::per_edge_from(std::move(permuted)));
  }
  *this = GraphBuilder();  // frees the insertion-order lists first
  FactorGraph::Topology topo;
  topo.in = Csr::by_target(n, sorted);
  topo.out = std::move(out);
  topo.edges = std::move(sorted);
  g.topo_ = std::make_shared<const FactorGraph::Topology>(std::move(topo));
  return g;
}

FactorGraph GraphBuilder::finalize(ReorderMode mode) {
  return reordered(finalize(), mode);
}

}  // namespace credo::graph
