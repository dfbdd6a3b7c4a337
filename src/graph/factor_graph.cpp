#include "graph/factor_graph.h"

namespace credo::graph {

std::string_view family_name(FactorFamily f) noexcept {
  switch (f) {
    case FactorFamily::kTabular: return "tabular";
    case FactorFamily::kLdpcSumProduct: return "ldpc-sum-product";
    case FactorFamily::kLdpcMinSum: return "ldpc-min-sum";
  }
  return "unknown";
}

std::optional<FactorFamily> family_from_name(std::string_view name) noexcept {
  if (name == "tabular") return FactorFamily::kTabular;
  if (name == "ldpc-sum-product" || name == "ldpc") {
    return FactorFamily::kLdpcSumProduct;
  }
  if (name == "ldpc-min-sum") return FactorFamily::kLdpcMinSum;
  return std::nullopt;
}

const std::shared_ptr<const FactorGraph::Topology>&
FactorGraph::empty_topology() {
  static const auto empty = std::make_shared<const Topology>();
  return empty;
}

void FactorGraph::set_edges(std::vector<DirectedEdge> edges,
                            NodeId num_nodes) {
  Topology t;
  t.in = Csr::by_target(num_nodes, edges);
  t.out = Csr::by_source(num_nodes, edges);
  t.edges = std::move(edges);
  topo_ = std::make_shared<const Topology>(std::move(t));
}

std::uint64_t FactorGraph::memory_bytes() const noexcept {
  std::uint64_t total = 0;
  total += priors_.size() * sizeof(BeliefVec);
  total += observed_.size() * sizeof(std::uint8_t);
  total += topo_->edges.size() * sizeof(DirectedEdge);
  total += joints_->payload_bytes();
  total += topo_->in.index_bytes();
  total += topo_->out.index_bytes();
  for (const auto& n : names_) total += n.capacity();
  return total;
}

}  // namespace credo::graph
