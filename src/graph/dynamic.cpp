#include "graph/dynamic.h"

#include <utility>

#include "graph/reorder.h"

namespace credo::graph {

DynamicGraph DynamicGraph::from_graph(const FactorGraph& g) {
  if (is_ldpc(g.family()) || g.joints().is_closed_form()) {
    throw util::InvalidArgument(
        "DynamicGraph: closed-form (LDPC) graphs encode a fixed code and "
        "cannot be mutated");
  }
  DynamicGraph dg;
  dg.mode_ = g.reorder_mode();
  dg.current_ = std::make_shared<const FactorGraph>(original_order(g));
  dg.removed_.assign(g.num_nodes(), 0);
  return dg;
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const noexcept {
  const auto out_edge = [this](NodeId src, NodeId dst) {
    for (const Csr::Entry& e : current_->out_csr().neighbors(src)) {
      if (e.node == dst) return true;
    }
    return false;
  };
  return out_edge(u, v) || out_edge(v, u);
}

util::Status DynamicGraph::apply(const GraphDelta& d) {
  auto next = d.applied(*current_, &removed_, &last_touched_);
  if (!next.is_ok()) return next.status();
  current_ = std::make_shared<const FactorGraph>(std::move(next).value());
  ++version_;
  snap_.reset();
  return util::Status::ok();
}

std::shared_ptr<const FactorGraph> DynamicGraph::snapshot() {
  if (mode_ == ReorderMode::kNone) return current_;
  if (snap_ == nullptr) {
    snap_ = std::make_shared<const FactorGraph>(reordered(*current_, mode_));
  }
  return snap_;
}

std::vector<BeliefVec> DynamicGraph::patch_beliefs(
    const std::vector<BeliefVec>& prev) const {
  std::vector<BeliefVec> out = prev;
  out.resize(num_nodes());
  for (std::size_t v = prev.size(); v < out.size(); ++v) {
    out[v] = current_->prior(static_cast<NodeId>(v));
  }
  for (const NodeId v : last_touched_) out[v] = current_->prior(v);
  return out;
}

}  // namespace credo::graph
