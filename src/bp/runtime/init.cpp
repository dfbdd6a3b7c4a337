#include "bp/runtime/init.h"

#include <algorithm>

#include "graph/csr.h"

namespace credo::bp::runtime {

std::vector<graph::NodeId> expand_frontier_seed(
    const graph::FactorGraph& g, std::span<const graph::NodeId> touched) {
  const graph::Csr& in = g.in_csr();
  const graph::Csr& out = g.out_csr();
  const auto runnable = [&](graph::NodeId v) {
    return !g.observed(v) && in.degree(v) > 0;
  };
  std::vector<graph::NodeId> seed;
  seed.reserve(touched.size() * 2);
  for (const graph::NodeId v : touched) {
    if (runnable(v)) seed.push_back(v);
    // A touched node's new state reaches the graph through the messages it
    // sends; its children must recompute even when the node itself is
    // observed or a root (the engines skip both).
    for (const auto& e : out.neighbors(v)) {
      if (runnable(e.node)) seed.push_back(e.node);
    }
  }
  std::sort(seed.begin(), seed.end());
  seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
  return seed;
}

}  // namespace credo::bp::runtime
