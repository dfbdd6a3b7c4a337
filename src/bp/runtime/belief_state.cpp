#include "bp/runtime/belief_state.h"

#include <algorithm>

#include "graph/reorder.h"
#include "util/error.h"

namespace credo::bp::runtime {

BeliefState::BeliefState(const graph::FactorGraph& g, const BpOptions& opts) {
  const graph::NodeId n = g.num_nodes();
  arity_.resize(n);
  std::uint32_t widest = 0;
  for (graph::NodeId v = 0; v < n; ++v) {
    arity_[v] = static_cast<std::uint8_t>(g.arity(v));
    widest = std::max(widest, g.arity(v));
  }
  stride_ = graph::padded_states(widest);
  lanes_.assign(static_cast<std::size_t>(n) * stride_, 0.0f);

  const std::vector<graph::BeliefVec>* warm = opts.init_beliefs.get();
  CREDO_CHECK_MSG(warm == nullptr || warm->size() == n,
                  "init_beliefs size mismatch (Engine::run checks this)");
  const graph::Permutation* perm = g.permutation();
  for (graph::NodeId v = 0; v < n; ++v) {
    const graph::BeliefVec* src = &g.prior(v);
    if (warm != nullptr && !g.observed(v)) {  // evidence stays pinned
      src = &(*warm)[perm != nullptr ? perm->to_old(v) : v];
      if (src->size != arity_[v]) {
        throw util::InvalidArgument(
            "BpOptions: init_beliefs arity mismatch — warm state does not "
            "match this graph's node arities");
      }
    }
    std::copy_n(src->v.data(), arity_[v], lanes(v));
  }
}

void BeliefState::store(graph::NodeId v, const graph::BeliefVec& b) noexcept {
  std::copy_n(b.v.data(), arity_[v], lanes(v));
}

void BeliefState::unpack(const graph::Permutation* perm,
                         std::span<graph::BeliefVec> out) const {
  CREDO_CHECK_MSG(out.size() == size(), "unpack: one belief per node");
  for (graph::NodeId i = 0; i < size(); ++i) {
    const graph::NodeId v = perm != nullptr ? perm->to_new(i) : i;
    out[i].size = arity_[v];
    std::copy_n(lanes(v), stride_, out[i].v.data());
  }
}

}  // namespace credo::bp::runtime
