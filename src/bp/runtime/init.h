// Frontier-seed expansion for incremental re-convergence (DESIGN.md §5h).
// Seeds are expanded once, in Engine::run, so the schedules receive the
// final internal-id node list. (The warm overlay a seeded run starts from
// is packed by runtime::BeliefState.)
#pragma once

#include <span>
#include <vector>

#include "graph/factor_graph.h"

namespace credo::bp::runtime {

/// Expands the touched-node list of an evidence delta into the node set a
/// schedule should start from: the touched nodes plus their out-neighbors
/// (evidence on observed nodes and roots is only visible through their
/// children — the engines `continue` past both), filtered to nodes an
/// engine would actually process (unobserved, in-degree > 0), sorted and
/// deduplicated. Ids are the graph's internal ids.
[[nodiscard]] std::vector<graph::NodeId> expand_frontier_seed(
    const graph::FactorGraph& g, std::span<const graph::NodeId> touched);

}  // namespace credo::bp::runtime
