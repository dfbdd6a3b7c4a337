// Non-loopy (two-pass, by-level) belief propagation — the traditional
// algorithm the paper uses as its §2.1.1 baseline.
//
// Pearl's collect/distribute schedule: BFS levels are computed from each
// component's root, an upward (ψ) sweep sends messages from the deepest
// level toward the roots, then a downward (φ) sweep distributes beliefs
// back out with message exclusion (the child's own upward message is
// divided back out). Exact on trees; on graphs with cycles only the BFS
// tree edges carry messages (the two-sweep approximation — the reason the
// paper moves to loopy BP for general graphs).
//
// The by-level ordering — including the baseline's "enormous overhead" of
// finding each level's members without an adjacency index
// (BpOptions::tree_naive) versus the CSR-indexed walk — lives in
// runtime::TreeLevels (DESIGN.md §5b); this file keeps only Pearl's
// message mathematics. There is no convergence loop: the two sweeps are
// the whole schedule, so the stats report two fixed "iterations" (and two
// trace records when tracing).
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/runtime/belief_state.h"
#include "bp/runtime/schedule.h"
#include "perf/cost_model.h"
#include "util/error.h"

namespace credo::bp::internal {
namespace {

using graph::BeliefVec;
using graph::DirectedEdge;
using graph::EdgeId;
using graph::FactorGraph;
using graph::NodeId;

class TreeEngine final : public Engine {
 public:
  using Engine::Engine;

 protected:
  [[nodiscard]] BpStats do_run(const FactorGraph& g, const BpOptions& opts,
                               runtime::BeliefState& state,
                               Frontier& /*frontier*/) const override {
    BpStats stats;
    perf::Meter meter(stats.counters);
    const NodeId n = g.num_nodes();
    const auto& edges = g.edges();

    // By-level schedule: BFS levels rooted at each component's smallest
    // node id, computed in the mode's cost regime (naive relaxation vs
    // indexed BFS).
    const runtime::TreeLevels levels(g, opts.tree_naive, meter);
    const std::uint32_t max_level = levels.max_level();

    // Reverse-edge lookup for message exclusion (u,v) -> edge id.
    std::unordered_map<std::uint64_t, EdgeId> reverse;
    reverse.reserve(edges.size());
    for (EdgeId e = 0; e < edges.size(); ++e) {
      reverse[(static_cast<std::uint64_t>(edges[e].src) << 32) |
              edges[e].dst] = e;
    }

    // ---- Pass 1 (ψ / collect): deepest level -> roots ----
    // up[v] = prior(v) * Π_{children c} upmsg(c -> v).
    std::vector<BeliefVec> up(n);
    for (NodeId v = 0; v < n; ++v) up[v] = g.prior(v);
    std::vector<BeliefVec> upmsg(edges.size());  // keyed by edge (c -> p)
    BeliefVec msg;
    auto process_up_edge = [&](EdgeId e) {
      const auto& ed = edges[e];
      ++stats.elements_processed;
      meter.rand_read(belief_bytes(up[ed.src].size));
      charge_joint_load(meter, g.joints(), e);
      meter.flop(graph::compute_message(up[ed.src], g.joints().at(e), msg));
      upmsg[e] = msg;
      meter.rand_write(belief_bytes(msg.size));
      meter.flop(graph::combine(up[ed.dst], msg));
      meter.rand_read(belief_bytes(msg.size));
      meter.rand_write(belief_bytes(msg.size));
    };
    for (std::uint32_t l = max_level; l >= 1; --l) {
      levels.for_edges(g, l, l - 1, meter, process_up_edge);
      if (l == 1) break;
    }
    const std::uint64_t pass1_edges = stats.elements_processed;
    if (opts.collect_trace) {
      // The sweeps carry no convergence delta (the result is exact on
      // trees), so the records report structure only.
      stats.trace.push_back(runtime::IterationRecord{
          1, 0.0, false, pass1_edges, pass1_edges,
          perf::model_time(stats.counters, hardware())});
    }

    // ---- Pass 2 (φ / distribute): roots -> deepest level ----
    // down[v]: the parent's message into v; ones at the roots.
    std::vector<BeliefVec> down(n);
    for (NodeId v = 0; v < n; ++v) {
      down[v] = BeliefVec::ones(g.arity(v));
    }
    auto process_down_edge = [&](EdgeId e) {
      const auto& ed = edges[e];  // p -> c
      ++stats.elements_processed;
      // Exclusion: belief-so-far at p with c's own upward message divided
      // back out.
      BeliefVec excl = up[ed.src];
      meter.rand_read(belief_bytes(excl.size));
      meter.flop(graph::combine(excl, down[ed.src]));
      meter.rand_read(belief_bytes(excl.size));
      const auto rev = reverse.find(
          (static_cast<std::uint64_t>(ed.dst) << 32) | ed.src);
      if (rev != reverse.end() && upmsg[rev->second].size == excl.size) {
        const BeliefVec& um = upmsg[rev->second];
        meter.rand_read(belief_bytes(um.size));
        for (std::uint32_t s = 0; s < excl.size; ++s) {
          const float d = um.v[s] < kMsgFloor ? kMsgFloor : um.v[s];
          excl.v[s] /= d;
        }
        meter.flop(excl.size);
      }
      graph::normalize(excl);
      meter.flop(2ull * excl.size);
      charge_joint_load(meter, g.joints(), e);
      meter.flop(graph::compute_message(excl, g.joints().at(e), msg));
      meter.flop(graph::combine(down[ed.dst], msg));
      meter.rand_write(belief_bytes(msg.size));
    };
    for (std::uint32_t l = 0; l < max_level; ++l) {
      levels.for_edges(g, l, l + 1, meter, process_down_edge);
    }
    if (opts.collect_trace) {
      const std::uint64_t pass2_edges =
          stats.elements_processed - pass1_edges;
      stats.trace.push_back(runtime::IterationRecord{
          2, 0.0, false, pass2_edges, pass2_edges,
          perf::model_time(stats.counters, hardware())});
    }

    // ---- Marginalize into the packed state (observed nodes keep the
    // point mass it was packed with) ----
    for (NodeId v = 0; v < n; ++v) {
      if (g.observed(v)) continue;
      BeliefVec belief = up[v];
      meter.flop(graph::combine(belief, down[v]));
      graph::normalize(belief);
      meter.flop(2ull * belief.size);
      state.store(v, belief);
      meter.seq_write(belief_bytes(belief.size));
    }

    stats.iterations = 2;  // the two sweeps
    stats.converged = true;
    finish(stats, hardware());
    return stats;
  }

};

}  // namespace

std::unique_ptr<Engine> make_tree(const perf::HardwareProfile& p) {
  return std::make_unique<TreeEngine>(EngineKind::kTree, p);
}

}  // namespace credo::bp::internal
