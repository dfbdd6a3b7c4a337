// Residual-prioritized BP — the extension the paper positions itself
// against (§5.1: Gonzalez et al.'s residual scheduling). Instead of
// sweeping all nodes per iteration (or a converged-filtered queue, §3.5),
// updates are scheduled by residual: the node whose belief moved most is
// updated next, and its change propagates to its children's priorities.
//
// Exact sequential implementation — the reference the parallel
// bulk-residual engine (bulk_residual_engine.cpp) is checked against. An
// "iteration" in the returned stats is a sweep-equivalent epoch of
// num_nodes updates; compare elements_processed with the sweep engines
// (the residual scheduler's selling point is doing far fewer updates to
// reach the same fixed point).
//
// Composition over the runtime layer (DESIGN.md §5b): the ResidualSchedule
// owns the lazy-deletion max-heap and reprioritization walk, the controller
// owns the per-element threshold and damping, run_priority_loop owns the
// update budget and telemetry epochs, and a family kernel
// (family_kernels.h) owns the node update.
#include <vector>

#include "bp/engines_internal.h"
#include "bp/family_kernels.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/driver.h"
#include "bp/runtime/belief_state.h"
#include "bp/runtime/schedule.h"
#include "graph/metadata.h"
#include "perf/cost_model.h"
#include "util/error.h"

namespace credo::bp::internal {
namespace {

using graph::FactorGraph;
using graph::NodeId;

class ResidualEngine final : public Engine {
 public:
  using Engine::Engine;

 protected:
  [[nodiscard]] BpStats do_run(const FactorGraph& g, const BpOptions& opts,
                               runtime::BeliefState& state,
                               Frontier& frontier) const override {
    return graph::is_ldpc(g.family())
               ? drain<LdpcKernel>(g, opts, state, frontier)
               : drain<TabularKernel>(g, opts, state, frontier);
  }

 private:
  template <typename Kernel>
  [[nodiscard]] BpStats drain(const FactorGraph& g, const BpOptions& opts,
                              runtime::BeliefState& state,
                              Frontier& frontier) const {
    BpStats stats;
    perf::Meter meter(stats.counters);

    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);
    Kernel kernel(g, opts, ctl, state, meter);
    runtime::ResidualSchedule sched(g, ctl, meter, opts.frontier_seed.get());

    runtime::run_priority_loop(
        opts, g.num_nodes(), stats, sched,
        [&](NodeId v) { return kernel.update(v, meter); },
        [&] { return kernel.syndrome_met(meter); },
        [&] { return perf::model_time(stats.counters, hardware()); });
    kernel.finish(stats, meter);
    finish(stats, hardware());
    frontier = sched.open();
    return stats;
  }
};

}  // namespace

std::unique_ptr<Engine> make_residual(const perf::HardwareProfile& p) {
  return std::make_unique<ResidualEngine>(EngineKind::kResidual, p);
}

}  // namespace credo::bp::internal
