// Bulk residual BP (DESIGN.md §5f): the residual engine's schedule, run in
// parallel as synchronous rounds.
//
// Each round takes the highest-residual quarter of the active set from a
// BulkResidualSchedule and updates it as one fork/join region on the
// PoolBackend per kernel phase (LDPC: variables, then checks) — a dense
// frontier, like one omp-node sweep, reading neighbors in place (chaotic
// reads, §2.4). Updates whose delta clears the queue bar raise their
// children; the next round re-selects. The schedule needs no heap, lock
// or claim state: a node appears at most once in a selection, and between
// rounds the team is joined, so the drain test, the syndrome stop and the
// deadline polls all see a quiescent state.
//
// Composition over the runtime layer (DESIGN.md §5b): BulkResidualSchedule
// owns residuals and selection, run_round_loop owns the update budget,
// epochs and stops, the PoolBackend owns the region, and a family kernel
// (family_kernels.h) owns the node update.
#include <algorithm>
#include <span>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/family_kernels.h"
#include "bp/runtime/backend.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/driver.h"
#include "bp/runtime/belief_state.h"
#include "bp/runtime/schedule.h"

namespace credo::bp::internal {
namespace {

using graph::FactorGraph;
using graph::NodeId;

class BulkResidualEngine final : public Engine {
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
    Team team(hardware(), opts, stats.counters);
    perf::Meter main_meter(stats.counters);

    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);
    Kernel kernel(g, opts, ctl, state, main_meter);
    runtime::BulkResidualSchedule sched(g, ctl, team.backend.workers(),
                                        opts.frontier_seed.get());

    // One region per non-empty phase of a round (family_kernels.h).
    const NodeId boundary = kernel.phase_split();
    const auto run_phase = [&](std::span<const NodeId> nodes) {
      if (nodes.empty()) return 0.0;
      return team.backend.reduce_range(
          0, nodes.size(),
          [&](std::uint64_t lo, std::uint64_t hi, unsigned w,
              double& partial) {
            perf::Meter meter(team.sinks[w].counters);
            for (std::uint64_t qi = lo; qi < hi; ++qi) {
              meter.seq_read(sizeof(NodeId));  // selection entry
              const NodeId v = nodes[qi];
              sched.consume(meter, v);
              const float d = kernel.update(v, meter);
              partial += d;
              sched.record(w, meter, v, d);
            }
          });
    };

    runtime::run_round_loop(
        opts, g.num_nodes(), stats, ctl, sched,
        [&](std::uint64_t budget, double& delta) -> std::uint64_t {
          const auto round = sched.select(main_meter, budget);
          const auto split = static_cast<std::size_t>(
              std::partition(round.begin(), round.end(),
                             [&](NodeId v) { return v < boundary; }) -
              round.begin());
          delta = run_phase(round.first(split));
          delta += run_phase(round.subspan(split));
          sched.end_round();
          return round.size();
        },
        [&] { return kernel.syndrome_met(main_meter); },
        [&] {
          return snapshot_time(stats.counters, team.sinks, team.prof);
        });
    kernel.finish(stats, main_meter);
    finish(stats, team.prof, team.sinks);
    frontier = sched.release();
    return stats;
  }
};

}  // namespace

std::unique_ptr<Engine> make_bulk_residual(const perf::HardwareProfile& p) {
  return std::make_unique<BulkResidualEngine>(EngineKind::kBulkResidual, p);
}

}  // namespace credo::bp::internal
