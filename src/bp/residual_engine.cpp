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
#include "bp/runtime/init.h"
#include "bp/runtime/schedule.h"
#include "graph/metadata.h"
#include "perf/cost_model.h"
#include "util/error.h"
#include "util/timer.h"

namespace credo::bp::internal {
namespace {

using graph::FactorGraph;
using graph::NodeId;

class ResidualEngine final : public Engine {
 public:
  explicit ResidualEngine(perf::HardwareProfile profile)
      : profile_(std::move(profile)) {
    CREDO_CHECK_MSG(profile_.kind == perf::PlatformKind::kCpuSerial,
                    "residual engine requires a serial CPU profile");
  }

  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kResidual;
  }

  [[nodiscard]] const perf::HardwareProfile& hardware()
      const noexcept override {
    return profile_;
  }

 protected:
  [[nodiscard]] BpResult do_run(const FactorGraph& g,
                                const BpOptions& opts) const override {
    return graph::is_ldpc(g.family()) ? drain<LdpcKernel>(g, opts)
                                      : drain<TabularKernel>(g, opts);
  }

 private:
  template <typename Kernel>
  [[nodiscard]] BpResult drain(const FactorGraph& g,
                               const BpOptions& opts) const {
    const util::Timer timer;
    BpResult r;
    r.beliefs = runtime::initial_state(g, opts);
    perf::Meter meter(r.stats.counters);

    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);
    Kernel kernel(g, opts, ctl, r.beliefs, meter);
    runtime::ResidualSchedule sched(g, ctl, meter, opts.frontier_seed.get());

    typename Kernel::Worker worker;
    runtime::run_priority_loop(
        opts, g.num_nodes(), r.stats, sched,
        [&](NodeId v) { return kernel.update(worker, v, meter); },
        [&] { return kernel.syndrome_met(meter); },
        [&] { return perf::model_time(r.stats.counters, profile_); });
    kernel.finish(r.stats, meter);
    finish(r, timer, profile_);
    return r;
  }

  perf::HardwareProfile profile_;
};

}  // namespace

std::unique_ptr<Engine> make_residual(const perf::HardwareProfile& p) {
  return std::make_unique<ResidualEngine>(p);
}

}  // namespace credo::bp::internal
