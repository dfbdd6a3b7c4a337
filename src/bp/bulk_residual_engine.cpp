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
#include <optional>
#include <span>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/family_kernels.h"
#include "bp/runtime/backend.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/driver.h"
#include "bp/runtime/init.h"
#include "bp/runtime/schedule.h"
#include "parallel/thread_pool.h"
#include "util/error.h"
#include "util/timer.h"

namespace credo::bp::internal {
namespace {

using graph::FactorGraph;
using graph::NodeId;
using parallel::ThreadPool;

class BulkResidualEngine final : public Engine {
 public:
  explicit BulkResidualEngine(perf::HardwareProfile profile)
      : profile_(std::move(profile)) {
    CREDO_CHECK_MSG(profile_.kind == perf::PlatformKind::kCpuParallel,
                    "bulk-residual engine requires a CPU-parallel profile");
  }

  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kBulkResidual;
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
    const perf::HardwareProfile prof = effective_profile(profile_, opts);
    std::optional<ThreadPool> local_pool;
    ThreadPool& pool = select_pool(opts, prof, local_pool);
    std::vector<WorkerSink> sinks(pool.size());

    BpResult r;
    r.beliefs = runtime::initial_state(g, opts);
    perf::Meter main_meter(r.stats.counters);

    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);
    Kernel kernel(g, opts, ctl, r.beliefs, main_meter);
    std::vector<typename Kernel::Worker> workers(pool.size());
    runtime::BulkResidualSchedule sched(g, ctl, pool.size(),
                                        opts.frontier_seed.get());
    runtime::PoolBackend backend(pool, opts, r.stats.counters);

    // One region per non-empty phase of a round (family_kernels.h).
    const NodeId boundary = kernel.phase_split();
    const auto run_phase = [&](std::span<const NodeId> nodes) {
      if (nodes.empty()) return 0.0;
      return backend.reduce_range(
          0, nodes.size(),
          [&](std::uint64_t lo, std::uint64_t hi, unsigned w,
              double& partial) {
            perf::Meter meter(sinks[w].counters);
            typename Kernel::Worker& worker = workers[w];
            for (std::uint64_t qi = lo; qi < hi; ++qi) {
              meter.seq_read(sizeof(NodeId));  // selection entry
              const NodeId v = nodes[qi];
              sched.consume(meter, v);
              const float d = kernel.update(worker, v, meter);
              partial += d;
              sched.record(w, meter, v, d);
            }
          });
    };

    runtime::run_round_loop(
        opts, g.num_nodes(), r.stats, ctl, sched,
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
        [&] { return snapshot_time(r.stats.counters, sinks, prof); });
    kernel.finish(r.stats, main_meter);
    finish(r, timer, prof, sinks);
    return r;
  }

  perf::HardwareProfile profile_;
};

}  // namespace

std::unique_ptr<Engine> make_bulk_residual(const perf::HardwareProfile& p) {
  return std::make_unique<BulkResidualEngine>(p);
}

}  // namespace credo::bp::internal
