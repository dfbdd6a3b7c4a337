// Relaxed concurrent residual engines (DESIGN.md §5f).
//
// Same update body as the sequential residual engine — one family kernel
// (family_kernels.h) — but the schedule is one of the relaxed concurrent
// policies of mq_schedule.h and the drain runs as ONE fork/join region
// over the team:
//
//  * Residual MQ ("residual-mq") — MultiQueueSchedule: each worker loops
//    pop/update/record against k sharded heaps. Pops are approximately
//    max-residual, which preserves residual scheduling's update efficiency
//    while removing the exact engine's single serial heap. With one shard
//    it is the "residual-locked" baseline: one exact heap behind one lock.
//
//  * Splash ("splash") — SplashSchedule: each pop claims a root, grows a
//    bounded disjoint BFS subtree (graph::bfs_subtree) and sweeps it
//    leaf→root→leaf as one batch, amortizing the priority pop over
//    splash_max_size cache-friendly updates.
//
// Like the OpenMP engines, reads are in-place (chaotic): a worker may read
// a parent mid-write by another worker. The claim flags guarantee no two
// workers ever *update* the same node concurrently, which is the invariant
// residual splash needs; torn parent reads are the standard async-BP
// relaxation the §2.4 engines already make.
#include <atomic>
#include <optional>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/family_kernels.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/driver.h"
#include "bp/runtime/init.h"
#include "bp/runtime/mq_schedule.h"
#include "bp/runtime/observe.h"
#include "parallel/thread_pool.h"
#include "perf/cost_model.h"
#include "util/error.h"
#include "util/timer.h"

namespace credo::bp::internal {
namespace {

using graph::FactorGraph;
using graph::NodeId;
using parallel::ThreadPool;

class RelaxedEngine final : public Engine {
 public:
  /// `kind` is residual-locked, residual-mq or splash.
  RelaxedEngine(perf::HardwareProfile profile, EngineKind kind)
      : profile_(std::move(profile)), kind_(kind) {
    CREDO_CHECK_MSG(profile_.kind == perf::PlatformKind::kCpuParallel,
                    "relaxed priority engine requires a CPU-parallel "
                    "profile");
  }

  [[nodiscard]] EngineKind kind() const noexcept override { return kind_; }

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
    const NodeId n = g.num_nodes();

    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);
    Kernel kernel(g, opts, ctl, r.beliefs, main_meter);
    std::vector<typename Kernel::Worker> workers(pool.size());

    // The whole drain is one fork/join region (vs. one per sweep for the
    // §2.4 engines): team wake/join is paid once per run.
    main_meter.parallel_region();

    std::atomic<float> last_delta{0.0f};
    const auto run = [&](auto& sched, auto&& step) {
      runtime::run_relaxed_priority_loop(
          opts, n, r.stats, sched, pool,
          [&](unsigned w) -> std::uint64_t {
            perf::Meter meter(sinks[w].counters);
            return step(w, workers[w], meter);
          },
          // Runs under the driver's epoch mutex, charged to the main
          // counters, while the rest of the team keeps updating: a pass
          // is provisional until kernel.finish re-checks the joined state.
          [&] { return kernel.syndrome_met(main_meter); },
          [&] { return snapshot_time(r.stats.counters, sinks, prof); });
      const runtime::SchedStats ss = sched.stats();
      runtime::observe_sched_run(ss.pops, ss.stale_pops, ss.inversions,
                                 sched.heap_peaks());
    };

    if (kind_ == EngineKind::kSplash) {
      runtime::SplashSchedule sched(g, ctl, pool.size(),
                                    opts.sched_queues_per_thread,
                                    opts.splash_max_size, kSchedSeed,
                                    opts.frontier_seed.get());
      // Per-worker splash scratch: the subtree and its per-node deltas.
      struct SplashScratch {
        std::vector<NodeId> sub;
        std::vector<float> deltas;       // total change across the splash
        std::vector<float> last_deltas;  // change of the final-pass update
      };
      std::vector<SplashScratch> scratches(pool.size());
      run(sched, [&](unsigned w, typename Kernel::Worker& kw,
                     perf::Meter& meter) -> std::uint64_t {
        SplashScratch& sc = scratches[w];
        if (!sched.try_pop_subtree(w, meter, sc.sub)) return 0;
        const std::size_t m = sc.sub.size();
        sc.deltas.assign(m, 0.0f);
        sc.last_deltas.resize(m);
        kernel.splash_begin(kw, sc.sub, meter);
        // Leaf→root half-sweep (skipped for a lone root), then
        // root→leaf: information flows up the subtree and back down in
        // one batch — two updates per node instead of two pops.
        if (m > 1) {
          for (std::size_t i = m; i-- > 0;) {
            sc.deltas[i] += kernel.splash_update(kw, sc.sub[i], meter);
          }
        }
        float last = 0.0f;
        for (std::size_t i = 0; i < m; ++i) {
          sc.last_deltas[i] = kernel.splash_update(kw, sc.sub[i], meter);
          sc.deltas[i] =
              kernel.splash_delta(kw, i, sc.sub[i],
                                  sc.deltas[i] + sc.last_deltas[i], meter);
          last = sc.deltas[i];
        }
        sched.record_subtree(w, meter, sc.sub, sc.deltas, sc.last_deltas);
        last_delta.store(last, std::memory_order_relaxed);
        return m > 1 ? 2 * m : 1;
      });
    } else {
      runtime::MultiQueueSchedule sched(
          g, ctl, pool.size(), opts.sched_queues_per_thread, kSchedSeed,
          kind_ == EngineKind::kResidualLocked ? 1u : 0u,
          opts.frontier_seed.get());
      run(sched, [&](unsigned w, typename Kernel::Worker& kw,
                     perf::Meter& meter) -> std::uint64_t {
        NodeId v = 0;
        if (!sched.try_pop(w, meter, v)) return 0;
        const float d = kernel.update(kw, v, meter);
        sched.record(w, meter, v, d);
        last_delta.store(d, std::memory_order_relaxed);
        return 1;
      });
    }
    r.stats.final_delta = last_delta.load(std::memory_order_relaxed);
    kernel.finish(r.stats, main_meter, /*settled=*/false);
    finish(r, timer, prof, sinks);
    return r;
  }

  perf::HardwareProfile profile_;
  EngineKind kind_;
};

}  // namespace

std::unique_ptr<Engine> make_residual_locked(const perf::HardwareProfile& p) {
  return std::make_unique<RelaxedEngine>(p, EngineKind::kResidualLocked);
}

std::unique_ptr<Engine> make_residual_mq(const perf::HardwareProfile& p) {
  return std::make_unique<RelaxedEngine>(p, EngineKind::kResidualMq);
}

std::unique_ptr<Engine> make_splash(const perf::HardwareProfile& p) {
  return std::make_unique<RelaxedEngine>(p, EngineKind::kSplash);
}

}  // namespace credo::bp::internal
