// OpenMP-style CPU-parallel engines — the §2.4 study.
//
// Same algorithms as the sequential engines, with each main loop dispatched
// as one fork/join region over a thread team, the convergence sum done as a
// reduction, and the Edge engine's combines metered as atomic (§3.3). One
// parallel_region event is metered per dispatch; the cost model's fork/join
// and SMT terms are what reproduce the paper's finding that 2/4/8-thread
// OpenMP *slows BP down* (regions finish in well under a millisecond, so
// team wake/join overhead dominates).
//
// Composition over the runtime layer (DESIGN.md §5b): the PoolBackend owns
// the fork/join dispatch (and its parallel_region charge), the
// FragmentedNodeFrontier owns the §3.5 per-worker queue fragments, and the
// every-iteration controller owns thresholds and damping. The Node engine
// is one body over a family kernel (family_kernels.h).
#include <array>
#include <optional>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/family_kernels.h"
#include "bp/runtime/backend.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/driver.h"
#include "bp/runtime/init.h"
#include "bp/runtime/schedule.h"
#include "graph/metadata.h"
#include "parallel/thread_pool.h"
#include "perf/cost_model.h"
#include "util/error.h"
#include "util/timer.h"

namespace credo::bp::internal {
namespace {

using graph::BeliefVec;
using graph::EdgeId;
using graph::FactorGraph;
using graph::NodeId;
using parallel::ThreadPool;

class OmpEngineBase : public Engine {
 public:
  explicit OmpEngineBase(perf::HardwareProfile profile)
      : profile_(std::move(profile)) {
    CREDO_CHECK_MSG(profile_.kind == perf::PlatformKind::kCpuParallel,
                    "parallel engine requires a CPU-parallel profile");
  }

  [[nodiscard]] const perf::HardwareProfile& hardware()
      const noexcept override {
    return profile_;
  }

 protected:
  perf::HardwareProfile profile_;
};

// ---------------------------------------------------------------------------
// OpenMP Node
// ---------------------------------------------------------------------------

class OmpNodeEngine final : public OmpEngineBase {
 public:
  using OmpEngineBase::OmpEngineBase;

  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kOmpNode;
  }

 protected:
  [[nodiscard]] BpResult do_run(const FactorGraph& g,
                                const BpOptions& opts) const override {
    return graph::is_ldpc(g.family()) ? sweep<LdpcKernel>(g, opts)
                                      : sweep<TabularKernel>(g, opts);
  }

 private:
  template <typename Kernel>
  [[nodiscard]] BpResult sweep(const FactorGraph& g,
                               const BpOptions& opts) const {
    const util::Timer timer;
    const perf::HardwareProfile prof = effective_profile(profile_, opts);
    std::optional<ThreadPool> local_pool;
    ThreadPool& pool = select_pool(opts, prof, local_pool);
    std::vector<WorkerSink> sinks(pool.size());

    BpResult r;
    r.beliefs = runtime::initial_state(g, opts);
    perf::Meter main_meter(r.stats.counters);
    const auto& in = g.in_csr();

    runtime::FragmentedNodeFrontier sched(g, opts.work_queue, pool.size(),
                                          opts.frontier_seed.get());
    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);
    Kernel kernel(g, opts, ctl, r.beliefs, main_meter);
    std::vector<typename Kernel::Worker> workers(pool.size());
    runtime::PoolBackend backend(pool, opts, r.stats.counters);

    // A dense sweep on more than one worker runs the kernel's phases
    // (family_kernels.h) as separate regions, so its result does not
    // depend on thread timing; tabular graphs have a single phase.
    const std::uint64_t split =
        !sched.queued() && pool.size() > 1 ? kernel.phase_split() : 0;

    runtime::run_loop(
        opts, r.stats, ctl, sched,
        [&](std::uint32_t iter, runtime::IterationOutcome& out) {
          const std::uint64_t count = sched.size();
          // One parallel region per iteration (and phase): node loop + sum
          // reduction ("#pragma omp parallel for reduction(+:sum)").
          // Chunk-granular dispatch: the node loop lives here and inlines —
          // no type-erased call per element.
          const auto body = [&](std::uint64_t lo, std::uint64_t hi,
                                unsigned w, double& partial) {
            perf::Meter meter(sinks[w].counters);
            typename Kernel::Worker& worker = workers[w];
            for (std::uint64_t qi = lo; qi < hi; ++qi) {
              const NodeId v = sched.at(meter, qi);
              if (!sched.queued() && g.observed(v)) continue;
              if (in.degree(v) == 0) continue;  // no updates to combine
              // In-place (chaotic) reads: a neighbor may already hold
              // its new state this iteration — standard async BP.
              const float d = kernel.update(worker, v, meter);
              partial += d;
              if (sched.queued() && ctl.element_active(d)) {
                kernel.keep(meter, iter, v,
                            [&](NodeId u) { sched.keep(meter, w, u); });
              }
            }
          };
          if (split == 0 || split >= count) {
            out.delta = backend.reduce_range(0, count, body);
          } else {
            out.delta = backend.reduce_range(0, split, body) +
                        backend.reduce_range(split, count, body);
          }
          out.processed = count;
          if (ctl.should_check(iter) && kernel.syndrome_met(main_meter)) {
            out.delta = 0.0;  // decode succeeded: trip the global rule
          }
        },
        [] { return 0.0; },
        [&] { return snapshot_time(r.stats.counters, sinks, prof); });
    kernel.finish(r.stats, main_meter);
    finish(r, timer, prof, sinks);
    return r;
  }
};

// ---------------------------------------------------------------------------
// OpenMP Edge
// ---------------------------------------------------------------------------

class OmpEdgeEngine final : public OmpEngineBase {
 public:
  using OmpEngineBase::OmpEngineBase;

  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kOmpEdge;
  }

 protected:
  [[nodiscard]] BpResult do_run(const FactorGraph& g,
                                const BpOptions& opts) const override {
    const util::Timer timer;
    const perf::HardwareProfile prof = effective_profile(profile_, opts);
    std::optional<ThreadPool> local_pool;
    ThreadPool& pool = select_pool(opts, prof, local_pool);
    std::vector<WorkerSink> sinks(pool.size());

    BpResult r;
    r.beliefs = runtime::initial_state(g, opts);
    runtime::PoolBackend backend(pool, opts, r.stats.counters);
    if (graph::is_ldpc(g.family())) {
      // Closed-form families sweep Jacobi-style: reads come from the
      // previous snapshot and writes are node-disjoint, so the region
      // needs none of the accumulator form's atomic combines.
      jacobi_sweep<LdpcKernel>(g, opts, prof, backend, sinks, r);
      finish(r, timer, prof, sinks);
      return r;
    }
    const NodeId n = g.num_nodes();
    const auto& edges = g.edges();
    const auto& joints = g.joints();
    const auto md = graph::compute_metadata(g);
    const std::uint32_t b = md.beliefs;

    std::vector<float> acc(static_cast<std::size_t>(n) * b, 0.0f);
    perf::Meter main_meter(r.stats.counters);

    runtime::DenseSweep sched(edges.size());
    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);

    runtime::run_loop(
        opts, r.stats, ctl, sched,
        [&](std::uint32_t, runtime::IterationOutcome& out) {
          // Region 1: reset accumulators to the multiplicative identity.
          backend.for_range(
              0, n,
              [&](std::uint64_t lo, std::uint64_t hi, unsigned w) {
                perf::Meter meter(sinks[w].counters);
                for (std::uint64_t vi = lo; vi < hi; ++vi) {
                  const auto v = static_cast<NodeId>(vi);
                  const std::uint32_t arity = g.arity(v);
                  float* a = acc.data() + static_cast<std::size_t>(v) * b;
                  for (std::uint32_t s = 0; s < arity; ++s) a[s] = 0.0f;
                  meter.seq_write(4ull * arity);
                }
              });

          // Region 2: edge messages, combined destination-owned. Each
          // worker owns a node range and pulls that range's in-edges in
          // in-CSR order, which is ascending edge id: every accumulator
          // sums in c-edge's order and no two workers write one node.
          // Metering is unchanged per edge, including §3.3's atomic
          // combine — the modelled engine is the paper's edge-parallel
          // loop with atomicAdd. Blocks span node boundaries so the
          // batched message kernel runs full.
          backend.for_range(
              0, n,
              [&](std::uint64_t lo, std::uint64_t hi, unsigned w) {
                thread_local EdgeBlockScratch scratch;
                thread_local std::array<NodeId, graph::kEdgeBlock> dsts;
                perf::Meter meter(sinks[w].counters);
                std::size_t count = 0;
                const auto flush = [&] {
                  meter.flop(compute_block(joints, scratch, count));
                  for (std::size_t k = 0; k < count; ++k) {
                    const BeliefVec& msg = scratch.msgs[k];
                    float* a =
                        acc.data() + static_cast<std::size_t>(dsts[k]) * b;
                    for (std::uint32_t s = 0; s < msg.size; ++s) {
                      a[s] += log_msg(msg.v[s]);
                    }
                    meter.flop(2ull * msg.size);
                    meter.atomic(msg.size, 0);
                    meter.near_write(4ull * msg.size);
                  }
                  count = 0;
                };
                for (std::uint64_t vi = lo; vi < hi; ++vi) {
                  const auto v = static_cast<NodeId>(vi);
                  for (const auto& entry : g.in_csr().neighbors(v)) {
                    const EdgeId e = entry.edge;
                    const auto& ed = edges[e];
                    meter.seq_read(sizeof(ed));
                    const BeliefVec& src = r.beliefs[ed.src];
                    meter.seq_read(belief_bytes(src.size));
                    charge_joint_load(meter, joints, e);
                    scratch.srcs[count] = &src;
                    if (!joints.is_shared()) {
                      scratch.mats[count] = &joints.at(e);
                    }
                    dsts[count] = v;
                    if (++count == graph::kEdgeBlock) flush();
                  }
                }
                if (count > 0) flush();
              });
          out.processed = edges.size();
          // Deepest conflict chain: the hottest destination receives
          // max-in-degree combines per belief slot.
          main_meter.atomic(0, md.max_in_degree);

          // Region 3: marginalize + reduction.
          out.delta = backend.reduce_range(
              0, n,
              [&](std::uint64_t lo, std::uint64_t hi, unsigned w,
                  double& partial) {
                perf::Meter meter(sinks[w].counters);
                for (std::uint64_t vi = lo; vi < hi; ++vi) {
                  const auto v = static_cast<NodeId>(vi);
                  if (g.observed(v) || g.in_csr().degree(v) == 0) continue;
                  const std::uint32_t arity = g.arity(v);
                  BeliefVec nb;
                  meter.flop(softmax(
                      acc.data() + static_cast<std::size_t>(v) * b, arity,
                      nb));
                  meter.seq_read(4ull * arity);
                  meter.flop(ctl.damp(nb, r.beliefs[v]));
                  const float d = graph::l1_diff(r.beliefs[v], nb);
                  meter.flop(2ull * arity);
                  meter.seq_read(belief_bytes(arity));
                  graph::copy_belief(r.beliefs[v], nb);
                  meter.seq_write(belief_bytes(arity));
                  partial += d;
                }
              });
        },
        [] { return 0.0; },
        [&] { return snapshot_time(r.stats.counters, sinks, prof); });
    finish(r, timer, prof, sinks);
    return r;
  }
};

}  // namespace

std::unique_ptr<Engine> make_omp_node(const perf::HardwareProfile& p) {
  return std::make_unique<OmpNodeEngine>(p);
}

std::unique_ptr<Engine> make_omp_edge(const perf::HardwareProfile& p) {
  return std::make_unique<OmpEdgeEngine>(p);
}

}  // namespace credo::bp::internal
