// The CPU sweep engines: the paper's sequential "C" engines (§3.6) and
// their OpenMP-style forms (§2.4), one body per paradigm.
//
// Both paradigms follow Algorithm 1. The Node engine pulls from parents per
// node with in-place (chaotic/Gauss-Seidel) updates: each node keeps a
// local previous copy for the convergence diff and reads whatever its
// neighbors' current beliefs are, exactly as lines 5-12 describe. The Edge
// engine pushes one message per directed edge into log-space accumulators
// (the combine that must be atomic in the parallel engines, §3.3).
//
// Each body is a template over the execution backend (DESIGN.md §5b): c-node
// and c-edge run it inline on the SequentialBackend with the engine's serial
// profile; omp-node and omp-edge run it on a Team — each main loop one
// fork/join region, the convergence sum a reduction. The backend's kTeam
// adds the events the cost model charges a thread team: one parallel_region
// per dispatch, the §3.5 shared queue cursor and the §3.3 atomic combine.
// Its fork/join and SMT terms reproduce the paper's finding that 2/4/8-
// thread OpenMP *slows BP down* (regions finish in well under a
// millisecond, so team wake/join overhead dominates).
//
// The Node body runs a family kernel (family_kernels.h). The Edge body's
// accumulator form is tabular; other families run the shared Jacobi sweep,
// and c-edge's incremental queued form (§3.5) is sequential only.
#include <array>
#include <span>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/family_kernels.h"
#include "bp/runtime/backend.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/driver.h"
#include "bp/runtime/belief_state.h"
#include "bp/runtime/schedule.h"
#include "graph/metadata.h"
#include "perf/cost_model.h"

namespace credo::bp::internal {
namespace {

using graph::BeliefVec;
using graph::EdgeId;
using graph::FactorGraph;
using graph::NodeId;

/// Runs `sweep(backend, sinks, prof, stats)` on the engine's backend —
/// inline on one sink for the serial kinds, on the run's Team for the
/// CPU-parallel ones — then folds the sinks into the stats.
template <typename Sweep>
BpStats run_on_backend(const Engine& engine, const BpOptions& opts,
                       Sweep&& sweep) {
  BpStats stats;
  if (engine.hardware().kind == perf::PlatformKind::kCpuSerial) {
    runtime::SequentialBackend backend;
    std::vector<WorkerSink> sinks(1);
    sweep(backend, std::span<WorkerSink>(sinks), engine.hardware(), stats);
    finish(stats, engine.hardware(), sinks);
  } else {
    Team team(engine.hardware(), opts, stats.counters);
    sweep(team.backend, std::span<WorkerSink>(team.sinks), team.prof, stats);
    finish(stats, team.prof, team.sinks);
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Node paradigm: c-node and omp-node.
// ---------------------------------------------------------------------------

/// One region per iteration (and kernel phase) over the frontier: each
/// scheduled node runs the kernel's update, the deltas reduce into the
/// convergence sum, and still-active nodes re-enqueue (§3.5). Each worker
/// meters into its sink; set-up, syndrome checks and finalization go to the
/// main counters.
template <typename Kernel, typename Backend>
void node_sweep(const FactorGraph& g, const BpOptions& opts,
                const perf::HardwareProfile& prof, Backend& backend,
                std::span<WorkerSink> sinks, runtime::BeliefState& state,
                BpStats& stats, Frontier& frontier) {
  perf::Meter main_meter(stats.counters);
  const auto& in = g.in_csr();

  // Work queue (§3.5): indices of unconverged nodes; starts full — or
  // from the perturbed region on a seeded warm re-query (§5h).
  runtime::NodeFrontier sched(g, opts.work_queue, backend.workers(),
                              opts.frontier_seed.get());
  const runtime::ConvergenceController ctl(
      opts, runtime::ConvergenceController::Cadence::kEveryIteration);
  Kernel kernel(g, opts, ctl, state, main_meter);

  // Per-worker count of the nodes it updated, cache-line padded.
  struct alignas(64) Lane {
    std::uint64_t updated = 0;
  };
  std::vector<Lane> lanes(backend.workers());

  // More than one worker runs the kernel's phases (family_kernels.h) as
  // separate regions, dense or queued, so no node reads a message another
  // worker is writing and the result does not depend on thread timing.
  // Tabular graphs have a single phase.
  const NodeId split = kernel.phase_split();
  const bool phased = backend.workers() > 1 && split < g.num_nodes();

  runtime::run_loop(
      opts, stats, ctl, sched,
      [&](std::uint32_t iter, runtime::IterationOutcome& out) {
        const std::uint64_t count = sched.size();
        // "#pragma omp parallel for reduction(+:sum)" on a team. The node
        // loop lives here and inlines — no type-erased call per element.
        const auto body = [&](std::uint64_t lo, std::uint64_t hi,
                              unsigned w, double& partial) {
          perf::Meter meter(sinks[w].counters);
          Lane& lane = lanes[w];
          for (std::uint64_t qi = lo; qi < hi; ++qi) {
            const NodeId v = sched.at(meter, qi);
            if (!sched.queued() && g.observed(v)) continue;
            // A node with no incoming edges receives no updates: its
            // belief keeps its current (initial) value.
            if (in.degree(v) == 0) continue;
            ++lane.updated;
            // In-place (chaotic) reads: on a team a neighbor may already
            // hold its new state this iteration — standard async BP.
            const float d = kernel.update(v, meter);
            partial += d;
            if (sched.queued() && ctl.element_active(d)) {
              kernel.keep(meter, iter, v, [&](NodeId u) {
                sched.keep<Backend::kTeam>(meter, w, u);
              });
            }
          }
        };
        // A queued round is partitioned at the split first, variables
        // first, as unmetered host bookkeeping like the frontier's advance.
        std::uint64_t mid = count;
        if (phased) mid = sched.queued() ? sched.partition(split) : split;
        if (mid == 0 || mid >= count) {
          out.delta = backend.reduce_range(0, count, body);
        } else {
          out.delta = backend.reduce_range(0, mid, body) +
                      backend.reduce_range(mid, count, body);
        }
        for (Lane& lane : lanes) {
          out.processed += lane.updated;
          lane.updated = 0;
        }
        if (ctl.should_check(iter) && kernel.syndrome_met(main_meter)) {
          out.delta = 0.0;  // decode succeeded: trip the global rule
        }
      },
      [] { return 0.0; },  // delta is never deferred on the CPU
      [&] { return snapshot_time(stats.counters, sinks, prof); });
  kernel.finish(stats, main_meter);
  // Only a seeded queue wakes the children of the nodes it keeps, so only
  // its remainder accounts for all the work left (DESIGN.md §5h).
  if (sched.seeded()) frontier = sched.release();
}

class NodeEngine final : public Engine {
 public:
  using Engine::Engine;

 protected:
  [[nodiscard]] BpStats do_run(const FactorGraph& g, const BpOptions& opts,
                               runtime::BeliefState& state,
                               Frontier& frontier) const override {
    // Per-graph family dispatch (§5g): decided once, before any loop.
    return graph::is_ldpc(g.family())
               ? run<LdpcKernel>(g, opts, state, frontier)
               : run<TabularKernel>(g, opts, state, frontier);
  }

 private:
  template <typename Kernel>
  [[nodiscard]] BpStats run(const FactorGraph& g, const BpOptions& opts,
                            runtime::BeliefState& state,
                            Frontier& frontier) const {
    return run_on_backend(
        *this, opts,
        [&](auto& backend, std::span<WorkerSink> sinks,
            const perf::HardwareProfile& prof, BpStats& stats) {
          node_sweep<Kernel>(g, opts, prof, backend, sinks, state, stats,
                             frontier);
        });
  }
};

// ---------------------------------------------------------------------------
// Edge paradigm: c-edge and omp-edge.
// ---------------------------------------------------------------------------

/// Per-worker scratch of the dense edge sweep: one batched-kernel block
/// and the destination of each gathered edge.
struct EdgeScratch {
  EdgeBlockScratch block;
  std::array<NodeId, graph::kEdgeBlock> dsts;
};

/// Jacobi per iteration: reset the accumulators, push every edge, derive
/// the beliefs. DenseSweep schedule — every edge, every iteration.
///
/// The combine is destination-owned: each worker owns a node range and
/// pulls that range's in-edges in in-CSR order, which is ascending edge
/// id, so every accumulator sums in the same order at any team size and no
/// two workers write one node. Metering is the paper's edge loop's, per
/// edge; on a team the combine is §3.3's atomicAdd, and the hottest
/// destination's max-in-degree chain is charged once per sweep.
template <typename Backend>
void edge_sweep(const FactorGraph& g, const BpOptions& opts,
                const perf::HardwareProfile& prof, Backend& backend,
                std::span<WorkerSink> sinks, runtime::BeliefState& state,
                BpStats& stats) {
  const NodeId n = g.num_nodes();
  const auto& edges = g.edges();
  const auto& joints = g.joints();
  const auto md = graph::compute_metadata(g);
  const std::uint32_t b = md.beliefs;

  std::vector<float> acc(static_cast<std::size_t>(n) * b, 0.0f);
  std::vector<EdgeScratch> scratch(backend.workers());
  perf::Meter main_meter(stats.counters);

  runtime::DenseSweep sched(edges.size());
  const runtime::ConvergenceController ctl(
      opts, runtime::ConvergenceController::Cadence::kEveryIteration);

  runtime::run_loop(
      opts, stats, ctl, sched,
      [&](std::uint32_t, runtime::IterationOutcome& out) {
        // Region 1: reset accumulators to the multiplicative identity
        // (streaming); Algorithm 1 combines incoming updates only.
        backend.for_range(
            0, n, [&](std::uint64_t lo, std::uint64_t hi, unsigned w) {
              perf::Meter meter(sinks[w].counters);
              for (std::uint64_t vi = lo; vi < hi; ++vi) {
                const auto v = static_cast<NodeId>(vi);
                const std::uint32_t arity = state.arity(v);
                float* a = acc.data() + static_cast<std::size_t>(v) * b;
                for (std::uint32_t s = 0; s < arity; ++s) a[s] = 0.0f;
                meter.seq_write(4ull * arity);
              }
            });

        // Region 2: one message per directed edge, gathered in blocks
        // that span node boundaries so the batched message kernel runs
        // full, then combined in log space.
        backend.for_range(
            0, n, [&](std::uint64_t lo, std::uint64_t hi, unsigned w) {
              EdgeBlockScratch& s = scratch[w].block;
              auto& dsts = scratch[w].dsts;
              perf::Meter meter(sinks[w].counters);
              std::size_t count = 0;
              const auto flush = [&] {
                meter.flop(compute_block(joints, s, count));
                for (std::size_t k = 0; k < count; ++k) {
                  const BeliefVec& msg = s.msgs[k];
                  float* a =
                      acc.data() + static_cast<std::size_t>(dsts[k]) * b;
                  for (std::uint32_t i = 0; i < msg.size; ++i) {
                    a[i] += log_msg(msg.v[i]);
                  }
                  meter.flop(2ull * msg.size);
                  if constexpr (Backend::kTeam) {
                    meter.atomic(msg.size, 0);
                  } else {
                    // Packed accumulator array stays cache-resident.
                    meter.near_read(4ull * msg.size);
                  }
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
                  s.srcs[count] = state.lanes(ed.src);
                  meter.seq_read(belief_bytes(state.arity(ed.src)));
                  charge_joint_load(meter, joints, e);
                  if (!joints.is_shared()) s.mats[count] = &joints.at(e);
                  dsts[count] = v;
                  if (++count == graph::kEdgeBlock) flush();
                }
              }
              if (count > 0) flush();
            });
        out.processed = edges.size();
        if constexpr (Backend::kTeam) {
          // Deepest conflict chain: the hottest destination receives
          // max-in-degree combines per belief slot.
          main_meter.atomic(0, md.max_in_degree);
        }

        // Region 3: marginalize + reduction (streaming). Nodes with no
        // incoming edges received no updates and keep their beliefs.
        out.delta = backend.reduce_range(
            0, n,
            [&](std::uint64_t lo, std::uint64_t hi, unsigned w,
                double& partial) {
              perf::Meter meter(sinks[w].counters);
              for (std::uint64_t vi = lo; vi < hi; ++vi) {
                const auto v = static_cast<NodeId>(vi);
                if (g.observed(v) || g.in_csr().degree(v) == 0) continue;
                const std::uint32_t arity = state.arity(v);
                std::uint64_t flops = 0;
                partial += marginalize(
                    acc.data() + static_cast<std::size_t>(v) * b, arity,
                    state.lanes(v), ctl, flops);
                meter.flop(flops);
                meter.seq_read(4ull * arity);
                meter.seq_read(belief_bytes(arity));
                meter.seq_write(belief_bytes(arity));
              }
            });
      },
      [] { return 0.0; },
      [&] { return snapshot_time(stats.counters, sinks, prof); });
}

class EdgeEngine final : public Engine {
 public:
  using Engine::Engine;

 protected:
  [[nodiscard]] BpStats do_run(const FactorGraph& g, const BpOptions& opts,
                               runtime::BeliefState& state,
                               Frontier& /*frontier*/) const override {
    // Families without log-space accumulators sweep Jacobi-style. The work
    // queue has no incremental form there, so queued runs sweep densely.
    if (graph::is_ldpc(g.family())) {
      return run_on_backend(
          *this, opts,
          [&](auto& backend, std::span<WorkerSink> sinks,
              const perf::HardwareProfile& prof, BpStats& stats) {
            jacobi_sweep<LdpcKernel>(g, opts, prof, backend, sinks, state,
                                     stats);
          });
    }
    // The incremental queue is c-edge's; omp-edge sweeps densely with it.
    if (opts.work_queue &&
        hardware().kind == perf::PlatformKind::kCpuSerial) {
      return run_queued(g, opts, state);
    }
    return run_on_backend(
        *this, opts,
        [&](auto& backend, std::span<WorkerSink> sinks,
            const perf::HardwareProfile& prof, BpStats& stats) {
          edge_sweep(g, opts, prof, backend, sinks, state, stats);
        });
  }

 private:
  /// §3.5 queued form: per-edge message caches are updated incrementally
  /// (acc += log(new) - log(old)); only edges whose source changed last
  /// iteration are reprocessed. EdgeFrontier schedule.
  [[nodiscard]] BpStats run_queued(const FactorGraph& g,
                                   const BpOptions& opts,
                                   runtime::BeliefState& state) const {
    BpStats stats;
    perf::Meter meter(stats.counters);

    const NodeId n = g.num_nodes();
    const auto& edges = g.edges();
    const auto& joints = g.joints();
    const auto& out_csr = g.out_csr();
    const std::uint32_t b = graph::compute_metadata(g).beliefs;

    // Accumulators start at log(1) = 0: Algorithm 1 combines incoming
    // updates only (priors seed the initial beliefs the first messages are
    // computed from). Cached log-messages also start at 0.
    std::vector<float> acc(static_cast<std::size_t>(n) * b, 0.0f);
    std::vector<float> cache(edges.size() * static_cast<std::size_t>(b),
                             0.0f);
    std::vector<std::uint8_t> dirty(n, 0);

    runtime::EdgeFrontier sched(g);
    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);

    EdgeBlockScratch scratch;
    runtime::run_loop(
        opts, stats, ctl, sched,
        [&](std::uint32_t, runtime::IterationOutcome& out) {
          // Phase 1: replay queued edges with incremental combines. The
          // queue is rebuilt in ascending edge-id order (nodes scanned in
          // order, out-edges contiguous because edges are source-sorted),
          // so the edge structs, source beliefs and message caches are all
          // streamed. Edge-blocked traversal through the batched message
          // kernel.
          for (std::size_t qbase = 0; qbase < sched.size();
               qbase += graph::kEdgeBlock) {
            const std::size_t count =
                std::min<std::uint64_t>(graph::kEdgeBlock,
                                        sched.size() - qbase);
            for (std::size_t k = 0; k < count; ++k) {
              const EdgeId e = sched.at(meter, qbase + k);
              ++out.processed;
              const auto& ed = edges[e];
              meter.seq_read(sizeof(ed));
              scratch.srcs[k] = state.lanes(ed.src);
              meter.seq_read(belief_bytes(state.arity(ed.src)));
              charge_joint_load(meter, joints, e);
              if (!joints.is_shared()) scratch.mats[k] = &joints.at(e);
            }
            meter.flop(compute_block(joints, scratch, count));
            for (std::size_t k = 0; k < count; ++k) {
              const EdgeId e = sched.peek(qbase + k);
              const auto& ed = edges[e];
              const BeliefVec& msg = scratch.msgs[k];
              float* a = acc.data() + static_cast<std::size_t>(ed.dst) * b;
              float* c = cache.data() + static_cast<std::size_t>(e) * b;
              for (std::uint32_t s = 0; s < msg.size; ++s) {
                const float lm = log_msg(msg.v[s]);
                a[s] += lm - c[s];
                c[s] = lm;
              }
              meter.flop(4ull * msg.size);
              meter.near_read(4ull * msg.size);   // packed accumulators
              meter.near_write(4ull * msg.size);
              meter.seq_read(4ull * msg.size);    // message cache, streamed
              meter.seq_write(4ull * msg.size);
              dirty[ed.dst] = 1;
              meter.near_write(1);
            }
          }

          // Phase 2: marginalize dirty nodes, rebuild the queue from the
          // out-edges of nodes that moved beyond the element threshold.
          double sum = 0.0;
          for (NodeId v = 0; v < n; ++v) {
            meter.seq_read(1);  // dirty flag scan
            if (!dirty[v]) continue;
            dirty[v] = 0;
            if (g.observed(v)) continue;
            const std::uint32_t arity = state.arity(v);
            std::uint64_t flops = 0;
            const float d =
                marginalize(acc.data() + static_cast<std::size_t>(v) * b,
                            arity, state.lanes(v), ctl, flops);
            meter.flop(flops);
            meter.near_read(4ull * arity);
            meter.rand_read(belief_bytes(arity));
            meter.rand_write(belief_bytes(arity));
            sum += d;
            if (ctl.element_active(d)) {
              meter.seq_read(sizeof(std::uint64_t));  // CSR offset
              for (const auto& entry : out_csr.neighbors(v)) {
                meter.seq_read(sizeof(entry));
                if (!g.observed(entry.node)) {
                  sched.keep(meter, entry.edge);
                }
              }
            }
          }
          out.delta = sum;
        },
        [] { return 0.0; },
        [&] { return perf::model_time(stats.counters, hardware()); });
    finish(stats, hardware());
    return stats;
  }
};

}  // namespace

std::unique_ptr<Engine> make_node_engine(EngineKind kind,
                                         const perf::HardwareProfile& p) {
  return std::make_unique<NodeEngine>(kind, p);
}

std::unique_ptr<Engine> make_edge_engine(EngineKind kind,
                                         const perf::HardwareProfile& p) {
  return std::make_unique<EdgeEngine>(kind, p);
}

}  // namespace credo::bp::internal
