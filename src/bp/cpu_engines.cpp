// Sequential "C" engines — the paper's control implementations (§3.6).
//
// Both follow Algorithm 1 with in-place (chaotic/Gauss-Seidel) updates:
// each node keeps a local previous copy for the convergence diff and reads
// whatever its neighbors' current beliefs are, exactly as lines 5-12
// describe. The Node engine pulls from parents per node; the Edge engine
// pushes one message per directed edge into log-space accumulators (the
// combine that must be atomic in the parallel engines, §3.3).
//
// Composition over the runtime layer (DESIGN.md §5b): NodeFrontier /
// DenseSweep / EdgeFrontier schedules, the every-iteration convergence
// cadence, and the sequential backend. The Node engine is one body over a
// family kernel (family_kernels.h); the Edge engine's accumulator forms
// are tabular, and other families run the shared Jacobi sweep.
#include <vector>

#include "bp/engines_internal.h"
#include "bp/family_kernels.h"
#include "bp/runtime/backend.h"
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

using graph::BeliefVec;
using graph::EdgeId;
using graph::FactorGraph;
using graph::NodeId;

/// Common base handling profile storage.
class CpuEngineBase : public Engine {
 public:
  explicit CpuEngineBase(perf::HardwareProfile profile)
      : profile_(std::move(profile)) {
    CREDO_CHECK_MSG(profile_.kind == perf::PlatformKind::kCpuSerial,
                    "sequential engine requires a serial CPU profile");
  }

  [[nodiscard]] const perf::HardwareProfile& hardware()
      const noexcept override {
    return profile_;
  }

 protected:
  perf::HardwareProfile profile_;
};

// ---------------------------------------------------------------------------
// C Node
// ---------------------------------------------------------------------------

class CpuNodeEngine final : public CpuEngineBase {
 public:
  using CpuEngineBase::CpuEngineBase;

  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kCpuNode;
  }

 protected:
  [[nodiscard]] BpResult do_run(const FactorGraph& g,
                                const BpOptions& opts) const override {
    // Per-graph family dispatch (§5g): decided once, before any loop.
    return graph::is_ldpc(g.family()) ? sweep<LdpcKernel>(g, opts)
                                      : sweep<TabularKernel>(g, opts);
  }

 private:
  template <typename Kernel>
  [[nodiscard]] BpResult sweep(const FactorGraph& g,
                               const BpOptions& opts) const {
    const util::Timer timer;
    BpResult r;
    r.beliefs = runtime::initial_state(g, opts);
    perf::Meter meter(r.stats.counters);

    const auto& in = g.in_csr();

    // Work queue (§3.5): indices of unconverged nodes; starts full — or
    // from the perturbed region on a seeded warm re-query (§5h).
    runtime::NodeFrontier sched(g, opts.work_queue, opts.frontier_seed.get());
    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);
    Kernel kernel(g, opts, ctl, r.beliefs, meter);
    const runtime::SequentialBackend backend;

    // Hoisted hot-loop scratch.
    typename Kernel::Worker worker;
    runtime::run_loop(
        opts, r.stats, ctl, sched,
        [&](std::uint32_t iter, runtime::IterationOutcome& out) {
          out.delta = backend.reduce_range(
              0, sched.size(),
              [&](std::uint64_t lo, std::uint64_t hi, unsigned,
                  double& partial) {
                for (std::uint64_t qi = lo; qi < hi; ++qi) {
                  const NodeId v = sched.at(meter, qi);
                  if (!sched.queued() && g.observed(v)) continue;
                  // A node with no incoming edges receives no updates: its
                  // belief keeps its current (initial) value.
                  if (in.degree(v) == 0) continue;
                  ++out.processed;
                  const float d = kernel.update(worker, v, meter);
                  partial += d;
                  if (sched.queued() && ctl.element_active(d)) {
                    kernel.keep(meter, iter, v,
                                [&](NodeId u) { sched.keep(meter, u); });
                  }
                }
              });
          if (ctl.should_check(iter) && kernel.syndrome_met(meter)) {
            out.delta = 0.0;  // decode succeeded: trip the global rule
          }
        },
        [] { return 0.0; },  // delta is never deferred on the CPU
        [&] { return perf::model_time(r.stats.counters, profile_); });
    kernel.finish(r.stats, meter);
    finish(r, timer, profile_);
    return r;
  }
};

// ---------------------------------------------------------------------------
// C Edge
// ---------------------------------------------------------------------------

class CpuEdgeEngine final : public CpuEngineBase {
 public:
  using CpuEngineBase::CpuEngineBase;

  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kCpuEdge;
  }

 protected:
  [[nodiscard]] BpResult do_run(const FactorGraph& g,
                                const BpOptions& opts) const override {
    if (graph::is_ldpc(g.family())) return run_jacobi<LdpcKernel>(g, opts);
    return opts.work_queue ? run_queued(g, opts) : run_full(g, opts);
  }

 private:
  /// Families without log-space accumulators sweep Jacobi-style. The work
  /// queue has no incremental form there, so queued runs sweep densely too.
  template <typename Kernel>
  [[nodiscard]] BpResult run_jacobi(const FactorGraph& g,
                                    const BpOptions& opts) const {
    const util::Timer timer;
    BpResult r;
    r.beliefs = runtime::initial_state(g, opts);
    std::vector<WorkerSink> sinks(1);
    runtime::SequentialBackend backend;
    jacobi_sweep<Kernel>(g, opts, profile_, backend, sinks, r);
    finish(r, timer, profile_, sinks);
    return r;
  }

  /// Jacobi-per-iteration form: reset accumulators, push every edge,
  /// derive beliefs. DenseSweep schedule — every edge, every iteration.
  [[nodiscard]] BpResult run_full(const FactorGraph& g,
                                  const BpOptions& opts) const {
    const util::Timer timer;
    BpResult r;
    r.beliefs = runtime::initial_state(g, opts);
    perf::Meter meter(r.stats.counters);

    const NodeId n = g.num_nodes();
    const auto& edges = g.edges();
    const auto& joints = g.joints();
    const std::uint32_t b = graph::compute_metadata(g).beliefs;

    std::vector<float> acc(static_cast<std::size_t>(n) * b, 0.0f);
    EdgeBlockScratch scratch;

    runtime::DenseSweep sched(edges.size());
    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kEveryIteration);

    runtime::run_loop(
        opts, r.stats, ctl, sched,
        [&](std::uint32_t, runtime::IterationOutcome& out) {
          // Phase 1: reset accumulators to the multiplicative identity
          // (streaming); Algorithm 1 combines incoming updates only.
          for (NodeId v = 0; v < n; ++v) {
            const std::uint32_t arity = g.arity(v);
            float* a = acc.data() + static_cast<std::size_t>(v) * b;
            for (std::uint32_t s = 0; s < arity; ++s) a[s] = 0.0f;
            meter.seq_write(4ull * arity);
          }

          // Phase 2: one message per directed edge (edges sorted by source,
          // so the source belief is streamed; the destination combine is
          // the scattered write, §3.3). Edge-blocked traversal: gather a
          // block of sources, run the batched message kernel once, then
          // scatter the log-space combines in edge order.
          for (std::size_t base = 0; base < edges.size();
               base += graph::kEdgeBlock) {
            const std::size_t count =
                std::min(graph::kEdgeBlock, edges.size() - base);
            for (std::size_t k = 0; k < count; ++k) {
              const auto e = static_cast<EdgeId>(base + k);
              ++out.processed;
              const auto& ed = edges[e];
              meter.seq_read(sizeof(ed));
              const BeliefVec& src = r.beliefs[ed.src];
              meter.seq_read(belief_bytes(src.size));
              charge_joint_load(meter, joints, e);
              scratch.srcs[k] = &src;
              if (!joints.is_shared()) scratch.mats[k] = &joints.at(e);
            }
            meter.flop(compute_block(joints, scratch, count));
            for (std::size_t k = 0; k < count; ++k) {
              const auto& ed = edges[base + k];
              const BeliefVec& msg = scratch.msgs[k];
              float* a = acc.data() + static_cast<std::size_t>(ed.dst) * b;
              for (std::uint32_t s = 0; s < msg.size; ++s) {
                a[s] += log_msg(msg.v[s]);
              }
              meter.flop(2ull * msg.size);
              // Packed accumulator array stays cache-resident (near
              // scatter).
              meter.near_read(4ull * msg.size);
              meter.near_write(4ull * msg.size);
            }
          }

          // Phase 3: marginalize + convergence (streaming). Nodes with no
          // incoming edges received no updates and keep their beliefs.
          double sum = 0.0;
          for (NodeId v = 0; v < n; ++v) {
            if (g.observed(v) || g.in_csr().degree(v) == 0) continue;
            const std::uint32_t arity = g.arity(v);
            BeliefVec nb;
            meter.flop(softmax(acc.data() + static_cast<std::size_t>(v) * b,
                               arity, nb));
            meter.seq_read(4ull * arity);
            meter.flop(ctl.damp(nb, r.beliefs[v]));
            const float d = graph::l1_diff(r.beliefs[v], nb);
            meter.flop(2ull * arity);
            meter.seq_read(belief_bytes(arity));
            r.beliefs[v] = nb;
            meter.seq_write(belief_bytes(arity));
            sum += d;
          }
          out.delta = sum;
        },
        [] { return 0.0; },
        [&] { return perf::model_time(r.stats.counters, profile_); });
    finish(r, timer, profile_);
    return r;
  }

  /// §3.5 queued form: per-edge message caches are updated incrementally
  /// (acc += log(new) - log(old)); only edges whose source changed last
  /// iteration are reprocessed. EdgeFrontier schedule.
  [[nodiscard]] BpResult run_queued(const FactorGraph& g,
                                    const BpOptions& opts) const {
    const util::Timer timer;
    BpResult r;
    r.beliefs = runtime::initial_state(g, opts);
    perf::Meter meter(r.stats.counters);

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
        opts, r.stats, ctl, sched,
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
              const BeliefVec& src = r.beliefs[ed.src];
              meter.seq_read(belief_bytes(src.size));
              charge_joint_load(meter, joints, e);
              scratch.srcs[k] = &src;
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
            const std::uint32_t arity = g.arity(v);
            BeliefVec nb;
            meter.flop(softmax(acc.data() + static_cast<std::size_t>(v) * b,
                               arity, nb));
            meter.near_read(4ull * arity);
            meter.flop(ctl.damp(nb, r.beliefs[v]));
            const float d = graph::l1_diff(r.beliefs[v], nb);
            meter.flop(2ull * arity);
            meter.rand_read(belief_bytes(arity));
            r.beliefs[v] = nb;
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
        [&] { return perf::model_time(r.stats.counters, profile_); });
    finish(r, timer, profile_);
    return r;
  }
};

}  // namespace

std::unique_ptr<Engine> make_cpu_node(const perf::HardwareProfile& p) {
  return std::make_unique<CpuNodeEngine>(p);
}

std::unique_ptr<Engine> make_cpu_edge(const perf::HardwareProfile& p) {
  return std::make_unique<CpuEdgeEngine>(p);
}

}  // namespace credo::bp::internal
