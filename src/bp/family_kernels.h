// Factor-family kernels (DESIGN.md §5g): the one seam between the engines
// and a factor family.
//
// The engines own paradigm and execution — which node runs next, on which
// worker, under which stopping rule (§3.3–§3.5). A family kernel owns only
// what differs between families: the per-run state, the node update, the
// §3.5 frontier keep rule, the syndrome stop and the end-of-run
// finalization. c-node, omp-node, residual and bulk-residual are each
// written once as a template over a kernel; do_run picks the kernel from
// g.family() once per graph, so no inner loop dispatches on the family.
//
// A kernel K provides:
//   K(g, opts, ctl, beliefs, meter)         per-run state; set-up metered
//   K::Worker                               per-worker scratch
//   float update(worker, v, meter)          Gauss-Seidel update, returns Δ
//   void keep(meter, iter, v, push)         §3.5 re-enqueue of a live node
//   bool syndrome_met(meter)                alternative stopping rule
//   NodeId phase_split()                    first node of the second phase
//   void finish(stats, meter)               end-of-run finalization
// and, for the edge paradigm's Jacobi sweep (jacobi_sweep below, shared by
// c-edge and omp-edge), begin_jacobi / jacobi_update / end_jacobi_sweep.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/driver.h"
#include "bp/runtime/schedule.h"

namespace credo::bp::internal {

// ---------------------------------------------------------------------------
// Tabular: joint-matrix pull, damping, BeliefVec state.
// ---------------------------------------------------------------------------

/// The tabular node update (Algorithm 1 lines 5-12): recomputes
/// beliefs[v] from the parents in `nbrs` (whose entries index `beliefs`)
/// and returns the belief's L1 change. Belief touches for which
/// `near(node)` holds are charged as cache-resident. The sharded engine
/// runs it on shard-local state.
template <typename NearPred>
float tabular_update(std::span<const graph::Csr::Entry> nbrs,
                     std::vector<graph::BeliefVec>& beliefs, graph::NodeId v,
                     const graph::JointStore& joints,
                     const runtime::ConvergenceController& ctl,
                     perf::Meter& meter, EdgeBlockScratch& scratch,
                     graph::BeliefVec& prev, NearPred near) {
  graph::copy_belief(prev, beliefs[v]);
  if (near(v)) {
    meter.near_read(belief_bytes(prev.size));
  } else {
    meter.rand_read(belief_bytes(prev.size));
  }
  // The new belief combines the incoming updates only — priors enter as
  // the initial state.
  graph::BeliefVec acc = graph::BeliefVec::ones(prev.size);
  meter.seq_read(sizeof(std::uint64_t));  // CSR offset
  pull_parents_blocked(nbrs, beliefs, joints, meter, scratch, acc, near);
  graph::normalize(acc);
  meter.flop(2ull * acc.size);
  meter.flop(ctl.damp(acc, prev));
  graph::copy_belief(beliefs[v], acc);
  if (near(v)) {
    meter.near_write(belief_bytes(acc.size));
  } else {
    meter.rand_write(belief_bytes(acc.size));
  }
  const float d = graph::l1_diff(prev, acc);
  meter.flop(2ull * acc.size);
  return d;
}

class TabularKernel {
 public:
  struct alignas(64) Worker {
    EdgeBlockScratch scratch;
    graph::BeliefVec prev;
  };

  TabularKernel(const graph::FactorGraph& g, const BpOptions& /*opts*/,
                const runtime::ConvergenceController& ctl,
                std::vector<graph::BeliefVec>& beliefs,
                perf::Meter& /*meter*/) noexcept
      : g_(g), ctl_(ctl), beliefs_(beliefs) {}

  /// Every belief touch is a scattered DRAM access.
  float update(Worker& w, graph::NodeId v, perf::Meter& meter) {
    return tabular_update(g_.in_csr().neighbors(v), beliefs_, v, g_.joints(),
                          ctl_, meter, w.scratch, w.prev,
                          [](graph::NodeId) noexcept { return false; });
  }

  /// A still-active node re-enqueues itself.
  template <typename Push>
  void keep(perf::Meter& /*meter*/, std::uint32_t /*iter*/, graph::NodeId v,
            Push&& push) {
    push(v);
  }

  /// Tabular graphs have no syndrome: BpOptions::syndrome_stop is a no-op.
  static constexpr bool syndrome_met(perf::Meter& /*meter*/) noexcept {
    return false;
  }

  /// Tabular nodes may read one another anywhere: one phase.
  [[nodiscard]] graph::NodeId phase_split() const noexcept {
    return g_.num_nodes();
  }

  static constexpr void finish(BpStats& /*stats*/,
                               perf::Meter& /*meter*/) noexcept {}

 private:
  const graph::FactorGraph& g_;
  const runtime::ConvergenceController& ctl_;
  std::vector<graph::BeliefVec>& beliefs_;
};

// ---------------------------------------------------------------------------
// LDPC (sum-product and min-sum): closed-form variable/check updates over
// per-edge log-likelihood-ratio messages (ldpc_kernel.cpp).
//
// Message layout: one float per directed edge. An edge v→c carries the
// variable-to-check message Q (initialized to the channel LLR of v); an
// edge c→v carries the check-to-variable message R (initialized to 0). The
// builder guarantees every edge has its reverse; the pairing is indexed
// once at set-up. Variables and checks are both schedulable nodes, so the
// residual priorities cover check residuals with no special casing.
// Variable updates return belief L1 deltas like tabular nodes; check
// updates return tanh-domain message deltas (at most 2 per edge), so the
// shared thresholds stay meaningful.
// ---------------------------------------------------------------------------

class LdpcKernel {
 public:
  struct Worker {};

  LdpcKernel(const graph::FactorGraph& g, const BpOptions& opts,
             const runtime::ConvergenceController& ctl,
             std::vector<graph::BeliefVec>& beliefs, perf::Meter& meter);

  /// Gauss-Seidel in place: reads current messages, rewrites v's outgoing
  /// ones. Workers write disjoint edges (each directed edge has one
  /// source); torn reads of a neighbor's in-flight message are the chaotic
  /// relaxation the tabular §2.4 engines already make.
  float update(Worker& /*w*/, graph::NodeId v, perf::Meter& meter) {
    return update_node(msg_.data(), msg_.data(), v, meter);
  }

  /// A variable's belief cannot move before any check has run, so a
  /// self-only keep would freeze the variable side on the first sweep. An
  /// active node re-enqueues itself AND its out-neighbors — the nodes its
  /// new messages feed — deduplicated per iteration by an atomic stamp.
  template <typename Push>
  void keep(perf::Meter& meter, std::uint32_t iter, graph::NodeId v,
            Push&& push) {
    const std::uint32_t token = iter + 1;
    if (stamp_[v].exchange(token, std::memory_order_relaxed) != token) {
      push(v);
    }
    meter.seq_read(sizeof(std::uint64_t));  // CSR offset
    for (const auto& entry : g_.out_csr().neighbors(v)) {
      meter.seq_read(sizeof(entry));
      if (stamp_[entry.node].exchange(token, std::memory_order_relaxed) !=
          token) {
        push(entry.node);
      }
    }
  }

  /// With BpOptions::syndrome_stop: whether the hard decisions of the
  /// current messages satisfy every parity check. O(E), metered.
  bool syndrome_met(perf::Meter& meter);

  /// Parallel engines update nodes [0, phase_split()) — the variables —
  /// before the checks. The Tanner graph is bipartite, so no node of one
  /// phase reads another's writes and a parallel pass gives the same
  /// result under any thread timing. It matters: min-sum decodes depend on
  /// update order — about one in a thousand random orders leaves a
  /// weight-2 error of a 48-bit (3,6) code in an oscillation that never
  /// meets the syndrome.
  [[nodiscard]] graph::NodeId phase_split() const noexcept { return vars_; }

  /// Jacobi double buffer for the edge paradigm: every message of sweep
  /// i+1 is computed from sweep i's snapshot, which also makes the
  /// parallel form race-free.
  void begin_jacobi() { next_ = msg_; }
  float jacobi_update(graph::NodeId v, perf::Meter& meter) {
    return update_node(msg_.data(), next_.data(), v, meter);
  }
  void end_jacobi_sweep() noexcept { msg_.swap(next_); }

  /// Recomputes every variable posterior from the final messages (a
  /// variable's stored belief can lag messages that arrived after its last
  /// update) and sets BpStats::syndrome_satisfied from the final state.
  /// Every engine stops right after a passing syndrome_met, with no update
  /// in flight, so that verdict stands; otherwise parity is checked here.
  void finish(BpStats& stats, perf::Meter& meter);

 private:
  float update_node(const float* in_msg, float* out_msg, graph::NodeId v,
                    perf::Meter& meter);
  bool parity_holds(perf::Meter& meter);

  const graph::FactorGraph& g_;
  const runtime::ConvergenceController& ctl_;
  std::vector<graph::BeliefVec>& beliefs_;
  graph::NodeId vars_;  // variables are [0, vars_), checks [vars_, n)
  bool min_sum_;        // kLdpcMinSum: two-min approximation of the check
  std::vector<float> llr_;           // per variable: log(P(0) / P(1))
  std::vector<std::uint8_t> syn_;    // per check, indexed by (c - vars_)
  std::vector<graph::EdgeId> reverse_;  // reverse_[e] pairs v→c with c→v
  std::vector<float> msg_;           // one message per directed edge
  std::vector<float> next_;          // Jacobi back buffer
  std::vector<std::atomic<std::uint32_t>> stamp_;  // keep-rule dedup
  std::vector<std::uint8_t> bits_;   // hard-decision scratch
  bool satisfied_ = false;           // a syndrome_met call passed
};

// ---------------------------------------------------------------------------
// The edge paradigm's Jacobi sweep, one body for c-edge and omp-edge on a
// kernel with a double buffer: every update of sweep i+1 reads sweep i's
// state. `backend` runs the node loop (sequential or pool) with each
// worker metering into its sink; set-up, syndrome checks and finalization
// go to the main counters.
// ---------------------------------------------------------------------------

template <typename Kernel, typename Backend>
void jacobi_sweep(const graph::FactorGraph& g, const BpOptions& opts,
                  const perf::HardwareProfile& prof, Backend& backend,
                  std::span<WorkerSink> sinks, BpResult& r) {
  perf::Meter main_meter(r.stats.counters);
  const runtime::ConvergenceController ctl(
      opts, runtime::ConvergenceController::Cadence::kEveryIteration);
  Kernel kernel(g, opts, ctl, r.beliefs, main_meter);
  kernel.begin_jacobi();
  runtime::DenseSweep sched(g.num_edges());
  runtime::run_loop(
      opts, r.stats, ctl, sched,
      [&](std::uint32_t iter, runtime::IterationOutcome& out) {
        out.delta = backend.reduce_range(
            0, g.num_nodes(),
            [&](std::uint64_t lo, std::uint64_t hi, unsigned w,
                double& partial) {
              perf::Meter meter(sinks[w].counters);
              for (std::uint64_t vi = lo; vi < hi; ++vi) {
                const auto v = static_cast<graph::NodeId>(vi);
                if (g.in_csr().degree(v) == 0) continue;
                partial += kernel.jacobi_update(v, meter);
              }
            });
        kernel.end_jacobi_sweep();
        out.processed = g.num_edges();
        if (ctl.should_check(iter) && kernel.syndrome_met(main_meter)) {
          out.delta = 0.0;  // decode succeeded: trip the global rule
        }
      },
      [] { return 0.0; },  // delta is never deferred on the CPU
      [&] { return snapshot_time(r.stats.counters, sinks, prof); });
  kernel.finish(r.stats, main_meter);
}

}  // namespace credo::bp::internal
