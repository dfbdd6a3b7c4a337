// Factor-family kernels (DESIGN.md §5g): the one seam between the engines
// and a factor family.
//
// The engines own paradigm and execution — which node runs next, on which
// worker, under which stopping rule (§3.3–§3.5). A family kernel owns only
// what differs between families: the per-run state, the node update, the
// §3.5 frontier keep rule, the syndrome stop and the end-of-run
// finalization. The node body (c-node and omp-node), residual and
// bulk-residual are each written once as a template over a kernel; do_run
// picks the kernel from g.family() once per graph, so no inner loop
// dispatches on the family.
//
// A kernel K provides:
//   K(g, opts, ctl, state, meter)           per-run state; set-up metered
//   float update(v, meter)                  Gauss-Seidel update, returns Δ
//   void keep(meter, iter, v, push)         §3.5 re-enqueue of a live node
//   bool syndrome_met(meter)                alternative stopping rule
//   NodeId phase_split()                    first node of the second phase
//   void finish(stats, meter)               end-of-run finalization
// and, for the edge paradigm's Jacobi sweep (jacobi_sweep below, shared by
// c-edge and omp-edge), begin_jacobi / jacobi_update / end_jacobi_sweep.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/runtime/belief_state.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/driver.h"
#include "bp/runtime/schedule.h"

namespace credo::bp::internal {

// ---------------------------------------------------------------------------
// Tabular: joint-matrix pull, damping, packed belief state.
// ---------------------------------------------------------------------------

class TabularKernel {
 public:
  TabularKernel(const graph::FactorGraph& g, const BpOptions& /*opts*/,
                const runtime::ConvergenceController& ctl,
                runtime::BeliefState& state, perf::Meter& /*meter*/) noexcept
      : g_(g),
        ctl_(ctl),
        state_(state),
        shared_(g.joints().is_shared() ? &g.joints().shared_matrix()
                                       : nullptr) {}

  /// The tabular node update (Algorithm 1 lines 5-12): recomputes v's
  /// belief from its parents and returns its L1 change, at v's padded
  /// width — every in-edge's J.cols is v's arity, so one W serves the
  /// whole update.
  float update(graph::NodeId v, perf::Meter& meter) {
    const std::uint32_t n = state_.arity(v);
    return graph::with_padded_width(n, [&]<std::uint32_t W>() {
      return update<W>(v, n, meter);
    });
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
  /// The update on `float[W]` temporaries: walks v's in-edges in
  /// kEdgeBlock blocks through the batched block body, combining in CSR
  /// order, so it is bit-identical to the per-edge kernels with the
  /// joint-matrix loads amortized per block. Every belief touch is a
  /// scattered DRAM access, metered event for event as the per-edge form.
  template <std::uint32_t W>
  float update(graph::NodeId v, std::uint32_t n, perf::Meter& meter) {
    float* cur = state_.lanes(v);
    float prev[W];
    for (std::uint32_t i = 0; i < W; ++i) prev[i] = cur[i];
    meter.rand_read(belief_bytes(n));
    // The new belief combines the incoming updates only — priors enter as
    // the initial state.
    float acc[W];
    for (std::uint32_t i = 0; i < W; ++i) acc[i] = i < n ? 1.0f : 0.0f;
    meter.seq_read(sizeof(std::uint64_t));  // CSR offset
    const auto nbrs = g_.in_csr().neighbors(v);
    const graph::JointStore& joints = g_.joints();
    const float* srcs[graph::kEdgeBlock];
    const graph::JointMatrix* mats[graph::kEdgeBlock];
    float msgs[graph::kEdgeBlock][W];
    const auto out = [&](std::size_t k) { return msgs[k]; };
    for (std::size_t base = 0; base < nbrs.size();
         base += graph::kEdgeBlock) {
      const std::size_t count =
          std::min(graph::kEdgeBlock, nbrs.size() - base);
      for (std::size_t k = 0; k < count; ++k) {
        const auto& entry = nbrs[base + k];
        meter.seq_read(sizeof(entry));  // adjacency index walk
        srcs[k] = state_.lanes(entry.node);
        meter.rand_read(belief_bytes(state_.arity(entry.node)));
        charge_joint_load(meter, joints, entry.edge);
        if (shared_ == nullptr) mats[k] = &joints.at(entry.edge);
      }
      meter.flop(shared_ != nullptr
                     ? graph::detail::messages_block<W>(*shared_, srcs,
                                                        count, out)
                     : graph::detail::messages_block<W>(mats, srcs, count,
                                                        out));
      for (std::size_t k = 0; k < count; ++k) {
        meter.flop(graph::combine_lanes<W>(acc, msgs[k], n));
      }
    }
    graph::normalize_lanes<W>(acc, n);
    meter.flop(2ull * n);
    meter.flop(ctl_.damp<W>(acc, prev, n));
    for (std::uint32_t i = 0; i < W; ++i) cur[i] = acc[i];
    meter.rand_write(belief_bytes(n));
    const float d = graph::l1_diff_lanes(prev, acc, n);
    meter.flop(2ull * n);
    return d;
  }

  const graph::FactorGraph& g_;
  const runtime::ConvergenceController& ctl_;
  runtime::BeliefState& state_;
  const graph::JointMatrix* shared_;  // the §2.2 shared matrix, if any
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
  LdpcKernel(const graph::FactorGraph& g, const BpOptions& opts,
             const runtime::ConvergenceController& ctl,
             runtime::BeliefState& state, perf::Meter& meter);

  /// Gauss-Seidel in place: reads current messages, rewrites v's outgoing
  /// ones. Workers write disjoint edges (each directed edge has one
  /// source), and parallel engines never run a variable and a check in one
  /// region (phase_split), so no update reads a message in flight.
  float update(graph::NodeId v, perf::Meter& meter) {
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
  /// before the checks, in dense sweeps and queued rounds alike. The
  /// Tanner graph is bipartite, so no node of one phase reads another's
  /// writes and a parallel pass gives the same result under any thread
  /// timing. It matters: min-sum decodes depend on update order — about
  /// one in a thousand random orders leaves a weight-2 error of a 48-bit
  /// (3,6) code in an oscillation that never meets the syndrome.
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
  runtime::BeliefState& state_;
  graph::NodeId vars_;  // variables are [0, vars_), checks [vars_, n)
  bool min_sum_;        // kLdpcMinSum: two-min approximation of the check
  std::vector<float> llr_;           // per variable: log(P(0) / P(1))
  std::vector<std::uint8_t> syn_;    // per check, indexed by (c - vars_)
  std::vector<graph::EdgeId> reverse_;  // reverse_[e] pairs v→c with c→v
  std::vector<float> msg_;           // one message per directed edge
  // Sum-product: tanh(Q/2) of each check input, written and read only by
  // the check at the edge's destination within one update. A node updates
  // at most once per sweep or round, so no two workers share a slot.
  std::vector<float> tanh_;
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
                  std::span<WorkerSink> sinks, runtime::BeliefState& state,
                  BpStats& stats) {
  perf::Meter main_meter(stats.counters);
  const runtime::ConvergenceController ctl(
      opts, runtime::ConvergenceController::Cadence::kEveryIteration);
  Kernel kernel(g, opts, ctl, state, main_meter);
  kernel.begin_jacobi();
  runtime::DenseSweep sched(g.num_edges());
  runtime::run_loop(
      opts, stats, ctl, sched,
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
      [&] { return snapshot_time(stats.counters, sinks, prof); });
  kernel.finish(stats, main_meter);
}

}  // namespace credo::bp::internal
