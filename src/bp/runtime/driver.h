// The shared iteration drivers (DESIGN.md §5b).
//
// Every sweep engine — sequential, thread-pool or device — runs the same
// outer loop: ask the schedule what to process, run the paradigm's body,
// advance the schedule (queue swap / cursor readback), then consult the
// convergence controller. `run_loop` is that loop, written once; the
// engines contribute only the body (the kernel math and its metering,
// which stay engine-specific so modelled costs are untouched by this
// layer). `run_priority_loop` is the analogous driver for the residual
// engine, whose unit of progress is one node update rather than a sweep.
//
// Ordering note: the schedule advances *before* the global check. For CPU
// engines the advance is unmetered, and for device frontiers the cursor
// readback precedes the batched check in the original formulation too, so
// both stats and metered totals are preserved exactly.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>

#include "bp/options.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/observe.h"
#include "bp/runtime/stop.h"
#include "bp/runtime/telemetry.h"
#include "graph/factor_graph.h"
#include "parallel/thread_pool.h"

namespace credo::bp::runtime {

/// What one sweep produced, filled in by the engine body.
struct IterationOutcome {
  /// Global L1 sum for this sweep. Engines with deferred checks (device
  /// reductions) leave it unset and clear `delta_valid`; the driver then
  /// obtains the sum from `deferred_delta` only on check iterations.
  double delta = 0.0;
  bool delta_valid = true;

  /// Elements actually processed (feeds BpStats::elements_processed).
  std::uint64_t processed = 0;
};

/// Runs the sweep loop: `body(iter, out)` once per iteration, schedule
/// advance, convergence check, optional telemetry.
///
/// Schedule must provide `begin_iteration(iter) -> frontier size` and
/// `advance(iter) -> bool` (false = work drained, i.e. every element
/// individually converged). `deferred_delta()` is called only when the body
/// left `delta_valid` false and the cadence demands a check; `time_fn()`
/// only when tracing.
template <typename Schedule, typename Body, typename DeferredDelta,
          typename TimeFn>
void run_loop(const BpOptions& opts, BpStats& stats,
              const ConvergenceController& ctl, Schedule& sched, Body&& body,
              DeferredDelta&& deferred_delta, TimeFn&& time_fn) {
  const DeadlineGuard guard(opts.stop, opts.host_deadline_seconds,
                            opts.modelled_deadline_seconds);
  for (std::uint32_t iter = 0; iter < opts.max_iterations; ++iter) {
    stats.iterations = iter + 1;
    const std::uint64_t frontier = sched.begin_iteration(iter);

    IterationOutcome out;
    body(iter, out);
    stats.elements_processed += out.processed;

    bool checked = out.delta_valid;
    double delta = out.delta;
    if (out.delta_valid) stats.final_delta = delta;

    bool stop = false;
    if (!sched.advance(iter)) {
      // Queue drained: every remaining element individually converged.
      stats.converged = true;
      stop = true;
    }
    if (!stop && ctl.should_check(iter)) {
      if (!out.delta_valid) {
        delta = deferred_delta();
        stats.final_delta = delta;
        checked = true;
      }
      if (ctl.global_converged(delta)) {
        stats.converged = true;
        stop = true;
      }
    }
    // §5c cooperative stop: cancellation polls every iteration, the
    // deadline budgets at the check cadence. A run that converged this very
    // iteration keeps its convergence; the guard only ends unfinished runs.
    if (!stop && guard.active()) {
      const StopReason why = guard.poll(
          ctl.should_check(iter), [&] { return time_fn().total(); });
      if (why != StopReason::kNone) {
        stats.stop_reason = why;
        stop = true;
      }
    }
    // Always-on aggregates (§5e): the same sampling points as the trace,
    // but into sharded registry cells — no allocation, no opt-in.
    observe_iteration(frontier, checked);
    if (opts.collect_trace) {
      stats.trace.push_back(IterationRecord{stats.iterations,
                                            checked ? delta : 0.0, checked,
                                            frontier, out.processed,
                                            time_fn()});
    }
    if (stop) break;
  }
  observe_run(stats.iterations, stats.converged);
}

/// Runs the residual-priority loop: one `body(v) -> delta` call per popped
/// node, budgeted at `max_iterations * num_nodes` updates so the cap is
/// comparable with the sweep engines'. The schedule must provide
/// `pop(v) -> bool`, `record(v, delta)`, `empty()` and `pending()`.
///
/// `epoch_hook() -> bool` runs once per sweep-equivalent epoch; returning
/// true ends the run as converged (the alternative stopping rule —
/// syndrome satisfaction for the LDPC families).
///
/// When tracing, one IterationRecord is emitted per `num_nodes` updates (a
/// sweep-equivalent epoch) so residual traces line up with sweep traces.
template <typename Schedule, typename Body, typename EpochHook,
          typename TimeFn>
void run_priority_loop(const BpOptions& opts, std::uint64_t num_nodes,
                       BpStats& stats, Schedule& sched, Body&& body,
                       EpochHook&& epoch_hook, TimeFn&& time_fn) {
  const DeadlineGuard guard(opts.stop, opts.host_deadline_seconds,
                            opts.modelled_deadline_seconds);
  const std::uint64_t max_updates =
      static_cast<std::uint64_t>(opts.max_iterations) * num_nodes;
  const std::uint64_t epoch = std::max<std::uint64_t>(1, num_nodes);
  std::uint64_t updates = 0;
  bool stopped = false;
  bool hook_converged = false;
  graph::NodeId v = 0;
  while (updates < max_updates && sched.pop(v)) {
    ++updates;
    ++stats.elements_processed;
    const float d = body(v);
    sched.record(v, d);
    stats.final_delta = d;
    if (updates % epoch == 0) {
      // One sweep-equivalent epoch: sample the queue as the frontier (§5e).
      observe_iteration(sched.pending(), /*checked=*/true);
    }
    if (opts.collect_trace && num_nodes > 0 && updates % num_nodes == 0) {
      stats.trace.push_back(IterationRecord{
          static_cast<std::uint32_t>(updates / num_nodes), d, true,
          sched.pending(), num_nodes, time_fn()});
    }
    if (updates % epoch == 0 && epoch_hook()) {
      hook_converged = true;
      break;
    }
    // §5c stop policy: cancellation every update, budgets once per
    // sweep-equivalent epoch (the residual loop's convergence cadence).
    if (guard.active()) {
      const StopReason why = guard.poll(updates % epoch == 0,
                                        [&] { return time_fn().total(); });
      if (why != StopReason::kNone) {
        stats.stop_reason = why;
        stopped = true;
        break;
      }
    }
  }
  stats.iterations = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      updates / std::max<std::uint64_t>(1, num_nodes) + 1,
      opts.max_iterations));
  stats.converged =
      hook_converged || (!stopped && (sched.empty() || updates < max_updates));
  observe_run(stats.iterations, stats.converged);
}

/// Concurrent analogue of run_priority_loop for the relaxed schedulers
/// (DESIGN.md §5f): the whole drain runs as ONE fork/join region on
/// `pool`, every worker looping `step(worker) -> updates performed` until
/// the schedule drains, the shared `max_iterations * num_nodes` update
/// budget runs out, or a stop fires. `step` owns popping, the kernel body
/// and recording (so metering stays per-worker); 0 means nothing was
/// claimable this attempt — the worker yields and retries unless the
/// schedule reports drained(). The schedule needs only `drained()` and
/// `pending()` here.
///
/// Epoch bookkeeping (the §5e observation, optional trace record, deadline
/// budget) runs under a driver mutex on whichever worker crosses a
/// num_nodes boundary. Trace records carry checked=false and no delta —
/// the relaxed engines have no global sum — and their time breakdown folds
/// other workers' in-flight sinks, so traced times are approximate while
/// the team runs (the final stats are exact). Cancellation is polled by
/// every worker on every step.
/// `epoch_hook() -> bool` runs under the driver mutex on whichever worker
/// crosses an epoch boundary; returning true aborts the drain with the run
/// marked converged (the alternative stopping rule — syndrome satisfaction
/// for the LDPC families). The hook may read shared belief/message state,
/// but other workers keep updating while it runs, so a true return is
/// provisional: the caller re-checks the joined final state before
/// reporting it.
template <typename Schedule, typename Step, typename EpochHook,
          typename TimeFn>
void run_relaxed_priority_loop(const BpOptions& opts, std::uint64_t num_nodes,
                               BpStats& stats, Schedule& sched,
                               parallel::ThreadPool& pool, Step&& step,
                               EpochHook&& epoch_hook, TimeFn&& time_fn) {
  const DeadlineGuard guard(opts.stop, opts.host_deadline_seconds,
                            opts.modelled_deadline_seconds);
  const std::uint64_t max_updates =
      static_cast<std::uint64_t>(opts.max_iterations) * num_nodes;
  const std::uint64_t epoch = std::max<std::uint64_t>(1, num_nodes);
  std::atomic<std::uint64_t> updates{0};
  std::atomic<bool> abort{false};
  std::atomic<bool> hook_converged{false};
  std::atomic<std::uint8_t> stop_reason{
      static_cast<std::uint8_t>(StopReason::kNone)};
  std::mutex epoch_mu;
  pool.run_team([&](unsigned w) {
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      if (updates.load(std::memory_order_relaxed) >= max_updates) return;
      const std::uint64_t done = step(w);
      if (done == 0) {
        if (sched.drained()) return;
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t total =
          updates.fetch_add(done, std::memory_order_relaxed) + done;
      const bool crossed = (total / epoch) != ((total - done) / epoch);
      if (crossed) {
        const std::lock_guard<std::mutex> lk(epoch_mu);
        observe_iteration(sched.pending(), /*checked=*/true);
        if (opts.collect_trace) {
          stats.trace.push_back(IterationRecord{
              static_cast<std::uint32_t>(total / epoch), 0.0,
              /*checked=*/false, sched.pending(), epoch, time_fn()});
        }
        if (epoch_hook()) {
          hook_converged.store(true, std::memory_order_relaxed);
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
      if (guard.active()) {
        const StopReason why =
            guard.poll(crossed, [&] { return time_fn().total(); });
        if (why != StopReason::kNone) {
          stop_reason.store(static_cast<std::uint8_t>(why),
                            std::memory_order_relaxed);
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  });
  const std::uint64_t total = updates.load(std::memory_order_relaxed);
  stats.elements_processed += total;
  const auto why = static_cast<StopReason>(
      stop_reason.load(std::memory_order_relaxed));
  const bool stopped = why != StopReason::kNone;
  if (stopped) stats.stop_reason = why;
  stats.iterations = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(total / epoch + 1, opts.max_iterations));
  stats.converged =
      hook_converged.load(std::memory_order_relaxed) ||
      (!stopped && (sched.drained() || total < max_updates));
  observe_run(stats.iterations, stats.converged);
}

}  // namespace credo::bp::runtime
