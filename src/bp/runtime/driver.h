// The shared iteration drivers (DESIGN.md §5b).
//
// Every sweep engine — sequential, thread-pool or device — runs the same
// outer loop: ask the schedule what to process, run the paradigm's body,
// advance the schedule (queue swap / cursor readback), then consult the
// convergence controller. `run_loop` is that loop, written once; the
// engines contribute only the body (the kernel math and its metering,
// which stay engine-specific so modelled costs are untouched by this
// layer). `run_priority_loop` is the analogous driver for the residual
// engine, whose unit of progress is one node update rather than a sweep,
// and `run_round_loop` the one for its bulk form, whose unit is a round.
//
// Ordering note: the schedule advances *before* the global check. For CPU
// engines the advance is unmetered, and for device frontiers the cursor
// readback precedes the batched check in the original formulation too, so
// both stats and metered totals are preserved exactly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "bp/options.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/observe.h"
#include "bp/runtime/stop.h"
#include "bp/runtime/telemetry.h"
#include "graph/factor_graph.h"

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

/// Bulk analogue of run_priority_loop (DESIGN.md §5f): the residual
/// schedule drains in synchronous rounds instead of one pop at a time.
/// `round(budget, delta) -> updates` runs one round of at most `budget`
/// node updates (the engine runs it as one parallel region) and stores the
/// round's summed belief change in `delta`. The schedule must provide
/// `drained()` and `pending()`.
///
/// Same conventions as run_priority_loop: the run is converged when the
/// schedule drains, the budget is `max_iterations * num_nodes` updates,
/// and BpStats::iterations counts sweep-equivalent epochs. The epoch
/// bookkeeping — observation, trace record and `epoch_hook` (syndrome
/// satisfaction for the LDPC families; true ends the run as converged) —
/// runs between the rounds that cross a `num_nodes` boundary, as do the
/// deadline budgets; cancellation is polled between every two rounds. No
/// update is in flight at those points, so every verdict is exact.
///
/// One rule goes beyond run_priority_loop: a pass — as many updates as
/// the active set held when it began, the bulk form of a §3.5 frontier
/// sweep — whose summed change meets Algorithm 1's global threshold ends
/// the run as converged, as the sweep engines stop on a sweep's sum. It
/// ends the limit cycles of float32-noise deltas that keep a queue bar
/// below the noise floor (the 1e-7 default) from ever draining.
template <typename Schedule, typename Round, typename EpochHook,
          typename TimeFn>
void run_round_loop(const BpOptions& opts, std::uint64_t num_nodes,
                    BpStats& stats, const ConvergenceController& ctl,
                    Schedule& sched, Round&& round, EpochHook&& epoch_hook,
                    TimeFn&& time_fn) {
  const DeadlineGuard guard(opts.stop, opts.host_deadline_seconds,
                            opts.modelled_deadline_seconds);
  const std::uint64_t max_updates =
      static_cast<std::uint64_t>(opts.max_iterations) * num_nodes;
  const std::uint64_t epoch = std::max<std::uint64_t>(1, num_nodes);
  std::uint64_t updates = 0;
  std::uint64_t pass_left = sched.pending();
  double pass_delta = 0.0;
  bool converged = false;
  while (!sched.drained() && updates < max_updates) {
    double delta = 0.0;
    const std::uint64_t done = round(max_updates - updates, delta);
    updates += done;
    stats.elements_processed += done;
    stats.final_delta = delta;
    bool stop = false;
    pass_delta += delta;
    if (done < pass_left) {
      pass_left -= done;
    } else if (ctl.global_converged(pass_delta)) {
      converged = stop = true;
    } else {
      pass_left = sched.pending();
      pass_delta = 0.0;
    }
    const bool crossed = updates / epoch != (updates - done) / epoch;
    if (crossed) {
      observe_iteration(sched.pending(), /*checked=*/true);
      if (opts.collect_trace) {
        stats.trace.push_back(IterationRecord{
            static_cast<std::uint32_t>(updates / epoch), delta, true,
            sched.pending(), epoch, time_fn()});
      }
      if (!stop && epoch_hook()) converged = stop = true;
    }
    if (!stop && guard.active()) {
      const StopReason why =
          guard.poll(crossed, [&] { return time_fn().total(); });
      if (why != StopReason::kNone) {
        stats.stop_reason = why;
        stop = true;
      }
    }
    if (stop) break;
  }
  stats.iterations = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(updates / epoch + 1, opts.max_iterations));
  stats.converged =
      converged ||
      (stats.stop_reason == StopReason::kNone && sched.drained());
  observe_run(stats.iterations, stats.converged);
}

}  // namespace credo::bp::runtime
