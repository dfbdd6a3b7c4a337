// Always-on runtime metrics (DESIGN.md §5e).
//
// The per-iteration trace (telemetry.h) is opt-in because it allocates one
// record per iteration; production observability instead wants cheap
// aggregates that are always there. These hooks feed the process-wide
// obs::MetricsRegistry from the same spots the IterationRecord path
// samples — one sharded-atomic histogram observation per iteration and a
// couple of counters per run — so frontier occupancy, iteration counts and
// the convergence-check cadence are visible on any scrape without
// BpOptions::collect_trace. Cost: two relaxed RMWs per iteration against
// O(V+E) kernel work, measured <2% on the bench_reorder smoke suite.
#pragma once

#include <cstdint>
#include <span>

namespace credo::bp::runtime {

/// Records one driver iteration: the frontier the schedule offered and
/// whether the global convergence sum was evaluated this round.
void observe_iteration(std::uint64_t frontier, bool checked) noexcept;

/// Records a finished run: total iterations and whether it converged.
void observe_run(std::uint32_t iterations, bool converged) noexcept;

/// Records a finished sharded-engine run (§5i): per-shard local sweep
/// counts, total ghost-exchange payload moved, and the park/wake totals of
/// the quiescence coordinator. Flushed once per run.
void observe_shard_run(std::span<const std::uint32_t> sweeps,
                       std::uint64_t exchange_bytes, std::uint64_t parks,
                       std::uint64_t wakes) noexcept;

}  // namespace credo::bp::runtime
