#include "bp/runtime/observe.h"

#include "obs/metrics.h"

namespace credo::bp::runtime {
namespace {

/// Handles resolved once against the global registry (magic statics); the
/// per-iteration path then costs only the sharded increments themselves.
struct Handles {
  obs::Histogram& frontier;
  obs::Counter& iterations;
  obs::Counter& checks;
  obs::Histogram& run_iterations;
  obs::Counter& runs;
  obs::Counter& runs_converged;
  obs::Counter& shard_runs;
  obs::Counter& shard_exchange_bytes;
  obs::Counter& shard_parks;
  obs::Counter& shard_wakes;
  obs::Histogram& shard_sweeps;

  static Handles& get() {
    static Handles h{
        obs::MetricsRegistry::global().histogram(
            "credo_bp_frontier_size",
            "Elements the schedule offered per driver iteration",
            obs::decade_buckets(9)),
        obs::MetricsRegistry::global().counter(
            "credo_bp_iterations_total", "Driver iterations executed"),
        obs::MetricsRegistry::global().counter(
            "credo_bp_convergence_checks_total",
            "Global convergence sums evaluated (cadence = iterations_total"
            " / checks_total)"),
        obs::MetricsRegistry::global().histogram(
            "credo_bp_run_iterations",
            "Iterations per finished BP run", obs::pow2_buckets(10)),
        obs::MetricsRegistry::global().counter("credo_bp_runs_total",
                                               "BP runs finished"),
        obs::MetricsRegistry::global().counter(
            "credo_bp_runs_converged_total", "BP runs that converged"),
        obs::MetricsRegistry::global().counter(
            "credo_shard_runs_total", "Sharded-engine runs finished"),
        obs::MetricsRegistry::global().counter(
            "credo_shard_exchange_bytes_total",
            "Ghost-buffer belief payload published and imported across "
            "shard boundaries"),
        obs::MetricsRegistry::global().counter(
            "credo_shard_parks_total",
            "Shards parked as locally quiescent (woken parks count again)"),
        obs::MetricsRegistry::global().counter(
            "credo_shard_wakes_total",
            "Parked shards woken by a changed neighbor publish"),
        obs::MetricsRegistry::global().histogram(
            "credo_shard_sweeps",
            "Local sweeps per shard over a sharded run",
            obs::pow2_buckets(10)),
    };
    return h;
  }
};

}  // namespace

void observe_iteration(std::uint64_t frontier, bool checked) noexcept {
  Handles& h = Handles::get();
  h.frontier.observe(static_cast<double>(frontier));
  h.iterations.inc();
  if (checked) h.checks.inc();
}

void observe_run(std::uint32_t iterations, bool converged) noexcept {
  Handles& h = Handles::get();
  h.run_iterations.observe(static_cast<double>(iterations));
  h.runs.inc();
  if (converged) h.runs_converged.inc();
}

void observe_shard_run(std::span<const std::uint32_t> sweeps,
                       std::uint64_t exchange_bytes, std::uint64_t parks,
                       std::uint64_t wakes) noexcept {
  Handles& h = Handles::get();
  h.shard_runs.inc();
  if (exchange_bytes > 0) h.shard_exchange_bytes.inc(exchange_bytes);
  if (parks > 0) h.shard_parks.inc(parks);
  if (wakes > 0) h.shard_wakes.inc(wakes);
  for (const std::uint32_t s : sweeps) {
    h.shard_sweeps.observe(static_cast<double>(s));
  }
}

}  // namespace credo::bp::runtime
