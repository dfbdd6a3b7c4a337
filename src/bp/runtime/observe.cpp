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

}  // namespace credo::bp::runtime
