// Options and results shared by every BP engine.
#pragma once

#include <cstdint>
#include <memory>
#include <stop_token>
#include <utility>
#include <vector>

#include "bp/runtime/stop.h"
#include "bp/runtime/telemetry.h"
#include "graph/belief.h"
#include "graph/csr.h"
#include "parallel/thread_pool.h"
#include "perf/cost_model.h"
#include "perf/counters.h"
#include "util/error.h"

namespace credo::bp {

/// Knobs for a propagation run. Defaults follow the paper's evaluation
/// setup: convergence within 0.001, cut off at 200 iterations, 1024-thread
/// blocks on the GPU.
struct BpOptions {
  /// Stop when the sum of per-node L1 belief changes drops below this.
  float convergence_threshold = 1e-3f;

  /// Hard iteration cap (the paper's 200).
  std::uint32_t max_iterations = 200;

  /// §3.5 work queues: only unconverged nodes/edges are processed after
  /// the first iteration.
  bool work_queue = false;

  /// Per-element convergence threshold used to drop elements from the work
  /// queue. The global threshold is an absolute sum over all nodes
  /// (Algorithm 1), so the per-element bar must sit well below
  /// threshold / num_nodes for the two stopping rules to agree.
  float queue_threshold = 1e-7f;

  /// GPU engines: iterations executed between convergence-check transfers
  /// (the batching of §2.4/§3.6). 1 = check every iteration.
  std::uint32_t convergence_batch = 4;

  /// CPU-parallel engines: team size (§2.4). Every loop is dispatched
  /// statically, one contiguous block per worker.
  unsigned threads = 8;

  /// GPU engines: threads per block (the paper uses 1024 everywhere).
  std::uint32_t block_threads = 1024;

  /// Damping factor in [0, 1): the stored belief becomes
  /// (1-damping)*update + damping*previous. 0 reproduces the paper's
  /// undamped Algorithm 1; positive values stabilize loopy dynamics on
  /// multi-stable systems (strong couplings, dense hubs) at the cost of
  /// extra flops per node.
  float damping = 0.0f;

  /// Tree (non-loopy) engine: true reproduces the paper's §2.1.1 baseline,
  /// which finds each level's members by rescanning the whole edge list
  /// (no adjacency index); false uses the CSR-indexed implementation.
  bool tree_naive = true;

  /// Record one runtime::IterationRecord per iteration into
  /// BpStats::trace (`credo_cli run --trace out.csv`). Off by default:
  /// cheap but not free — one cost-model evaluation per iteration.
  bool collect_trace = false;

  /// Cooperative cancellation (DESIGN.md §5c): the iteration drivers poll
  /// this token once per iteration and end the run with
  /// BpStats::stop_reason == kCancelled when it fires. Default-constructed
  /// tokens never fire.
  std::stop_token stop;

  /// Wall-clock budget for the run loop in seconds; 0 = unlimited. Checked
  /// at the convergence-check cadence; an over-budget run ends with
  /// stop_reason == kDeadline.
  double host_deadline_seconds = 0.0;

  /// Modelled-time budget in seconds; 0 = unlimited. Each check evaluates
  /// the cost model over the counters so far, so prefer the host budget
  /// when either would do.
  double modelled_deadline_seconds = 0.0;

  /// When set and sized to the effective team, the CPU-parallel engines
  /// dispatch fork/join regions on this pool instead of spawning their own
  /// (the serve layer shares one pool across requests). The pool supports
  /// one dispatcher at a time — callers serialize access. Not owned.
  parallel::ThreadPool* shared_pool = nullptr;

  /// LDPC families (DESIGN.md §5g): also stop when the decode's hard
  /// decisions satisfy every parity check — the natural decode-success
  /// criterion — evaluated at the convergence-check cadence alongside the
  /// belief-delta rule. A run stopped this way reports
  /// BpStats::syndrome_satisfied (and converged). Ignored by tabular
  /// graphs, which have no syndrome.
  bool syndrome_stop = false;

  /// Warm start (DESIGN.md §5h): initial belief state in the caller's
  /// ORIGINAL node ids, one entry per node. Null = every node starts at
  /// its prior (the cold default). Observed nodes always keep their fixed
  /// point-mass — the overlay never overrides evidence. Engine::run maps
  /// the vector through the graph's recorded permutation, size-checks it,
  /// and rejects it on engines without warm-start support
  /// (bp::engine_supports_warm_start). Shared, never mutated.
  std::shared_ptr<const std::vector<graph::BeliefVec>> init_beliefs;

  /// Incremental re-convergence (DESIGN.md §5h): the nodes an evidence
  /// delta touched, in the caller's ORIGINAL node ids. Null = full run.
  /// When set, the engine's schedule starts from this seed (expanded to
  /// the touched nodes' out-neighbors, since evidence on roots and
  /// observed nodes propagates only through their children) instead of
  /// the full node set, and grows it as changes ripple — the §3.5
  /// frontier machinery pointed at a perturbation instead of a cold
  /// start. Meaningful with init_beliefs holding a converged state;
  /// rejected on engines without seed support
  /// (bp::engine_supports_frontier_seed). Shared, never mutated.
  std::shared_ptr<const std::vector<graph::NodeId>> frontier_seed;

  /// Minimum damping applied while a frontier seed is set (DESIGN.md §5j).
  /// Topology churn creates fresh tight loops mid-run, exactly the regime
  /// where vanilla loopy BP oscillates (Bouttier et al.'s circular-BP
  /// analysis, PAPERS.md); this floor — effective damping is
  /// max(damping, frontier_damping) — stabilizes the perturbed region
  /// without slowing cold full runs, which ignore it. serve::Server keeps
  /// it for delta requests only: the warm repeats it seeds without a
  /// perturbation (§5h) run at `damping`. 0 (the default) leaves `damping`
  /// alone. Must be in [0, 1).
  float frontier_damping = 0.0f;

  // -------------------------------------------------------------------------
  // Fluent setters: `BpOptions{}.with_threads(4).with_damping(0.1f)` reads
  // as a request instead of a positional mutation. Each returns *this so
  // chains compose; plain aggregate initialization keeps working.
  // -------------------------------------------------------------------------
  BpOptions& with_convergence_threshold(float v) noexcept {
    convergence_threshold = v;
    return *this;
  }
  BpOptions& with_max_iterations(std::uint32_t v) noexcept {
    max_iterations = v;
    return *this;
  }
  BpOptions& with_work_queue(bool v = true) noexcept {
    work_queue = v;
    return *this;
  }
  BpOptions& with_queue_threshold(float v) noexcept {
    queue_threshold = v;
    return *this;
  }
  BpOptions& with_convergence_batch(std::uint32_t v) noexcept {
    convergence_batch = v;
    return *this;
  }
  BpOptions& with_threads(unsigned v) noexcept {
    threads = v;
    return *this;
  }
  BpOptions& with_block_threads(std::uint32_t v) noexcept {
    block_threads = v;
    return *this;
  }
  BpOptions& with_damping(float v) noexcept {
    damping = v;
    return *this;
  }
  BpOptions& with_tree_naive(bool v = true) noexcept {
    tree_naive = v;
    return *this;
  }
  BpOptions& with_collect_trace(bool v = true) noexcept {
    collect_trace = v;
    return *this;
  }
  BpOptions& with_stop(std::stop_token t) noexcept {
    stop = std::move(t);
    return *this;
  }
  BpOptions& with_host_deadline(double seconds) noexcept {
    host_deadline_seconds = seconds;
    return *this;
  }
  BpOptions& with_modelled_deadline(double seconds) noexcept {
    modelled_deadline_seconds = seconds;
    return *this;
  }
  BpOptions& with_shared_pool(parallel::ThreadPool* pool) noexcept {
    shared_pool = pool;
    return *this;
  }
  BpOptions& with_syndrome_stop(bool v = true) noexcept {
    syndrome_stop = v;
    return *this;
  }
  BpOptions& with_init_beliefs(
      std::shared_ptr<const std::vector<graph::BeliefVec>> v) noexcept {
    init_beliefs = std::move(v);
    return *this;
  }
  BpOptions& with_frontier_seed(
      std::shared_ptr<const std::vector<graph::NodeId>> v) noexcept {
    frontier_seed = std::move(v);
    return *this;
  }
  BpOptions& with_frontier_damping(float v) noexcept {
    frontier_damping = v;
    return *this;
  }

  /// Rejects settings that would loop forever, divide by zero or never
  /// converge, reported through the shared status vocabulary (DESIGN.md
  /// §5e). The comparisons are written so NaN fails too.
  [[nodiscard]] util::Status validate_status() const noexcept {
    const auto invalid = [](const char* msg) {
      return util::Status(util::StatusCode::kInvalidArgument, msg);
    };
    if (!(convergence_threshold > 0.0f)) {
      return invalid("BpOptions: convergence_threshold must be positive");
    }
    if (!(queue_threshold > 0.0f)) {
      return invalid("BpOptions: queue_threshold must be positive");
    }
    if (!(queue_threshold < convergence_threshold)) {
      // The global threshold is an absolute sum over all nodes while the
      // queue bar is per element: a bar at or above the global threshold
      // lets the §3.5 work queue drop elements whose combined residual the
      // global stopping rule still counts, so the run can neither drain
      // nor converge.
      return invalid(
          "BpOptions: queue_threshold must be below "
          "convergence_threshold (the per-element bar must sit under the "
          "global stopping rule)");
    }
    if (max_iterations == 0) {
      return invalid("BpOptions: max_iterations must be nonzero");
    }
    if (!(damping >= 0.0f && damping < 1.0f)) {
      return invalid("BpOptions: damping must be in [0, 1)");
    }
    if (!(frontier_damping >= 0.0f && frontier_damping < 1.0f)) {
      return invalid("BpOptions: frontier_damping must be in [0, 1)");
    }
    if (threads == 0) {
      return invalid("BpOptions: threads must be nonzero");
    }
    if (block_threads == 0) {
      return invalid("BpOptions: block_threads must be nonzero");
    }
    if (convergence_batch == 0) {
      return invalid("BpOptions: convergence_batch must be nonzero");
    }
    if (!(host_deadline_seconds >= 0.0)) {
      return invalid("BpOptions: host_deadline_seconds must be >= 0");
    }
    if (!(modelled_deadline_seconds >= 0.0)) {
      return invalid("BpOptions: modelled_deadline_seconds must be >= 0");
    }
    return util::Status::ok();
  }

};

/// Outcome of a run. `time` is the modelled execution time on the engine's
/// hardware profile (see DESIGN.md §2); `host_seconds` is the real time
/// Engine::run took, less `unpermute_seconds` (reported for transparency,
/// never used in the paper-reproduction tables).
struct BpStats {
  std::uint32_t iterations = 0;
  bool converged = false;
  double final_delta = 0.0;
  std::uint64_t elements_processed = 0;  // node- or edge-visits summed
  perf::Counters counters;
  perf::TimeBreakdown time;
  double host_seconds = 0.0;

  /// Host time of Engine::run's one write of the packed state into
  /// BpResult::beliefs when it un-permutes them back to the caller's
  /// original node ids (0 when the graph carried no permutation, and
  /// host_seconds covers the write). Reported so request spans can
  /// attribute the phase (DESIGN.md §5e).
  double unpermute_seconds = 0.0;

  /// Why the run ended early, if it did (cancellation or a deadline,
  /// DESIGN.md §5c). kNone for runs that converged or hit the cap.
  runtime::StopReason stop_reason = runtime::StopReason::kNone;

  /// LDPC families: true when the run's hard decisions satisfied every
  /// parity check (decode success). Set whenever the final state
  /// satisfies the syndrome — whether the run stopped for that reason
  /// (BpOptions::syndrome_stop) or converged by deltas first.
  bool syndrome_satisfied = false;

  /// Number of nodes the run's schedule was seeded with (after expanding
  /// BpOptions::frontier_seed to the touched nodes' out-neighbors). 0 for
  /// cold full runs. Response::frontier_fraction derives from this.
  std::uint64_t frontier_seeded = 0;

  /// Per-iteration telemetry; filled only when BpOptions::collect_trace.
  std::vector<runtime::IterationRecord> trace;

  [[nodiscard]] double modelled_seconds() const noexcept {
    return time.total();
  }
};

}  // namespace credo::bp
