// The engine interface and registry — Credo's suite of implementations.
//
// The paper's core four are the sequential C Node/Edge and CUDA Node/Edge
// engines (§3.6); the OpenMP- and OpenACC-style engines reproduce the §2.4
// negative results; the tree engine is the §2.1.1 non-loopy baseline.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bp/options.h"
#include "graph/factor_graph.h"
#include "perf/profiles.h"

namespace credo::bp {

namespace runtime {
class BeliefState;  // bp/runtime/belief_state.h
}

/// Engine identifiers, named as the paper names them.
enum class EngineKind {
  kCpuNode,   // "C Node"  — sequential, per-node processing
  kCpuEdge,   // "C Edge"  — sequential, per-edge processing
  kOmpNode,   // OpenMP-style CPU-parallel, per-node
  kOmpEdge,   // OpenMP-style CPU-parallel, per-edge
  kCudaNode,  // "CUDA Node" on the simulated device
  kCudaEdge,  // "CUDA Edge" on the simulated device
  kAccEdge,   // OpenACC-style naive offload (edge paradigm)
  kTree,      // non-loopy two-pass tree BP (§2.1.1 baseline)
  kResidual,  // residual-prioritized scheduling (extension; cf. §5.1)
  kBulkResidual,  // residual drained in parallel bulk rounds (§5f)
};

/// Human-readable engine name ("C Node", "CUDA Edge", ...).
[[nodiscard]] std::string_view engine_name(EngineKind kind) noexcept;

/// CLI slug for an engine ("c-node", "cuda-edge", ...): lowercase,
/// hyphen-separated, stable across releases.
[[nodiscard]] std::string_view engine_slug(EngineKind kind) noexcept;

/// True when `kind` can run graphs of `family` (DESIGN.md §5g). The
/// tabular family runs everywhere; the closed-form LDPC families run on
/// the CPU engines only — the tree recursion and the simulated-device
/// engines have no closed-form kernel. Engine::run enforces this (throws
/// util::InvalidArgument); front ends use it to pick a capable default.
[[nodiscard]] bool engine_supports_family(EngineKind kind,
                                          graph::FactorFamily family) noexcept;

/// True when `kind` honors BpOptions::init_beliefs on graphs of `family`
/// (DESIGN.md §5h). Warm starts are a CPU-engine, tabular-family feature:
/// the tree baseline's exact two-pass answer is start-independent, the
/// simulated-device engines re-upload uniform state by design, and the
/// LDPC kernel keeps message state in log-likelihood ratios that a belief
/// overlay cannot express. Engine::run enforces this.
[[nodiscard]] bool engine_supports_warm_start(
    EngineKind kind, graph::FactorFamily family) noexcept;

/// True when `kind` honors BpOptions::frontier_seed on graphs of `family`
/// (DESIGN.md §5h). A strict subset of warm-start support: the node-frontier
/// and residual schedules can start from a perturbed region, but the edge
/// engines' incremental accumulators are only filled by a full first sweep,
/// so they take warm starts without seeding. Engine::run enforces this.
[[nodiscard]] bool engine_supports_frontier_seed(
    EngineKind kind, graph::FactorFamily family) noexcept;

/// The single engine-name parser (every front end routes through this: the
/// CLI, the serve layer, tools). Accepts the paper names produced by
/// engine_name ("CUDA Edge"), the CLI slugs ("cuda-edge") and common
/// aliases ("openmp-node" for "omp-node", "openacc-edge" for "acc-edge",
/// "tree-bp" for "tree"); matching is case-insensitive and treats spaces,
/// underscores and hyphens alike. Returns nullopt for anything else.
[[nodiscard]] std::optional<EngineKind> engine_from_name(
    std::string_view name) noexcept;

/// A run's open frontier: the nodes its schedule still held when it
/// stopped (BpResult::frontier).
using Frontier = std::optional<std::vector<graph::NodeId>>;

/// Result of a propagation: final beliefs plus run statistics.
struct BpResult {
  std::vector<graph::BeliefVec> beliefs;
  BpStats stats;

  /// The nodes the run's schedule still held when it stopped, in the
  /// caller's original ids (DESIGN.md §5h), for schedules that wake the
  /// children of every node that moved by more than the queue bar: the
  /// next round of a seeded c-node/omp-node queue, the still-active set of
  /// the residual and bulk-residual schedules. A node outside it has been
  /// updated since each of its parents last moved by more than the bar in
  /// this run. Empty when the queue drained. nullopt for dense sweeps, for
  /// unseeded §3.5 queues (which re-enqueue a node alone, so a node they
  /// dropped early never sees its parents' later changes), and for the
  /// edge, device and tree engines. Kept out of BpStats, which callers
  /// retain per run; resuming from it (init_beliefs = beliefs,
  /// frontier_seed = frontier) picks the run up where it stopped.
  Frontier frontier;
};

/// A belief-propagation engine bound to a hardware profile.
class Engine {
 public:
  /// Binds the engine to `profile`, which must be of the platform `kind`
  /// runs on (serial CPU, CPU-parallel or GPU); throws std::logic_error
  /// otherwise. Engine is abstract: subclasses inherit this constructor.
  Engine(EngineKind kind, perf::HardwareProfile profile);
  virtual ~Engine() = default;

  [[nodiscard]] EngineKind kind() const noexcept { return kind_; }
  [[nodiscard]] const perf::HardwareProfile& hardware() const noexcept {
    return profile_;
  }

  /// Runs BP on `g` to convergence (or the iteration cap) and returns the
  /// marginal beliefs. Validates `opts` first (BpOptions::validate, which
  /// throws util::InvalidArgument on out-of-domain settings). The graph is
  /// not modified: the run packs its own belief state (a
  /// runtime::BeliefState) and writes the result from it once. When `g`
  /// was built through the locality pass (graph/reorder.h), warm input is
  /// read and the returned beliefs are written in the caller's original
  /// node ids. `host_seconds` covers the run except that write pass when
  /// it un-permutes, which `unpermute_seconds` times.
  [[nodiscard]] BpResult run(const graph::FactorGraph& g,
                             const BpOptions& opts) const;

  [[nodiscard]] std::string_view name() const noexcept {
    return engine_name(kind());
  }

 protected:
  /// Engine implementation hook; `opts` arrives validated. Runs on
  /// `state` — packed in g's internal ids, holding the priors and any warm
  /// overlay — and leaves the final beliefs in it; returns the run's stats
  /// without the host-time fields, which run() stamps. Engines whose
  /// schedule wakes the children of moved nodes hand its remainder to
  /// `frontier` (BpResult::frontier), in g's internal ids; run() maps it
  /// to the caller's.
  [[nodiscard]] virtual BpStats do_run(const graph::FactorGraph& g,
                                       const BpOptions& opts,
                                       runtime::BeliefState& state,
                                       Frontier& frontier) const = 0;

 private:
  EngineKind kind_;
  perf::HardwareProfile profile_;
};

/// Creates an engine of the given kind on the given hardware profile. The
/// profile's platform must match the kind's: a serial CPU profile for
/// c-node, c-edge, tree and residual, a CPU-parallel one for omp-node,
/// omp-edge and bulk-residual, a GPU one for cuda-node, cuda-edge and
/// acc-edge (checked; throws std::logic_error).
[[nodiscard]] std::unique_ptr<Engine> make_engine(
    EngineKind kind, const perf::HardwareProfile& profile);

/// Convenience: engines on the paper's default hardware (i7-7700HQ +
/// GTX 1070). OpenMP engines get the 8-thread profile.
[[nodiscard]] std::unique_ptr<Engine> make_default_engine(EngineKind kind);

}  // namespace credo::bp
