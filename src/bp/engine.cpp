#include "bp/engine.h"

#include <cctype>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/runtime/belief_state.h"
#include "bp/runtime/init.h"
#include "graph/reorder.h"
#include "util/error.h"
#include "util/timer.h"

namespace credo::bp {

namespace {

/// One kind's facts: its names, the platform it runs on, and which
/// families and BpOptions inputs it honours (DESIGN.md §5g, §5h).
struct EngineFacts {
  std::string_view name;   // the paper's name ("CUDA Edge")
  std::string_view slug;   // the CLI slug ("cuda-edge")
  std::string_view alias;  // another accepted name, or empty
  perf::PlatformKind platform;
  bool ldpc;           // runs the closed-form LDPC families
  bool warm_start;     // honours init_beliefs on tabular graphs
  bool frontier_seed;  // honours frontier_seed on tabular graphs
};

/// Every kind, in EngineKind order. The tree recursion and the simulated-
/// device engines have no closed-form kernel, so they run tabular graphs
/// only. Warm starts are a CPU-engine feature: the tree baseline is exact
/// and start-independent, and the device engines model a fresh upload of
/// uniform state per run. The edge engines' queued mode fills its
/// incremental message accumulators on the first full sweep — a partial
/// first frontier would leave the unseeded region's accumulators missing
/// contributions — so they take warm starts but not seeds.
constexpr EngineFacts kEngines[] = {
    // name, slug, alias, platform, ldpc, warm_start, frontier_seed
    {"C Node", "c-node", "", perf::PlatformKind::kCpuSerial, true, true,
     true},
    {"C Edge", "c-edge", "", perf::PlatformKind::kCpuSerial, true, true,
     false},
    {"OpenMP Node", "omp-node", "openmp-node",
     perf::PlatformKind::kCpuParallel, true, true, true},
    {"OpenMP Edge", "omp-edge", "openmp-edge",
     perf::PlatformKind::kCpuParallel, true, true, false},
    {"CUDA Node", "cuda-node", "", perf::PlatformKind::kGpu, false, false,
     false},
    {"CUDA Edge", "cuda-edge", "", perf::PlatformKind::kGpu, false, false,
     false},
    {"OpenACC Edge", "acc-edge", "openacc-edge", perf::PlatformKind::kGpu,
     false, false, false},
    {"Tree BP", "tree", "tree-bp", perf::PlatformKind::kCpuSerial, false,
     false, false},
    {"Residual", "residual", "", perf::PlatformKind::kCpuSerial, true, true,
     true},
    {"Bulk Residual", "bulk-residual", "", perf::PlatformKind::kCpuParallel,
     true, true, true},
};
static_assert(std::size(kEngines) ==
              static_cast<std::size_t>(EngineKind::kBulkResidual) + 1);

const EngineFacts& facts(EngineKind kind) noexcept {
  return kEngines[static_cast<std::size_t>(kind)];
}

}  // namespace

Engine::Engine(EngineKind kind, perf::HardwareProfile profile)
    : kind_(kind), profile_(std::move(profile)) {
  CREDO_CHECK_MSG(profile_.kind == facts(kind).platform,
                  "engine profile is not of the engine kind's platform");
}

BpResult Engine::run(const graph::FactorGraph& g,
                     const BpOptions& opts) const {
  const util::Timer timer;
  if (const auto s = opts.validate_status(); !s.is_ok()) {
    throw util::InvalidArgument(s.message());
  }
  // One capability gate for every engine: the tree recursion and the
  // device engines have no closed-form kernel, so they accept only the
  // tabular family. The CPU engines dispatch per graph inside do_run.
  if (!engine_supports_family(kind(), g.family())) {
    throw util::InvalidArgument(
        std::string("engine '") + std::string(engine_slug(kind())) +
        "' supports only the tabular family; the LDPC families run on "
        "the CPU engines (c-node, c-edge, omp-node, omp-edge, residual, "
        "bulk-residual)");
  }
  // Warm starts and frontier seeds (DESIGN.md §5h) are capability-gated the
  // same way: silently ignoring either would return beliefs the caller
  // believes were incrementally re-converged when they were not.
  if (opts.init_beliefs &&
      !engine_supports_warm_start(kind(), g.family())) {
    throw util::InvalidArgument(
        std::string("engine '") + std::string(engine_slug(kind())) +
        "' does not support warm starts (init_beliefs); see "
        "bp::engine_supports_warm_start");
  }
  if (opts.frontier_seed) {
    if (!opts.init_beliefs) {
      throw util::InvalidArgument(
          "BpOptions: frontier_seed without init_beliefs would re-converge "
          "only the perturbed region from cold priors — the untouched "
          "region's beliefs would be wrong. Seed only with a warm state.");
    }
    if (!engine_supports_frontier_seed(kind(), g.family())) {
      throw util::InvalidArgument(
          std::string("engine '") + std::string(engine_slug(kind())) +
          "' does not support frontier seeding (frontier_seed); see "
          "bp::engine_supports_frontier_seed");
    }
  }
  if (opts.init_beliefs && opts.init_beliefs->size() != g.num_nodes()) {
    throw util::InvalidArgument(
        "BpOptions: init_beliefs must hold exactly one belief per node");
  }
  // Callers speak original node ids; do_run speaks the graph's internal
  // (possibly reordered) ids. The state reads warm input through the
  // permutation and writes the result back through it; the seed is
  // translated here, so engine bodies never see a permutation.
  const graph::Permutation* perm = g.permutation();
  BpOptions eff = opts;
  if (opts.frontier_seed) {
    std::vector<graph::NodeId> touched;
    touched.reserve(opts.frontier_seed->size());
    for (const graph::NodeId v : *opts.frontier_seed) {
      if (v >= g.num_nodes()) {
        throw util::InvalidArgument(
            "BpOptions: frontier_seed contains an out-of-range node id");
      }
      touched.push_back(perm != nullptr ? perm->to_new(v) : v);
    }
    eff.frontier_seed = std::make_shared<std::vector<graph::NodeId>>(
        runtime::expand_frontier_seed(g, touched));
    // Circular-BP-style robustness floor (§5j): seeded runs re-converge a
    // perturbed region whose churn may have created fresh tight loops, so
    // the frontier damping floor kicks in only here — cold full runs keep
    // the caller's damping untouched.
    eff.damping = std::max(eff.damping, opts.frontier_damping);
  }
  runtime::BeliefState state(g, eff);
  BpResult result;
  result.stats = do_run(g, eff, state, result.frontier);
  if (eff.frontier_seed) {
    result.stats.frontier_seeded = eff.frontier_seed->size();
  }
  if (result.frontier && perm != nullptr) {
    for (graph::NodeId& v : *result.frontier) v = perm->to_old(v);
  }
  // The one write of BpResult::beliefs, fused with the un-permute: the
  // locality pass renumbers nodes at build time, and results leave the
  // engine layer in the caller's original ids so the pass stays invisible
  // above the graph layer. The result is allocated (its pages faulted in)
  // on the host clock, as it would be without a permutation; the write
  // pass is timed so request spans can report the phase.
  result.beliefs.resize(g.num_nodes());
  const double before_write = timer.seconds();
  state.unpack(perm, result.beliefs);
  const double total = timer.seconds();
  if (perm != nullptr) result.stats.unpermute_seconds = total - before_write;
  result.stats.host_seconds = total - result.stats.unpermute_seconds;
  return result;
}

std::string_view engine_name(EngineKind kind) noexcept {
  return facts(kind).name;
}

std::string_view engine_slug(EngineKind kind) noexcept {
  return facts(kind).slug;
}

bool engine_supports_family(EngineKind kind,
                            graph::FactorFamily family) noexcept {
  return !graph::is_ldpc(family) || facts(kind).ldpc;
}

bool engine_supports_warm_start(EngineKind kind,
                                graph::FactorFamily family) noexcept {
  // The LDPC kernel holds its state in per-edge log-likelihood-ratio
  // messages, not beliefs, so a belief overlay cannot seed them.
  return !graph::is_ldpc(family) && facts(kind).warm_start;
}

bool engine_supports_frontier_seed(EngineKind kind,
                                   graph::FactorFamily family) noexcept {
  return !graph::is_ldpc(family) && facts(kind).frontier_seed;
}

std::optional<EngineKind> engine_from_name(std::string_view name) noexcept {
  // Canonical form: lowercase, every run of spaces/underscores/hyphens
  // collapsed to one hyphen, outer separators trimmed. "CUDA Edge",
  // "cuda_edge" and "cuda-edge" all canonicalize to "cuda-edge".
  std::string key;
  key.reserve(name.size());
  for (const char c : name) {
    const bool sep = c == ' ' || c == '_' || c == '-' || c == '\t';
    if (sep) {
      if (!key.empty() && key.back() != '-') key.push_back('-');
    } else {
      key.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  if (!key.empty() && key.back() == '-') key.pop_back();

  for (std::size_t i = 0; i < std::size(kEngines); ++i) {
    const EngineFacts& f = kEngines[i];
    if (key == f.slug || (!f.alias.empty() && key == f.alias)) {
      return static_cast<EngineKind>(i);
    }
  }
  return std::nullopt;
}

std::unique_ptr<Engine> make_engine(EngineKind kind,
                                    const perf::HardwareProfile& profile) {
  switch (kind) {
    case EngineKind::kCpuNode:
    case EngineKind::kOmpNode:
      return internal::make_node_engine(kind, profile);
    case EngineKind::kCpuEdge:
    case EngineKind::kOmpEdge:
      return internal::make_edge_engine(kind, profile);
    case EngineKind::kCudaNode: return internal::make_cuda_node(profile);
    case EngineKind::kCudaEdge:
    case EngineKind::kAccEdge:
      return internal::make_device_edge_engine(kind, profile);
    case EngineKind::kTree: return internal::make_tree(profile);
    case EngineKind::kResidual: return internal::make_residual(profile);
    case EngineKind::kBulkResidual:
      return internal::make_bulk_residual(profile);
  }
  throw util::InvalidArgument("unknown engine kind");
}

std::unique_ptr<Engine> make_default_engine(EngineKind kind) {
  switch (facts(kind).platform) {
    case perf::PlatformKind::kCpuSerial:
      return make_engine(kind, perf::cpu_i7_7700hq_serial());
    case perf::PlatformKind::kCpuParallel:
      return make_engine(kind, perf::cpu_i7_7700hq_parallel(8));
    case perf::PlatformKind::kGpu:
      return make_engine(kind, kind == EngineKind::kAccEdge
                                   ? perf::gpu_gtx1070_openacc()
                                   : perf::gpu_gtx1070());
  }
  throw util::InvalidArgument("unknown engine kind");
}

}  // namespace credo::bp
