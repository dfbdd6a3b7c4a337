#include "bp/engine.h"

#include <cctype>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/runtime/init.h"
#include "graph/reorder.h"
#include "util/error.h"
#include "util/timer.h"

namespace credo::bp {

BpResult Engine::run(const graph::FactorGraph& g,
                     const BpOptions& opts) const {
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
  // The sharding knobs have no effect anywhere else (DESIGN.md §5i);
  // accepting them silently on other engines would let a typoed engine
  // name absorb a carefully tuned configuration.
  if (kind() != EngineKind::kSharded) {
    if (opts.shard_count != kDefaultShardCount) {
      throw util::InvalidArgument(
          "BpOptions: shard_count applies only to the sharded engine");
    }
    if (opts.shard_exchange_every != kDefaultShardExchangeEvery) {
      throw util::InvalidArgument(
          "BpOptions: shard_exchange_every applies only to the sharded "
          "engine");
    }
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
  // (possibly reordered) ids. Translate both warm inputs here, in the same
  // place the outputs are translated back, so engine bodies never see a
  // permutation.
  const graph::Permutation* perm = g.permutation();
  BpOptions eff = opts;
  if (opts.init_beliefs && perm != nullptr) {
    eff.init_beliefs = std::make_shared<std::vector<graph::BeliefVec>>(
        perm->apply(*opts.init_beliefs));
  }
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
  BpResult result = do_run(g, eff);
  if (eff.frontier_seed) {
    result.stats.frontier_seeded = eff.frontier_seed->size();
  }
  // The locality pass renumbers nodes at build time; results leave the
  // engine layer in the caller's original ids so the pass stays invisible
  // above the graph layer. Timed so request spans can report the phase.
  if (perm != nullptr) {
    const util::Timer unpermute_timer;
    result.beliefs = perm->unapply(result.beliefs);
    result.stats.unpermute_seconds = unpermute_timer.seconds();
  }
  return result;
}

std::string_view engine_name(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kCpuNode: return "C Node";
    case EngineKind::kCpuEdge: return "C Edge";
    case EngineKind::kOmpNode: return "OpenMP Node";
    case EngineKind::kOmpEdge: return "OpenMP Edge";
    case EngineKind::kCudaNode: return "CUDA Node";
    case EngineKind::kCudaEdge: return "CUDA Edge";
    case EngineKind::kAccEdge: return "OpenACC Edge";
    case EngineKind::kTree: return "Tree BP";
    case EngineKind::kResidual: return "Residual";
    case EngineKind::kBulkResidual: return "Bulk Residual";
    case EngineKind::kSharded: return "Sharded";
  }
  return "unknown";
}

std::string_view engine_slug(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::kCpuNode: return "c-node";
    case EngineKind::kCpuEdge: return "c-edge";
    case EngineKind::kOmpNode: return "omp-node";
    case EngineKind::kOmpEdge: return "omp-edge";
    case EngineKind::kCudaNode: return "cuda-node";
    case EngineKind::kCudaEdge: return "cuda-edge";
    case EngineKind::kAccEdge: return "acc-edge";
    case EngineKind::kTree: return "tree";
    case EngineKind::kResidual: return "residual";
    case EngineKind::kBulkResidual: return "bulk-residual";
    case EngineKind::kSharded: return "sharded";
  }
  return "unknown";
}

bool engine_supports_family(EngineKind kind,
                            graph::FactorFamily family) noexcept {
  if (!graph::is_ldpc(family)) return true;
  switch (kind) {
    case EngineKind::kTree:
    case EngineKind::kCudaNode:
    case EngineKind::kCudaEdge:
    case EngineKind::kAccEdge:
    // Sharded execution keeps per-shard belief state only; the LDPC
    // kernel's per-edge LLR messages have no ghost representation yet.
    case EngineKind::kSharded:
      return false;
    default:
      return true;
  }
}

bool engine_supports_warm_start(EngineKind kind,
                                graph::FactorFamily family) noexcept {
  // The LDPC kernel holds its state in per-edge log-likelihood-ratio
  // messages, not beliefs, so a belief overlay cannot seed them; the tree
  // baseline is exact and start-independent; the simulated-device engines
  // model a fresh upload of uniform state per run.
  if (graph::is_ldpc(family)) return false;
  switch (kind) {
    case EngineKind::kTree:
    case EngineKind::kCudaNode:
    case EngineKind::kCudaEdge:
    case EngineKind::kAccEdge:
      return false;
    default:
      return true;
  }
}

bool engine_supports_frontier_seed(EngineKind kind,
                                   graph::FactorFamily family) noexcept {
  if (!engine_supports_warm_start(kind, family)) return false;
  // The edge engines' queued mode fills its incremental message
  // accumulators on the first full sweep; a partial first frontier would
  // leave the unseeded region's accumulators missing contributions. They
  // accept warm starts (a dense first sweep recomputes every message from
  // the warm beliefs) but not seeds.
  return kind != EngineKind::kCpuEdge && kind != EngineKind::kOmpEdge;
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

  if (key == "c-node") return EngineKind::kCpuNode;
  if (key == "c-edge") return EngineKind::kCpuEdge;
  if (key == "omp-node" || key == "openmp-node") return EngineKind::kOmpNode;
  if (key == "omp-edge" || key == "openmp-edge") return EngineKind::kOmpEdge;
  if (key == "cuda-node") return EngineKind::kCudaNode;
  if (key == "cuda-edge") return EngineKind::kCudaEdge;
  if (key == "acc-edge" || key == "openacc-edge") {
    return EngineKind::kAccEdge;
  }
  if (key == "tree" || key == "tree-bp") return EngineKind::kTree;
  if (key == "residual") return EngineKind::kResidual;
  if (key == "bulk-residual") return EngineKind::kBulkResidual;
  if (key == "sharded" || key == "shard" || key == "sharded-bp") {
    return EngineKind::kSharded;
  }
  return std::nullopt;
}

std::unique_ptr<Engine> make_engine(EngineKind kind,
                                    const perf::HardwareProfile& profile) {
  switch (kind) {
    case EngineKind::kCpuNode: return internal::make_cpu_node(profile);
    case EngineKind::kCpuEdge: return internal::make_cpu_edge(profile);
    case EngineKind::kOmpNode: return internal::make_omp_node(profile);
    case EngineKind::kOmpEdge: return internal::make_omp_edge(profile);
    case EngineKind::kCudaNode: return internal::make_cuda_node(profile);
    case EngineKind::kCudaEdge: return internal::make_cuda_edge(profile);
    case EngineKind::kAccEdge: return internal::make_acc_edge(profile);
    case EngineKind::kTree: return internal::make_tree(profile);
    case EngineKind::kResidual: return internal::make_residual(profile);
    case EngineKind::kBulkResidual:
      return internal::make_bulk_residual(profile);
    case EngineKind::kSharded: return internal::make_sharded(profile);
  }
  throw util::InvalidArgument("unknown engine kind");
}

std::unique_ptr<Engine> make_default_engine(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCpuNode:
    case EngineKind::kCpuEdge:
    case EngineKind::kTree:
    case EngineKind::kResidual:
      return make_engine(kind, perf::cpu_i7_7700hq_serial());
    case EngineKind::kOmpNode:
    case EngineKind::kOmpEdge:
    case EngineKind::kBulkResidual:
    case EngineKind::kSharded:
      return make_engine(kind, perf::cpu_i7_7700hq_parallel(8));
    case EngineKind::kCudaNode:
    case EngineKind::kCudaEdge:
      return make_engine(kind, perf::gpu_gtx1070());
    case EngineKind::kAccEdge:
      return make_engine(kind, perf::gpu_gtx1070_openacc());
  }
  throw util::InvalidArgument("unknown engine kind");
}

}  // namespace credo::bp
