// Cross-engine correctness: every loopy engine must reach (nearly) the same
// fixed point on the same graph, work queues must not change the answer
// materially, and observed nodes must stay fixed.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bp/engine.h"
#include "bp/runtime/convergence.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/ldpc.h"
#include "graph/metadata.h"
#include "graph/reorder.h"
#include "perf/profiles.h"
#include "util/error.h"
#include "util/prng.h"

namespace credo {
namespace {

using bp::BpOptions;
using bp::BpResult;
using bp::EngineKind;
using graph::BeliefConfig;
using graph::FactorGraph;

/// Largest per-state belief difference between two results.
float max_belief_gap(const BpResult& a, const BpResult& b) {
  EXPECT_EQ(a.beliefs.size(), b.beliefs.size());
  float worst = 0.0f;
  for (std::size_t v = 0; v < a.beliefs.size(); ++v) {
    worst = std::max(worst, graph::l1_diff(a.beliefs[v], b.beliefs[v]));
  }
  return worst;
}

FactorGraph small_graph(std::uint32_t beliefs, std::uint64_t seed = 7) {
  BeliefConfig cfg;
  cfg.beliefs = beliefs;
  cfg.seed = seed;
  cfg.observed_fraction = 0.1;
  return graph::uniform_random(200, 800, cfg);
}

constexpr std::array<EngineKind, 10> kAllKinds = {
    EngineKind::kCpuNode,  EngineKind::kCpuEdge,  EngineKind::kOmpNode,
    EngineKind::kOmpEdge,  EngineKind::kCudaNode, EngineKind::kCudaEdge,
    EngineKind::kAccEdge,  EngineKind::kTree,     EngineKind::kResidual,
    EngineKind::kBulkResidual};

BpOptions default_opts() {
  BpOptions o;
  o.convergence_threshold = 1e-4f;
  o.max_iterations = 200;
  return o;
}

TEST(BpEngines, CpuNodeConverges) {
  const auto g = small_graph(2);
  const auto eng = bp::make_default_engine(EngineKind::kCpuNode);
  const auto r = eng->run(g, default_opts());
  EXPECT_TRUE(r.stats.converged);
  EXPECT_GT(r.stats.iterations, 1u);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    float sum = 0.0f;
    for (std::uint32_t s = 0; s < g.arity(v); ++s) {
      sum += r.beliefs[v][s];
    }
    ASSERT_NEAR(sum, 1.0f, 1e-4f) << "node " << v;
  }
}

TEST(BpEngines, AllLoopyEnginesAgree) {
  const auto g = small_graph(3);
  const auto opts = default_opts();
  const auto c_node = bp::make_default_engine(EngineKind::kCpuNode);
  const auto reference = c_node->run(g, opts);
  ASSERT_TRUE(reference.stats.converged);
  for (const auto kind :
       {EngineKind::kCpuEdge, EngineKind::kOmpEdge, EngineKind::kCudaNode,
        EngineKind::kCudaEdge, EngineKind::kAccEdge}) {
    const auto r = bp::make_default_engine(kind)->run(g, opts);
    EXPECT_LT(max_belief_gap(reference, r), 0.02f)
        << "engine " << bp::engine_name(kind);
  }

  // This graph has a second BP fixed point, which omp-node's chaotic
  // 8-thread schedule sometimes reaches (most nodes off by up to 2.0 L1).
  // Here omp-node must reach *a* fixed point: run to a tenth of the
  // threshold (a chaotic sweep sum just under 1e-4 can leave the next
  // sequential sweep just over it), c-node warm-started from its result
  // converges in its first iteration.
  BpOptions tight = opts;
  tight.convergence_threshold = 1e-5f;
  const auto chaotic =
      bp::make_default_engine(EngineKind::kOmpNode)->run(g, tight);
  ASSERT_TRUE(chaotic.stats.converged);
  BpOptions warm = opts;
  warm.init_beliefs =
      std::make_shared<std::vector<graph::BeliefVec>>(chaotic.beliefs);
  const auto settled = c_node->run(g, warm);
  EXPECT_TRUE(settled.stats.converged);
  EXPECT_EQ(settled.stats.iterations, 1u);

  // With weaker couplings the fixed point is unique, and omp-node agrees
  // with c-node under every interleaving.
  BeliefConfig weak;
  weak.beliefs = 3;
  weak.seed = 7;
  weak.observed_fraction = 0.1;
  weak.coupling = 0.35f;
  const auto gw = graph::uniform_random(200, 800, weak);
  const auto weak_reference = c_node->run(gw, opts);
  ASSERT_TRUE(weak_reference.stats.converged);
  const auto weak_omp =
      bp::make_default_engine(EngineKind::kOmpNode)->run(gw, opts);
  EXPECT_LT(max_belief_gap(weak_reference, weak_omp), 0.02f);
}

/// Number of nodes whose belief differs from `want` in any bit.
std::size_t differing_nodes(const BpResult& got, const BpResult& want) {
  EXPECT_EQ(got.beliefs.size(), want.beliefs.size());
  std::size_t differing = 0;
  for (std::size_t v = 0; v < got.beliefs.size(); ++v) {
    const auto& a = got.beliefs[v];
    const auto& b = want.beliefs[v];
    if (a.size != b.size) {
      ++differing;
      continue;
    }
    for (std::uint32_t s = 0; s < a.size; ++s) {
      if (a.v[s] != b.v[s]) {
        ++differing;
        break;
      }
    }
  }
  return differing;
}

/// A 40-node path with per-edge tables on which every third node has
/// `arity` states and the rest are binary, so the edge engines' message
/// blocks mix padded widths.
FactorGraph mixed_arity_path(std::uint32_t arity) {
  graph::GraphBuilder b;
  util::Prng rng(5);
  const auto states = [&](int i) { return i % 3 == 0 ? arity : 2u; };
  constexpr int kNodes = 40;
  for (int i = 0; i < kNodes; ++i) {
    b.add_node(graph::random_prior(states(i), rng));
  }
  for (int i = 0; i + 1 < kNodes; ++i) {
    graph::JointMatrix j(states(i), states(i + 1));
    for (std::uint32_t r = 0; r < j.rows; ++r) {
      for (std::uint32_t c = 0; c < j.cols; ++c) {
        j.at(r, c) = 0.05f + rng.uniform01f();
      }
    }
    b.add_undirected(static_cast<graph::NodeId>(i),
                     static_cast<graph::NodeId>(i + 1), j);
  }
  return b.finalize();
}

/// One dense Gauss-Seidel sweep of Algorithm 1 written from the public
/// kernels: nodes in id order, each node's in-edges in in-CSR order.
struct ReferenceSweep {
  std::vector<graph::BeliefVec> beliefs;
  double delta = 0.0;
};

ReferenceSweep reference_sweep(const FactorGraph& g, const BpOptions& opts) {
  const bp::runtime::ConvergenceController ctl(
      opts, bp::runtime::ConvergenceController::Cadence::kEveryIteration);
  ReferenceSweep ref{g.initial_beliefs(), 0.0};
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.observed(v) || g.in_csr().degree(v) == 0) continue;
    const graph::BeliefVec prev = ref.beliefs[v];
    graph::BeliefVec acc = graph::BeliefVec::ones(g.arity(v));
    for (const auto& entry : g.in_csr().neighbors(v)) {
      graph::BeliefVec msg;
      graph::compute_message(ref.beliefs[entry.node],
                             g.joints().at(entry.edge), msg);
      graph::combine(acc, msg);
    }
    graph::normalize(acc);
    ctl.damp(acc, prev);
    ref.delta += graph::l1_diff(prev, acc);
    ref.beliefs[v] = acc;
  }
  return ref;
}

TEST(BpEngines, TabularSweepMatchesPublicKernelsAtEveryWidth) {
  // The node engines' tabular update runs at each node's padded width W on
  // float[W] temporaries; one dense c-node sweep must equal the public
  // kernels' sweep bit for bit at every W (8, 16, 24, 32), on shared
  // matrices and on a per-edge path mixing widths, damped or not.
  std::vector<std::pair<std::string, FactorGraph>> graphs;
  for (const std::uint32_t arity : {2u, 3u, 9u, 17u, 32u}) {
    graphs.emplace_back("arity " + std::to_string(arity), small_graph(arity));
  }
  graphs.emplace_back("per-edge path {2, 17}", mixed_arity_path(17));
  for (const auto& [name, g] : graphs) {
    ASSERT_EQ(g.permutation(), nullptr) << name;
    for (const float damping : {0.0f, 0.3f}) {
      BpOptions opts = default_opts();
      opts.max_iterations = 1;
      opts.damping = damping;
      const ReferenceSweep ref = reference_sweep(g, opts);
      const auto r =
          bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
      ASSERT_EQ(r.beliefs.size(), ref.beliefs.size()) << name;
      std::size_t differing = 0;
      for (std::size_t v = 0; v < ref.beliefs.size(); ++v) {
        const auto& a = r.beliefs[v];
        const auto& b = ref.beliefs[v];
        bool same = a.size == b.size;
        for (std::uint32_t s = 0; same && s < b.size; ++s) {
          same = std::bit_cast<std::uint32_t>(a.v[s]) ==
                 std::bit_cast<std::uint32_t>(b.v[s]);
        }
        if (!same) ++differing;
      }
      EXPECT_EQ(differing, 0u) << name << ", damping " << damping;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(r.stats.final_delta),
                std::bit_cast<std::uint64_t>(ref.delta))
          << name << ", damping " << damping;
    }
  }
}

TEST(BpEngines, OmpEdgeMatchesCEdgeBitForBit) {
  // omp-edge and c-edge run one dense body, combining destination-owned,
  // each node's in-edges in ascending edge id, so any team size reproduces
  // c-edge exactly. Long per-worker ranges on a 20k-node graph are where
  // racing shared-accumulator adds would lose addends; the mixed-arity
  // path puts message blocks of different widths through the batched
  // kernel.
  BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 7;
  cfg.observed_fraction = 0.1;
  const auto uniform = graph::uniform_random(20000, 80000, cfg);
  const auto mixed = mixed_arity_path(17);
  for (const auto* g : {&uniform, &mixed}) {
    BpOptions opts = default_opts();
    if (g == &mixed) opts.damping = 0.3f;
    const auto reference =
        bp::make_default_engine(EngineKind::kCpuEdge)->run(*g, opts);
    ASSERT_TRUE(reference.stats.converged);
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      opts.threads = threads;
      const auto r =
          bp::make_default_engine(EngineKind::kOmpEdge)->run(*g, opts);
      EXPECT_EQ(differing_nodes(r, reference), 0u)
          << g->num_nodes() << " nodes, " << threads << " threads";
      EXPECT_EQ(r.stats.iterations, reference.stats.iterations)
          << g->num_nodes() << " nodes, " << threads << " threads";
    }
  }
  // The path is a tree: c-edge reaches the fixed point c-node does.
  BpOptions opts = default_opts();
  opts.damping = 0.3f;
  const auto node =
      bp::make_default_engine(EngineKind::kCpuNode)->run(mixed, opts);
  const auto edge =
      bp::make_default_engine(EngineKind::kCpuEdge)->run(mixed, opts);
  EXPECT_LT(max_belief_gap(node, edge), 1e-3f);
}

/// Every Counters field but the team charges: omp-node at one worker
/// meters c-node's events plus a parallel region per dispatch and a
/// shared-cursor atomic per queue append.
void expect_counters_equal_but_team_charges(const perf::Counters& a,
                                            const perf::Counters& b,
                                            const std::string& what) {
  using C = perf::Counters;
  constexpr std::uint64_t C::*kFields[] = {
      &C::flops,          &C::seq_read_bytes,   &C::seq_write_bytes,
      &C::rand_read_bytes, &C::rand_read_ops,   &C::rand_write_bytes,
      &C::rand_write_ops, &C::near_read_bytes,  &C::near_read_ops,
      &C::near_write_bytes, &C::near_write_ops, &C::shared_ops,
      &C::const_ops,      &C::serial_latency_ops, &C::kernel_launches,
      &C::barriers,       &C::h2d_bytes,        &C::d2h_bytes,
      &C::transfer_ops,   &C::device_allocs,    &C::device_alloc_bytes};
  for (std::size_t f = 0; f < std::size(kFields); ++f) {
    EXPECT_EQ(a.*kFields[f], b.*kFields[f]) << what << " field " << f;
  }
}

/// Every Counters field.
void expect_counters_equal(const perf::Counters& a, const perf::Counters& b,
                           const std::string& what) {
  expect_counters_equal_but_team_charges(a, b, what);
  EXPECT_EQ(a.atomic_ops, b.atomic_ops) << what;
  EXPECT_EQ(a.atomic_chain_ops, b.atomic_chain_ops) << what;
  EXPECT_EQ(a.parallel_regions, b.parallel_regions) << what;
}

TEST(BpEngines, AccEdgeIsCudaEdgesDenseSweepWithTheOpenAccDifferences) {
  // acc-edge runs CUDA Edge's dense body, queue or not; its kind picks the
  // two OpenACC differences: the shared matrix in global memory and the
  // 1e-6 floor of the runtime's reduction on each updated node's diff.
  BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 7;
  cfg.observed_fraction = 0.1;
  cfg.shared_joint = false;
  const auto per_edge = graph::uniform_random(200, 800, cfg);
  cfg.shared_joint = true;
  const auto shared = graph::uniform_random(200, 800, cfg);

  BpOptions capped = default_opts();
  capped.max_iterations = 6;
  const auto run = [](EngineKind kind, const FactorGraph& g,
                      BpOptions opts) {
    return bp::make_default_engine(kind)->run(g, opts);
  };

  // Per-edge tables at a cap both engines reach: neither difference shows.
  const auto cuda = run(EngineKind::kCudaEdge, per_edge, capped);
  ASSERT_FALSE(cuda.stats.converged);
  for (const bool wq : {false, true}) {
    BpOptions opts = capped;
    opts.work_queue = wq;
    const auto acc = run(EngineKind::kAccEdge, per_edge, opts);
    const std::string what = wq ? "queue on" : "queue off";
    EXPECT_EQ(differing_nodes(acc, cuda), 0u) << what;
    EXPECT_EQ(acc.stats.iterations, cuda.stats.iterations) << what;
    EXPECT_EQ(acc.stats.elements_processed, cuda.stats.elements_processed)
        << what;
    EXPECT_GE(acc.stats.final_delta, cuda.stats.final_delta) << what;
    expect_counters_equal(acc.stats.counters, cuda.stats.counters, what);
  }

  // The shared matrix: the same beliefs, but read from global memory — no
  // constant-cache reads but one scattered read per message, and one more
  // device allocation for the matrix.
  const auto cuda_shared = run(EngineKind::kCudaEdge, shared, capped);
  const auto acc_shared = run(EngineKind::kAccEdge, shared, capped);
  EXPECT_EQ(differing_nodes(acc_shared, cuda_shared), 0u);
  ASSERT_EQ(acc_shared.stats.iterations, cuda_shared.stats.iterations);
  const perf::Counters& c = cuda_shared.stats.counters;
  const perf::Counters& a = acc_shared.stats.counters;
  EXPECT_GT(c.const_ops, 0u);
  EXPECT_EQ(a.const_ops, 0u);
  const std::uint64_t messages =
      shared.num_edges() * acc_shared.stats.iterations;
  EXPECT_EQ(a.rand_read_ops, c.rand_read_ops + messages);
  EXPECT_EQ(a.rand_read_bytes,
            c.rand_read_bytes +
                messages * shared.joints().shared_matrix().payload_bytes());
  EXPECT_EQ(a.device_allocs, c.device_allocs + 1);
  EXPECT_EQ(a.device_alloc_bytes,
            c.device_alloc_bytes + sizeof(graph::JointMatrix));

  // The reduction floor: every updated node (unobserved, with parents)
  // adds at least 1e-6 to the sum, which keeps acc-edge from the
  // threshold CUDA Edge converges under (§2.4: OpenACC runs to the cap).
  std::uint64_t updated = 0;
  for (graph::NodeId v = 0; v < shared.num_nodes(); ++v) {
    if (!shared.observed(v) && shared.in_csr().degree(v) > 0) ++updated;
  }
  const BpOptions opts = default_opts();
  ASSERT_GT(1e-6 * static_cast<double>(updated), opts.convergence_threshold);
  EXPECT_TRUE(run(EngineKind::kCudaEdge, shared, opts).stats.converged);
  const auto floored = run(EngineKind::kAccEdge, shared, opts);
  EXPECT_FALSE(floored.stats.converged);
  EXPECT_EQ(floored.stats.iterations, opts.max_iterations);
  // Less the rounding of the device's float sum.
  EXPECT_GE(floored.stats.final_delta,
            0.999 * 1e-6 * static_cast<double>(updated));
}

TEST(BpEngines, OmpNodeMatchesCNodeAtOneWorker) {
  // One node body runs both engines: at one worker omp-node is c-node plus
  // the team charges, bit for bit — cold, warm and seeded, and on both
  // LDPC families with and without the syndrome stop.
  BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 31;
  cfg.observed_fraction = 0.1;
  // Sparse enough that some nodes have no parents.
  const auto g = graph::uniform_random(1000, 1200, cfg);

  struct Case {
    std::string name;
    const FactorGraph* graph;
    BpOptions opts;
  };
  std::vector<Case> cases;
  BpOptions dense = default_opts();
  dense.threads = 1;
  cases.push_back({"dense", &g, dense});
  BpOptions queued = dense;
  queued.work_queue = true;
  cases.push_back({"queued", &g, queued});

  const auto cold =
      bp::make_default_engine(EngineKind::kCpuNode)->run(g, dense);
  auto warm_state = std::make_shared<std::vector<graph::BeliefVec>>(
      cold.beliefs);
  auto seed = std::make_shared<std::vector<graph::NodeId>>();
  for (graph::NodeId v = 3; v < g.num_nodes(); v += 97) {
    (*warm_state)[v] = graph::BeliefVec::uniform(g.arity(v));
    seed->push_back(v);
  }
  BpOptions warm = queued;
  warm.init_beliefs = warm_state;
  cases.push_back({"warm", &g, warm});
  BpOptions seeded = warm;
  seeded.frontier_seed = seed;
  cases.push_back({"seeded", &g, seeded});

  const auto code = graph::ldpc::random_regular(96, 3, 6, 11);
  util::Prng rng(3);
  std::vector<std::uint8_t> error(code.bits, 0);
  for (auto& e : error) e = rng.uniform01f() < 0.04f ? 1 : 0;
  const auto syndrome = graph::ldpc::syndrome(code, error);
  const auto min_sum = graph::ldpc::build_graph(
      code, syndrome, 0.05f, graph::FactorFamily::kLdpcMinSum);
  const auto sum_product = graph::ldpc::build_graph(
      code, syndrome, 0.05f, graph::FactorFamily::kLdpcSumProduct);
  for (const auto* ldpc : {&min_sum, &sum_product}) {
    for (const bool stop : {false, true}) {
      for (const bool wq : {false, true}) {
        BpOptions o = dense;
        o.max_iterations = 60;
        o.syndrome_stop = stop;
        o.work_queue = wq;
        const std::string family =
            ldpc == &min_sum ? "min-sum" : "sum-product";
        cases.push_back({family + (stop ? " stop" : "") +
                             (wq ? " queued" : ""),
                         ldpc, o});
      }
    }
  }

  for (const auto& c : cases) {
    const auto want =
        bp::make_default_engine(EngineKind::kCpuNode)->run(*c.graph, c.opts);
    const auto got =
        bp::make_default_engine(EngineKind::kOmpNode)->run(*c.graph, c.opts);
    EXPECT_EQ(differing_nodes(got, want), 0u) << c.name;
    EXPECT_EQ(got.stats.iterations, want.stats.iterations) << c.name;
    EXPECT_EQ(got.stats.converged, want.stats.converged) << c.name;
    EXPECT_EQ(got.stats.final_delta, want.stats.final_delta) << c.name;
    EXPECT_EQ(got.stats.syndrome_satisfied, want.stats.syndrome_satisfied)
        << c.name;
    EXPECT_EQ(got.stats.elements_processed, want.stats.elements_processed)
        << c.name;
    EXPECT_EQ(got.frontier, want.frontier) << c.name;
    expect_counters_equal_but_team_charges(got.stats.counters,
                                           want.stats.counters, c.name);
  }
}

TEST(BpEngines, MakeEngineRejectsAProfileOfTheWrongPlatform) {
  // Each kind runs on one platform; make_engine refuses the other two.
  using perf::PlatformKind;
  const auto platform = [](EngineKind kind) {
    switch (kind) {
      case EngineKind::kOmpNode:
      case EngineKind::kOmpEdge:
      case EngineKind::kBulkResidual:
        return PlatformKind::kCpuParallel;
      case EngineKind::kCudaNode:
      case EngineKind::kCudaEdge:
      case EngineKind::kAccEdge:
        return PlatformKind::kGpu;
      default:
        return PlatformKind::kCpuSerial;
    }
  };
  const std::array<perf::HardwareProfile, 3> profiles = {
      perf::cpu_i7_7700hq_serial(), perf::cpu_i7_7700hq_parallel(4),
      perf::gpu_gtx1070()};
  for (const auto kind : kAllKinds) {
    const PlatformKind own = platform(kind);
    EXPECT_EQ(bp::make_default_engine(kind)->hardware().kind, own)
        << bp::engine_slug(kind);
    for (const auto& p : profiles) {
      if (p.kind == own) {
        EXPECT_NO_THROW((void)bp::make_engine(kind, p))
            << bp::engine_slug(kind) << " on " << p.name;
      } else {
        EXPECT_THROW((void)bp::make_engine(kind, p), std::logic_error)
            << bp::engine_slug(kind) << " on " << p.name;
      }
    }
  }
}

TEST(BpEngines, WorkQueueMatchesFullProcessing) {
  const auto g = small_graph(2, 11);
  auto opts = default_opts();
  for (const auto kind :
       {EngineKind::kCpuNode, EngineKind::kCpuEdge, EngineKind::kCudaNode,
        EngineKind::kCudaEdge}) {
    opts.work_queue = false;
    const auto full = bp::make_default_engine(kind)->run(g, opts);
    opts.work_queue = true;
    const auto queued = bp::make_default_engine(kind)->run(g, opts);
    EXPECT_LT(max_belief_gap(full, queued), 0.02f)
        << "engine " << bp::engine_name(kind);
    EXPECT_TRUE(queued.stats.converged);
  }
}

// ---------------------------------------------------------------------------
// Open frontier (BpResult::frontier, DESIGN.md §5h)
// ---------------------------------------------------------------------------

/// The engines whose schedule can wake a moved node's children (omp-node
/// at one worker).
constexpr std::array<EngineKind, 4> kQueueKinds = {
    EngineKind::kCpuNode, EngineKind::kOmpNode, EngineKind::kResidual,
    EngineKind::kBulkResidual};

BpOptions queued_opts() {
  BpOptions o = default_opts();
  o.work_queue = true;
  o.threads = 1;
  return o;
}

/// `opts` starting from `g`'s priors with every node as the seed: a run
/// from scratch whose schedule wakes the children of the nodes it moves,
/// on every engine in kQueueKinds. `g`'s own ids are the caller's.
BpOptions seeded_from_priors(BpOptions opts, const FactorGraph& g) {
  auto priors = std::make_shared<std::vector<graph::BeliefVec>>();
  auto every = std::make_shared<std::vector<graph::NodeId>>();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    priors->push_back(g.prior(v));
    every->push_back(v);
  }
  opts.init_beliefs = std::move(priors);
  opts.frontier_seed = std::move(every);
  return opts;
}

/// A random arity-3 prior.
graph::BeliefVec random_prior(util::Prng& rng) {
  const std::array<float, 3> raw = {0.2f + rng.uniform01f(),
                                    0.2f + rng.uniform01f(),
                                    0.2f + rng.uniform01f()};
  const float sum = raw[0] + raw[1] + raw[2];
  const std::array<float, 3> p = {raw[0] / sum, raw[1] / sum, raw[2] / sum};
  return graph::BeliefVec(std::span<const float>(p));
}

/// One directed ring through every node in a shuffled order, cut by a few
/// observed nodes. Every node has exactly one out-edge, so its out-CSR row
/// reads the same under any edge order, and a relabeled twin of a
/// reordered ring runs bit for bit like it on every engine. Strong
/// coupling keeps every schedule busy for many sweeps.
FactorGraph ring_graph() {
  util::Prng rng(17);
  graph::GraphBuilder b;
  const graph::NodeId n = 300;
  for (graph::NodeId v = 0; v < n; ++v) b.add_node(random_prior(rng));
  for (graph::NodeId v = 0; v < n; v += 100) b.observe(v, 1);
  std::vector<graph::NodeId> ring(n);
  for (graph::NodeId v = 0; v < n; ++v) ring[v] = v;
  for (graph::NodeId i = n; i > 1; --i) {
    std::swap(ring[i - 1], ring[rng.uniform(i)]);
  }
  for (graph::NodeId i = 0; i < n; ++i) {
    b.add_edge(ring[i], ring[(i + 1) % n],
               graph::JointMatrix::diffusion(3, 0.9f));
  }
  return b.finalize();
}

TEST(BpEngines, FrontierIsNulloptUnlessTheScheduleWakesChildren) {
  const auto g = small_graph(3);
  BpOptions dense = default_opts();
  dense.threads = 1;
  for (const EngineKind kind : {EngineKind::kCpuNode, EngineKind::kOmpNode}) {
    const auto engine = bp::make_default_engine(kind);
    EXPECT_FALSE(engine->run(g, dense).frontier) << bp::engine_slug(kind);
    // An unseeded §3.5 queue re-enqueues a node alone: a node it dropped
    // early never sees its parents' later moves, so what it still holds is
    // not all the work left.
    const auto queued = engine->run(g, queued_opts());
    EXPECT_GT(queued.stats.iterations, 1u) << bp::engine_slug(kind);
    EXPECT_FALSE(queued.frontier) << bp::engine_slug(kind);
  }
  // The edge and device engines cannot resume from one, queued or not.
  for (const EngineKind kind :
       {EngineKind::kCpuEdge, EngineKind::kOmpEdge, EngineKind::kCudaNode,
        EngineKind::kCudaEdge, EngineKind::kAccEdge}) {
    EXPECT_FALSE(bp::make_default_engine(kind)->run(g, queued_opts()).frontier)
        << bp::engine_slug(kind);
  }
  BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 5;
  const auto tree = graph::random_tree(64, cfg);
  EXPECT_FALSE(bp::make_default_engine(EngineKind::kTree)
                   ->run(tree, queued_opts())
                   .frontier);
}

TEST(BpEngines, FrontierIsTheOpenQueueInCallerIds) {
  // A BFS-reordered graph and its relabeled twin, which has the same
  // internal layout but records no permutation, run bit for bit alike: the
  // reordered run's frontier must be the twin's, mapped to caller ids.
  const auto g = ring_graph();
  const auto reordered = graph::reordered(g, graph::ReorderMode::kBfs);
  const graph::Permutation& perm = *reordered.permutation();
  const auto twin = graph::relabeled(g, perm);
  BpOptions opts = queued_opts();
  opts.max_iterations = 1;  // stop with work left
  for (const EngineKind kind : kQueueKinds) {
    const std::string slug(bp::engine_slug(kind));
    const auto engine = bp::make_default_engine(kind);
    const auto got = engine->run(reordered, seeded_from_priors(opts, g));
    const auto inner = engine->run(twin, seeded_from_priors(opts, twin));
    ASSERT_TRUE(got.frontier.has_value()) << slug;
    ASSERT_TRUE(inner.frontier.has_value()) << slug;
    EXPECT_FALSE(got.frontier->empty()) << slug;
    std::vector<graph::NodeId> want;
    for (const graph::NodeId v : *inner.frontier) {
      want.push_back(perm.to_old(v));
    }
    EXPECT_EQ(*got.frontier, want) << slug;
    for (const graph::NodeId v : *got.frontier) {
      EXPECT_FALSE(g.observed(v)) << slug << " node " << v;
    }
  }
}

TEST(BpEngines, FrontierIsEmptyOnceTheQueueDrainsAndResumesToNoWork) {
  // A chain DAG 0 -> 1 -> ... : one sweep fixes every belief, so the next
  // moves nothing and every queue drains. The global threshold sits below
  // any nonzero belief change, so only the drain can end these runs.
  util::Prng rng(9);
  graph::GraphBuilder b;
  const graph::NodeId n = 40;
  for (graph::NodeId v = 0; v < n; ++v) b.add_node(random_prior(rng));
  for (graph::NodeId v = 0; v + 1 < n; ++v) {
    b.add_edge(v, v + 1, graph::JointMatrix::diffusion(3, 0.7f));
  }
  const auto g = b.finalize();
  BpOptions opts = queued_opts();
  opts.convergence_threshold = 1e-20f;
  opts.queue_threshold = 1e-21f;
  for (const EngineKind kind : kQueueKinds) {
    const std::string slug(bp::engine_slug(kind));
    const auto engine = bp::make_default_engine(kind);
    const auto cold = engine->run(g, seeded_from_priors(opts, g));
    ASSERT_TRUE(cold.stats.converged) << slug;
    ASSERT_TRUE(cold.frontier.has_value()) << slug;
    EXPECT_TRUE(cold.frontier->empty()) << slug;

    // Resuming from the empty frontier has nothing to do.
    BpOptions resume = opts;
    resume.init_beliefs =
        std::make_shared<const std::vector<graph::BeliefVec>>(cold.beliefs);
    resume.frontier_seed =
        std::make_shared<const std::vector<graph::NodeId>>(*cold.frontier);
    const auto again = engine->run(g, resume);
    EXPECT_TRUE(again.stats.converged) << slug;
    EXPECT_EQ(again.stats.elements_processed, 0u) << slug;
    EXPECT_EQ(again.stats.frontier_seeded, 0u) << slug;
    ASSERT_TRUE(again.frontier.has_value()) << slug;
    EXPECT_TRUE(again.frontier->empty()) << slug;
    EXPECT_EQ(differing_nodes(again, cold), 0u) << slug;
  }
}

TEST(BpEngines, ObservedNodesStayFixed) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.observed_fraction = 0.3;
  cfg.seed = 3;
  const auto g = graph::uniform_random(100, 400, cfg);
  for (const auto kind : {EngineKind::kCpuNode, EngineKind::kCpuEdge,
                          EngineKind::kCudaNode, EngineKind::kCudaEdge}) {
    const auto r = bp::make_default_engine(kind)->run(g, default_opts());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!g.observed(v)) continue;
      EXPECT_LT(graph::l1_diff(r.beliefs[v], g.prior(v)), 1e-6f)
          << "engine " << bp::engine_name(kind) << " node " << v;
    }
  }
}

TEST(BpEngines, TreeEngineExactOnChain) {
  // 3-node chain with hand-computable marginals: x0 -- x1 -- x2,
  // x2 observed. Compare against brute-force enumeration.
  graph::GraphBuilder b;
  const auto n0 = b.add_node(graph::BeliefVec(
      std::span<const float>(std::array<float, 2>{0.7f, 0.3f})));
  const auto n1 = b.add_node(graph::BeliefVec::uniform(2));
  const auto n2 = b.add_observed_node(2, 0);
  graph::JointMatrix j01(2, 2);
  j01.at(0, 0) = 0.9f; j01.at(0, 1) = 0.1f;
  j01.at(1, 0) = 0.2f; j01.at(1, 1) = 0.8f;
  graph::JointMatrix j12(2, 2);
  j12.at(0, 0) = 0.6f; j12.at(0, 1) = 0.4f;
  j12.at(1, 0) = 0.3f; j12.at(1, 1) = 0.7f;
  b.add_undirected(n0, n1, j01);
  b.add_undirected(n1, n2, j12);
  const auto g = b.finalize();

  // Brute force: p(x0,x1,x2) ∝ prior0(x0) φ01(x0,x1) φ12(x1,x2) [x2 = 0].
  double marg1[2] = {0, 0};
  double total = 0;
  for (int x0 = 0; x0 < 2; ++x0) {
    for (int x1 = 0; x1 < 2; ++x1) {
      const double p = (x0 == 0 ? 0.7 : 0.3) * j01.at(x0, x1) *
                       j12.at(x1, 0);
      marg1[x1] += p;
      total += p;
    }
  }
  marg1[0] /= total;
  marg1[1] /= total;

  bp::BpOptions opts;
  for (const bool naive : {true, false}) {
    opts.tree_naive = naive;
    const auto r = bp::make_default_engine(EngineKind::kTree)->run(g, opts);
    EXPECT_NEAR(r.beliefs[n1][0], marg1[0], 1e-4)
        << (naive ? "naive" : "indexed");
    EXPECT_NEAR(r.beliefs[n1][1], marg1[1], 1e-4);
  }
}

TEST(BpEngines, TreeNaiveAndIndexedAgree) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 5;
  cfg.shared_joint = false;
  const auto g = graph::random_tree(64, cfg);
  bp::BpOptions opts;
  opts.tree_naive = true;
  const auto naive = bp::make_default_engine(EngineKind::kTree)->run(g, opts);
  opts.tree_naive = false;
  const auto indexed =
      bp::make_default_engine(EngineKind::kTree)->run(g, opts);
  EXPECT_LT(max_belief_gap(naive, indexed), 1e-5f);
  // The naive path must cost far more modelled time on the same input.
  EXPECT_GT(naive.stats.time.total(), indexed.stats.time.total());
}

TEST(BpEngines, ModelledTimesArePopulated) {
  const auto g = small_graph(2);
  for (const auto kind :
       {EngineKind::kCpuNode, EngineKind::kCpuEdge, EngineKind::kOmpEdge,
        EngineKind::kCudaNode, EngineKind::kCudaEdge}) {
    const auto r = bp::make_default_engine(kind)->run(g, default_opts());
    EXPECT_GT(r.stats.time.total(), 0.0) << bp::engine_name(kind);
    EXPECT_GT(r.stats.counters.flops, 0u) << bp::engine_name(kind);
  }
}

TEST(BpEngines, GpuEnginesChargeTransferOverheads) {
  const auto g = small_graph(2);
  const auto r =
      bp::make_default_engine(EngineKind::kCudaNode)->run(g, default_opts());
  EXPECT_GT(r.stats.counters.h2d_bytes, 0u);
  EXPECT_GT(r.stats.counters.device_allocs, 0u);
  EXPECT_GT(r.stats.counters.kernel_launches, 0u);
  // For a graph this small, management overhead dominates (§4.1.1 reports
  // 99.8% on the smallest benchmark).
  EXPECT_GT(r.stats.time.management_fraction(), 0.5);
}


TEST(BpEngines, ResidualEngineAgreesWithSweeps) {
  const auto g = small_graph(3, 17);
  const auto opts = default_opts();
  const auto reference =
      bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  const auto residual =
      bp::make_default_engine(EngineKind::kResidual)->run(g, opts);
  EXPECT_LT(max_belief_gap(reference, residual), 0.05f);
  EXPECT_TRUE(residual.stats.converged);
}

TEST(BpEngines, ResidualDoesFewerUpdatesThanFullSweeps) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 19;
  const auto g = graph::uniform_random(2000, 8000, cfg);
  bp::BpOptions opts;
  opts.work_queue = false;  // compare against unfiltered sweeps
  const auto sweep =
      bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  const auto residual =
      bp::make_default_engine(EngineKind::kResidual)->run(g, opts);
  EXPECT_LT(residual.stats.elements_processed,
            sweep.stats.elements_processed);
}

TEST(BpEngines, BatchedConvergenceOvershootIsBounded) {
  // The GPU engine only checks convergence every `batch` iterations, so it
  // may overshoot the sequential engine by at most batch-1 iterations
  // (§4.1: CUDA runs stay "within 10 iterations").
  const auto g = small_graph(2, 23);
  auto opts = default_opts();
  opts.work_queue = false;
  opts.convergence_batch = 1;
  const auto exact =
      bp::make_default_engine(EngineKind::kCudaNode)->run(g, opts);
  for (const std::uint32_t batch : {2u, 4u, 8u}) {
    opts.convergence_batch = batch;
    const auto batched =
        bp::make_default_engine(EngineKind::kCudaNode)->run(g, opts);
    EXPECT_GE(batched.stats.iterations, exact.stats.iterations);
    EXPECT_LE(batched.stats.iterations, exact.stats.iterations + batch);
    // Fewer convergence transfers with larger batches.
    EXPECT_LE(batched.stats.counters.transfer_ops,
              exact.stats.counters.transfer_ops);
  }
}

TEST(BpEngines, BlockSizeDoesNotChangeResults) {
  const auto g = small_graph(2, 29);
  auto opts = default_opts();
  opts.block_threads = 1024;
  const auto big =
      bp::make_default_engine(EngineKind::kCudaEdge)->run(g, opts);
  opts.block_threads = 128;
  const auto small =
      bp::make_default_engine(EngineKind::kCudaEdge)->run(g, opts);
  EXPECT_EQ(max_belief_gap(big, small), 0.0f);
  EXPECT_GT(small.stats.counters.kernel_launches, 0u);
}

TEST(BpEngines, SharedAndPerEdgeJointsAgreeWhenMatricesMatch) {
  // Build the same graph twice: once with a shared matrix, once with that
  // matrix replicated per edge. Fixed points must match exactly.
  // Symmetric potential: the shared-joint mode applies the one matrix in
  // both directions, whereas per-edge add_undirected transposes the
  // reverse edge — identical only for symmetric matrices.
  const auto j = graph::JointMatrix::diffusion(2, 0.8f);
  graph::GraphBuilder shared_b;
  graph::GraphBuilder per_edge_b;
  shared_b.use_shared_joint(j);
  util::Prng prior_rng(32);
  std::vector<graph::BeliefVec> priors;
  for (int i = 0; i < 60; ++i) {
    priors.push_back(graph::random_prior(2, prior_rng));
    shared_b.add_node(priors.back());
    per_edge_b.add_node(priors.back());
  }
  util::Prng edge_rng(33);
  for (int e = 0; e < 200; ++e) {
    const auto u = static_cast<graph::NodeId>(edge_rng.uniform(60));
    auto v = static_cast<graph::NodeId>(edge_rng.uniform(59));
    if (v >= u) ++v;
    shared_b.add_undirected(u, v);
    per_edge_b.add_undirected(u, v, j);
  }
  const auto gs = shared_b.finalize();
  const auto gp = per_edge_b.finalize();
  const auto opts = default_opts();
  for (const auto kind : {EngineKind::kCpuEdge, EngineKind::kCudaNode}) {
    const auto rs = bp::make_default_engine(kind)->run(gs, opts);
    const auto rp = bp::make_default_engine(kind)->run(gp, opts);
    EXPECT_LT(max_belief_gap(rs, rp), 1e-5f) << bp::engine_name(kind);
    // The shared form must be cheaper on the GPU (constant cache) and use
    // far less memory.
    EXPECT_LT(gs.memory_bytes(), gp.memory_bytes());
  }
}

TEST(BpEngines, EngineNamesRoundTripThroughTheOneParser) {
  // bp::engine_from_name is the single parser for engine names: both the
  // paper's display names and the CLI slugs must round-trip for all ten
  // kinds, so new engines can't silently miss a spelling.
  for (const auto kind : kAllKinds) {
    const auto from_display = bp::engine_from_name(bp::engine_name(kind));
    ASSERT_TRUE(from_display.has_value()) << bp::engine_name(kind);
    EXPECT_EQ(*from_display, kind) << bp::engine_name(kind);

    const auto from_slug = bp::engine_from_name(bp::engine_slug(kind));
    ASSERT_TRUE(from_slug.has_value()) << bp::engine_slug(kind);
    EXPECT_EQ(*from_slug, kind) << bp::engine_slug(kind);
  }
}

TEST(BpEngines, EngineFromNameNormalizesAndRejects) {
  // Case, separators and the documented aliases all resolve...
  EXPECT_EQ(bp::engine_from_name("CUDA Edge"), EngineKind::kCudaEdge);
  EXPECT_EQ(bp::engine_from_name("cuda_edge"), EngineKind::kCudaEdge);
  EXPECT_EQ(bp::engine_from_name("OpenMP-Node"), EngineKind::kOmpNode);
  EXPECT_EQ(bp::engine_from_name("openmp edge"), EngineKind::kOmpEdge);
  EXPECT_EQ(bp::engine_from_name("OpenACC Edge"), EngineKind::kAccEdge);
  EXPECT_EQ(bp::engine_from_name("tree-bp"), EngineKind::kTree);
  EXPECT_EQ(bp::engine_from_name("Residual"), EngineKind::kResidual);
  // ...and garbage does not.
  EXPECT_FALSE(bp::engine_from_name("").has_value());
  EXPECT_FALSE(bp::engine_from_name("gpu").has_value());
  EXPECT_FALSE(bp::engine_from_name("c-node-extra").has_value());
  EXPECT_FALSE(bp::engine_from_name("sharded").has_value());
  EXPECT_FALSE(bp::engine_from_name("shard").has_value());
  EXPECT_FALSE(bp::engine_from_name("sharded-bp").has_value());
}

TEST(BpEngines, ZeroIterationBudgetIsRejected) {
  // A zero iteration budget can never make progress; BpOptions::validate
  // (called by Engine::run for every engine) rejects it up front instead
  // of silently returning unconverged priors.
  const auto g = small_graph(2, 37);
  auto opts = default_opts();
  opts.max_iterations = 0;
  for (const auto kind : {EngineKind::kCpuNode, EngineKind::kCpuEdge,
                          EngineKind::kCudaNode}) {
    EXPECT_THROW((void)bp::make_default_engine(kind)->run(g, opts),
                 util::InvalidArgument)
        << bp::engine_name(kind);
  }
}


TEST(BpEngines, DampingStabilizesMultiStableDynamics) {
  // On a dense hub graph (rmat) the undamped Jacobi (Edge) and
  // Gauss-Seidel (Node) schedules can settle different attractors; with
  // damping the schedules agree. This pins the documented purpose of
  // BpOptions::damping.
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 41;
  cfg.coupling = 0.85f;
  const auto g = graph::rmat(10, 30'000, cfg);
  auto opts = default_opts();
  opts.work_queue = false;
  opts.damping = 0.5f;
  const auto node = bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  const auto edge = bp::make_default_engine(EngineKind::kCpuEdge)->run(g, opts);
  double gap_sum = 0.0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    gap_sum += graph::l1_diff(node.beliefs[v], edge.beliefs[v]);
  }
  EXPECT_LT(gap_sum / g.num_nodes(), 0.02);
}

TEST(BpEngines, DampingZeroMatchesUndampedExactly) {
  const auto g = small_graph(3, 43);
  auto opts = default_opts();
  const auto base = bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  opts.damping = 0.0f;
  const auto damped0 =
      bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  EXPECT_EQ(max_belief_gap(base, damped0), 0.0f);
}

TEST(BpEngines, DampedEnginesStillAgree) {
  const auto g = small_graph(2, 47);
  auto opts = default_opts();
  opts.damping = 0.3f;
  const auto reference =
      bp::make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  for (const auto kind : {EngineKind::kCpuEdge, EngineKind::kCudaNode,
                          EngineKind::kCudaEdge, EngineKind::kResidual}) {
    const auto r = bp::make_default_engine(kind)->run(g, opts);
    EXPECT_LT(max_belief_gap(reference, r), 0.05f)
        << bp::engine_name(kind);
  }
}

}  // namespace
}  // namespace credo
