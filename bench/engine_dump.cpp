// Engine-equivalence dump: one line per run of every engine on a fixed set
// of small graphs, at one worker, for refactors that must keep behaviour.
//
// Each line holds an FNV-1a hash of the result's belief bits (size and all
// kMaxStates lanes of every node), the run's stats, every TimeBreakdown
// term and every perf::Counters field — everything a run reports except
// its host times. One-worker runs are deterministic on every engine, so
// two builds that behave the same print the same lines:
//
//   ./build/bench/engine_dump > new.txt
//   (same source, built against the other revision's libraries) > old.txt
//   diff old.txt new.txt
//
// It uses only the public engine API, so the one source builds against a
// previous revision too. Not run by ctest.
//
// Runs per engine and graph, where the engine supports the graph's family:
// work queue off/on x uncapped/3 iterations (LDPC also x syndrome stop
// off/on); warm-started runs (queue off/on) and a frontier-seeded run
// where the engine supports them; and omp-edge again at 4 threads, which
// must equal c-edge at any team size.
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bp/engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/ldpc.h"
#include "graph/reorder.h"
#include "perf/profiles.h"
#include "util/prng.h"

namespace {

using credo::bp::BpOptions;
using credo::bp::BpResult;
using credo::bp::EngineKind;
namespace graph = credo::graph;

constexpr EngineKind kKinds[] = {
    EngineKind::kCpuNode,  EngineKind::kCpuEdge,  EngineKind::kOmpNode,
    EngineKind::kOmpEdge,  EngineKind::kCudaNode, EngineKind::kCudaEdge,
    EngineKind::kAccEdge,  EngineKind::kTree,     EngineKind::kResidual,
    EngineKind::kBulkResidual};

struct Case {
  std::string name;
  graph::FactorGraph g;
  float damping = 0.0f;
};

std::uint64_t fnv(std::uint64_t h, std::uint32_t word) {
  for (int i = 0; i < 4; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t belief_hash(const std::vector<graph::BeliefVec>& beliefs) {
  std::uint64_t h = 14695981039346656037ull;
  for (const graph::BeliefVec& b : beliefs) {
    h = fnv(h, b.size);
    for (const float x : b.v) h = fnv(h, std::bit_cast<std::uint32_t>(x));
  }
  return h;
}

/// A 40-node path with per-edge tables on which every third node has
/// `arity` states and the rest are binary: message blocks of mixed width.
graph::FactorGraph mixed_path(std::uint32_t arity) {
  graph::GraphBuilder b;
  credo::util::Prng rng(5);
  const auto states = [&](int i) { return i % 3 == 0 ? arity : 2u; };
  constexpr int kNodes = 40;
  for (int i = 0; i < kNodes; ++i) {
    b.add_node(graph::random_prior(states(i), rng));
  }
  b.observe(7, 1);
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

graph::FactorGraph ldpc_graph(graph::FactorFamily family) {
  const auto code = graph::ldpc::random_regular(96, 3, 6, 11);
  std::vector<std::uint8_t> error(96, 0);
  error[5] = error[40] = error[77] = 1;
  return graph::ldpc::build_graph(code, graph::ldpc::syndrome(code, error),
                                  0.05f, family);
}

std::vector<Case> cases() {
  const auto cfg = [](std::uint32_t beliefs, bool shared, double observed) {
    graph::BeliefConfig c;
    c.beliefs = beliefs;
    c.shared_joint = shared;
    c.observed_fraction = observed;
    c.seed = 3;
    return c;
  };
  std::vector<Case> out;
  out.push_back({"uniform-a3", graph::uniform_random(60, 150, cfg(3, true, 0.1))});
  out.push_back({"sparse-binary", graph::uniform_random(80, 40, cfg(2, true, 0.05))});
  out.push_back({"grid-per-edge", graph::grid(8, 8, cfg(4, false, 0.05))});
  out.push_back({"tree", graph::random_tree(50, cfg(2, true, 0.1))});
  out.push_back({"path-2-9", mixed_path(9)});
  out.push_back({"path-2-17", mixed_path(17)});
  out.push_back({"path-2-9-damped", mixed_path(9), 0.3f});
  out.push_back({"path-2-17-damped", mixed_path(17), 0.3f});
  out.push_back({"path-2-17-bfs",
                 graph::reordered(mixed_path(17), graph::ReorderMode::kBfs),
                 0.3f});
  out.push_back({"ldpc-sum-product",
                 ldpc_graph(graph::FactorFamily::kLdpcSumProduct)});
  out.push_back({"ldpc-min-sum", ldpc_graph(graph::FactorFamily::kLdpcMinSum)});
  return out;
}

void print(const char* engine, const std::string& graph_name,
           const std::string& run, const BpResult& r) {
  const auto& s = r.stats;
  const auto& c = s.counters;
  const auto& t = s.time;
  std::printf(
      "%s %s %s hash=%016" PRIx64 " it=%u el=%" PRIu64
      " conv=%d syn=%d delta=%016" PRIx64 " stop=%d seeded=%" PRIu64
      " time=%a,%a,%a,%a,%a,%a,%a counters=%" PRIu64 ",%" PRIu64 ",%" PRIu64
      ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
      ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
      ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
      ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
      engine, graph_name.c_str(), run.c_str(), belief_hash(r.beliefs),
      s.iterations, s.elements_processed, s.converged ? 1 : 0,
      s.syndrome_satisfied ? 1 : 0, std::bit_cast<std::uint64_t>(s.final_delta),
      static_cast<int>(s.stop_reason), s.frontier_seeded, t.compute_s,
      t.memory_s, t.atomic_s, t.critical_s, t.overhead_s, t.transfer_s,
      t.alloc_s, c.flops, c.seq_read_bytes, c.seq_write_bytes,
      c.rand_read_bytes, c.rand_read_ops, c.rand_write_bytes,
      c.rand_write_ops, c.near_read_bytes, c.near_read_ops,
      c.near_write_bytes, c.near_write_ops, c.shared_ops, c.const_ops,
      c.atomic_ops, c.atomic_chain_ops, c.serial_latency_ops,
      c.kernel_launches, c.barriers, c.parallel_regions, c.h2d_bytes,
      c.d2h_bytes, c.transfer_ops, c.device_allocs, c.device_alloc_bytes);
}

}  // namespace

int main() {
  for (const Case& k : cases()) {
    const graph::FactorGraph& g = k.g;
    const bool ldpc = graph::is_ldpc(g.family());
    BpOptions base;
    base.threads = 1;
    base.damping = k.damping;

    // Warm input in the caller's ids: a 3-iteration c-node state; the
    // seeded run re-converges from the full solve around two nodes.
    const auto c_node = credo::bp::make_default_engine(EngineKind::kCpuNode);
    auto warm = std::make_shared<const std::vector<graph::BeliefVec>>(
        c_node->run(g, BpOptions(base).with_max_iterations(3)).beliefs);
    auto solved = std::make_shared<const std::vector<graph::BeliefVec>>(
        c_node->run(g, base).beliefs);
    auto seed = std::make_shared<const std::vector<graph::NodeId>>(
        std::vector<graph::NodeId>{0, g.num_nodes() / 2});

    for (const EngineKind kind : kKinds) {
      if (!credo::bp::engine_supports_family(kind, g.family())) continue;
      const auto engine = credo::bp::make_default_engine(kind);
      const auto slug = std::string(credo::bp::engine_slug(kind));
      const auto run = [&](const std::string& label, const BpOptions& o) {
        print(slug.c_str(), k.name, label, engine->run(g, o));
      };
      for (const bool queue : {false, true}) {
        for (const std::uint32_t cap : {200u, 3u}) {
          for (const bool syndrome : {false, true}) {
            if (syndrome && !ldpc) continue;
            BpOptions o = base;
            o.work_queue = queue;
            o.max_iterations = cap;
            o.syndrome_stop = syndrome;
            const std::string label = std::string(queue ? "queue" : "dense") +
                                      "-cap" + std::to_string(cap) +
                                      (syndrome ? "-syndrome" : "");
            run(label, o);
            if (kind == EngineKind::kOmpEdge) {
              run(label + "-t4", BpOptions(o).with_threads(4));
            }
          }
        }
      }
      if (credo::bp::engine_supports_warm_start(kind, g.family())) {
        run("warm-dense", BpOptions(base).with_init_beliefs(warm));
        run("warm-queue",
            BpOptions(base).with_init_beliefs(warm).with_work_queue());
      }
      if (credo::bp::engine_supports_frontier_seed(kind, g.family())) {
        run("seeded", BpOptions(base)
                          .with_init_beliefs(solved)
                          .with_frontier_seed(seed)
                          .with_work_queue());
      }
    }
  }
  return 0;
}
