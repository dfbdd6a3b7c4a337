// credo — the command-line front end.
//
//   credo info     --nodes N.mtx --edges E.mtx
//   credo run      --nodes N.mtx --edges E.mtx [--engine auto|c-node|c-edge|
//                  omp-node|omp-edge|cuda-node|cuda-edge|acc-edge|tree|
//                  residual|bulk-residual|sharded]
//                  [--reorder none|bfs|rcm|degree] [--no-queue]
//                  [--iters N] [--threshold X] [--threads T]
//                  [--shards P] [--exchange-every E] [--syndrome 1]
//                  [--out beliefs.txt] [--trace trace.csv]
//   credo mutate   --nodes N.mtx --edges E.mtx [--ops K] [--seed S]
//                  [--engine c-node|residual|...] [--reorder MODE]
//                  [--iters N] [--threshold X] [--frontier-damping D]
//   credo generate --family uniform|kron|social|tree|grid --nodes N
//                  [--edges M] [--beliefs B] [--seed S] [--observed F]
//                  --out PREFIX
//   credo generate --family ldpc-sum-product|ldpc-min-sum --nodes BITS
//                  [--dv V] [--dc C] [--errors W] [--crossover P] [--seed S]
//                  --out PREFIX
//   credo convert  --in file.{bif,xml} --out PREFIX
//   credo train    --out model.txt [--beliefs 2,3,32] [--full-suite 1]
//   credo serve    --stress N [--nodes N.mtx --edges E.mtx] [--sessions S]
//                  [--workers W] [--queue Q] [--cache C] [--pool P]
//                  [--engine mix|auto|<name>] [--reorder none|bfs|rcm|degree]
//                  [--warm 1] [--batch B]
//                  [--deadline-every K] [--deadline-ms D] [--cancel-every K]
//                  [--iters N] [--threshold X]
//                  [--family ldpc-sum-product|ldpc-min-sum [--bits B]
//                   [--dv V] [--dc C] [--crossover P] [--seed S]]
//                  [--metrics out.prom|out.json|-] [--spans out.jsonl|-]
//
// `--engine auto` uses the §3.7 dispatcher: pass a pre-trained model with
// --model model.txt (from `credo train`) or let it train on the bold
// benchmark subset on the fly. Engine names go through
// bp::engine_from_name, so paper names ("CUDA Edge") and CLI slugs
// ("cuda-edge") both work everywhere.
//
// `--metrics` scrapes the server's obs::MetricsRegistry: a file path is
// rewritten every ~500ms while the stress mix runs (plus a final scrape),
// `-` prints one final scrape to stdout; a `.json` extension selects the
// JSON dump instead of Prometheus text. `--spans` writes one JSON line per
// finished request (obs::SpanLog).
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "credo/api.h"
#include "credo/suite.h"
#include "graph/generators.h"
#include "graph/ldpc.h"
#include "graph/partition.h"
#include "io/bif.h"
#include "io/convert.h"
#include "io/xmlbif.h"
#include "util/strings.h"

using namespace credo;

namespace {

/// Minimal --key value argument map.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw util::InvalidArgument(std::string("expected --flag, got ") +
                                    argv[i]);
      }
      kv_[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - start) % 2 != 0) {
      // Allow trailing boolean flags by rejecting loudly instead of
      // silently mis-pairing.
      const char* last = argv[argc - 1];
      if (std::strcmp(last, "--no-queue") == 0) {
        kv_["no-queue"] = "1";
      } else {
        throw util::InvalidArgument(std::string("flag without value: ") +
                                    last);
      }
    }
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& k) const {
    const auto it = kv_.find(k);
    return it == kv_.end() ? std::nullopt
                           : std::optional<std::string>(it->second);
  }
  [[nodiscard]] std::string require(const std::string& k) const {
    const auto v = get(k);
    if (!v) throw util::InvalidArgument("missing required --" + k);
    return *v;
  }
  [[nodiscard]] double number(const std::string& k, double fallback) const {
    const auto v = get(k);
    if (!v) return fallback;
    const auto d = util::parse_double(*v);
    if (!d) throw util::InvalidArgument("bad number for --" + k);
    return *d;
  }

 private:
  std::map<std::string, std::string> kv_;
};

/// Resolves an --engine value through the one shared parser
/// (bp::engine_from_name); throws with the valid slugs on failure.
bp::EngineKind parse_engine(const std::string& name) {
  if (const auto kind = bp::engine_from_name(name)) return *kind;
  std::string valid;
  for (const auto k :
       {bp::EngineKind::kCpuNode, bp::EngineKind::kCpuEdge,
        bp::EngineKind::kOmpNode, bp::EngineKind::kOmpEdge,
        bp::EngineKind::kCudaNode, bp::EngineKind::kCudaEdge,
        bp::EngineKind::kAccEdge, bp::EngineKind::kTree,
        bp::EngineKind::kResidual, bp::EngineKind::kBulkResidual,
        bp::EngineKind::kSharded}) {
    if (!valid.empty()) valid += '|';
    valid += std::string(bp::engine_slug(k));
  }
  throw util::InvalidArgument("unknown engine: " + name + " (expected " +
                              valid + ")");
}

graph::FactorGraph load(const Args& args) {
  io::ParseStats stats;
  auto g = io::read_mtx_belief(args.require("nodes"),
                               args.require("edges"), &stats);
  std::fprintf(stderr, "loaded %u nodes, %llu directed edges (%llu lines)\n",
               g.num_nodes(),
               static_cast<unsigned long long>(g.num_edges()),
               static_cast<unsigned long long>(stats.lines));
  // Locality pass (DESIGN.md §5d). parse_reorder_mode rejects unknown
  // values with the valid list — never a silent fallback to none.
  const auto mode =
      graph::parse_reorder_mode(args.get("reorder").value_or("none"));
  if (mode != graph::ReorderMode::kNone) {
    const double span_before = graph::mean_edge_span(g);
    g = graph::reordered(g, mode);
    std::fprintf(stderr, "reordered (%s): mean edge span %.1f -> %.1f\n",
                 std::string(graph::reorder_mode_name(mode)).c_str(),
                 span_before, graph::mean_edge_span(g));
  }
  return g;
}

int cmd_info(const Args& args) {
  const auto g = load(args);
  const auto md = graph::compute_metadata(g);
  std::printf("nodes:             %llu\n",
              static_cast<unsigned long long>(md.num_nodes));
  std::printf("directed edges:    %llu\n",
              static_cast<unsigned long long>(md.num_directed_edges));
  std::printf("beliefs (arity):   %u\n", md.beliefs);
  std::printf("max in-degree:     %u\n", md.max_in_degree);
  std::printf("max out-degree:    %u\n", md.max_out_degree);
  std::printf("avg in-degree:     %.3f\n", md.avg_in_degree);
  std::printf("nodes/edges ratio: %.5f\n", md.nodes_to_edges_ratio());
  std::printf("degree imbalance:  %.3f\n", md.degree_imbalance());
  std::printf("skew:              %.5f\n", md.skew());
  std::printf("family:            %s\n",
              std::string(graph::family_name(g.family())).c_str());
  if (graph::is_ldpc(g.family())) {
    std::printf("ldpc variables:    %u\n", g.ldpc_variables());
    std::printf("ldpc checks:       %u\n",
                g.num_nodes() - g.ldpc_variables());
  }
  std::printf("shared joint:      %s\n",
              g.joints().is_shared() ? "yes" : "no");
  std::printf("reorder:           %s\n",
              std::string(graph::reorder_mode_name(g.reorder_mode()))
                  .c_str());
  std::printf("mean edge span:    %.1f\n", graph::mean_edge_span(g));
  // Per-family accounting: closed-form families carry no probability
  // tables, so the payload term is honestly zero for them.
  std::printf("joint payload:     %.2f MiB\n",
              static_cast<double>(g.joints().payload_bytes()) / (1 << 20));
  std::printf("memory:            %.2f MiB\n",
              static_cast<double>(g.memory_bytes()) / (1 << 20));
  // --partition P: cut the (possibly reordered) graph into P contiguous
  // shards and report partition quality — what the sharded engine would
  // execute against (DESIGN.md §5i) — without running BP.
  if (args.get("partition")) {
    const auto p = graph::Partition::contiguous(
        g, static_cast<std::uint32_t>(args.number("partition", 8)));
    std::printf("partition:         %u shards\n", p.shard_count());
    std::printf("edge cut:          %llu (%.4f of edges)\n",
                static_cast<unsigned long long>(p.edge_cut()),
                p.edge_cut_fraction());
    std::printf("balance:           %.3f (max/mean shard work)\n",
                p.balance());
    for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
      const graph::Shard& sh = p.shard(s);
      std::printf(
          "shard %3u: nodes [%u, %u) internal edges %llu cut-in %llu "
          "border %zu ghosts %zu\n",
          s, sh.begin, sh.end,
          static_cast<unsigned long long>(sh.internal_edges),
          static_cast<unsigned long long>(sh.cut_in_edges),
          sh.border.size(), sh.ghosts.size());
    }
  }
  return 0;
}

int cmd_run(const Args& args) {
  const auto g = load(args);
  bp::BpOptions opts;
  opts.work_queue = !args.get("no-queue").has_value();
  opts.max_iterations =
      static_cast<std::uint32_t>(args.number("iters", 200));
  opts.convergence_threshold =
      static_cast<float>(args.number("threshold", 1e-3));
  opts.damping = static_cast<float>(args.number("damping", 0.0));
  opts.queue_threshold =
      static_cast<float>(args.number("queue-threshold", 1e-7));
  const auto trace_path = args.get("trace");
  opts.collect_trace = trace_path.has_value();
  if (args.get("threads")) {
    opts.threads = static_cast<unsigned>(args.number("threads", 8));
  }
  // Sharded-engine knobs (DESIGN.md §5i). Only forwarded when given:
  // Engine::run rejects non-default values on other engines.
  if (args.get("shards")) {
    opts.shard_count = static_cast<unsigned>(args.number("shards", 8));
  }
  if (args.get("exchange-every")) {
    opts.shard_exchange_every =
        static_cast<std::uint32_t>(args.number("exchange-every", 1));
  }
  // --syndrome 1: stop as soon as the hard decisions satisfy every parity
  // check (LDPC graphs only; tabular graphs ignore the criterion).
  opts.syndrome_stop = args.number("syndrome", 0) != 0;

  const std::string engine_arg = args.get("engine").value_or("auto");
  bp::BpResult result;
  std::string engine_used;
  if (engine_arg == "auto" && graph::is_ldpc(g.family())) {
    // The §3.7 dispatcher is trained on tabular workloads and may pick a
    // device engine; decode on the parallel residual engine instead.
    const auto engine =
        bp::make_default_engine(bp::EngineKind::kBulkResidual);
    engine_used = std::string(engine->name());
    std::fprintf(stderr, "ldpc family: running %s\n", engine_used.c_str());
    result = engine->run(g, opts);
  } else if (engine_arg == "auto") {
    const auto dispatcher = [&] {
      if (const auto model = args.get("model")) {
        std::fprintf(stderr, "loading dispatcher model %s\n",
                     model->c_str());
        return dispatch::Dispatcher::load(*model);
      }
      std::fprintf(stderr,
                   "training dispatcher on the bold benchmark subset...\n");
      dispatch::TrainerConfig tcfg;
      const auto runs = dispatch::benchmark_suite(suite::table1_bold(),
                                                  {2u, 3u}, tcfg);
      return dispatch::Dispatcher::train(runs);
    }();
    const auto kind = dispatcher.choose(graph::compute_metadata(g));
    engine_used = std::string(bp::engine_name(kind));
    std::fprintf(stderr, "dispatcher picked: %s\n", engine_used.c_str());
    result = dispatcher.run(g, opts);
  } else {
    const auto engine = bp::make_default_engine(parse_engine(engine_arg));
    engine_used = std::string(engine->name());
    result = engine->run(g, opts);
  }

  std::printf("engine:          %s\n", engine_used.c_str());
  std::printf("iterations:      %u\n", result.stats.iterations);
  std::printf("converged:       %s\n",
              result.stats.converged ? "yes" : "no (iteration cap)");
  std::printf("final delta:     %.3g\n", result.stats.final_delta);
  std::printf("modelled time:   %.6g s\n", result.stats.modelled_seconds());
  std::printf("host time:       %.6g s\n", result.stats.host_seconds);
  std::printf("elements:        %llu\n",
              static_cast<unsigned long long>(
                  result.stats.elements_processed));
  if (graph::is_ldpc(g.family())) {
    std::printf("syndrome:        %s\n",
                result.stats.syndrome_satisfied ? "satisfied"
                                                : "not satisfied");
  }

  if (trace_path) {
    std::ofstream f(*trace_path);
    if (!f) throw util::IoError("cannot open " + *trace_path);
    bp::runtime::write_trace_csv(f, result.stats.trace);
    std::printf("trace written:   %s (%zu iterations)\n",
                trace_path->c_str(), result.stats.trace.size());
  }

  if (const auto out = args.get("out")) {
    std::ofstream f(*out);
    if (!f) throw util::IoError("cannot open " + *out);
    // result.beliefs is indexed by *original* node ids (engines un-permute
    // under --reorder), so the width comes from the belief, not from the
    // possibly-reordered graph.
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      f << (v + 1);
      for (std::uint32_t s = 0; s < result.beliefs[v].size; ++s) {
        f << ' ' << result.beliefs[v][s];
      }
      f << '\n';
    }
    std::printf("beliefs written: %s\n", out->c_str());
  }
  return result.stats.converged ? 0 : 3;
}

/// `credo generate --family ldpc-min-sum|ldpc-sum-product|ldpc`: a random
/// regular (dv, dc) code on --nodes bits, a random weight---errors pattern,
/// and the decode graph for its syndrome, written as an MTX-belief pair
/// with the %%family headers.
int generate_ldpc(const Args& args, graph::FactorFamily family) {
  const auto bits = static_cast<std::uint32_t>(args.number("nodes", 1024));
  const auto dv = static_cast<std::uint32_t>(args.number("dv", 3));
  const auto dc = static_cast<std::uint32_t>(args.number("dc", 6));
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 42));
  const auto weight = static_cast<std::uint32_t>(args.number("errors", 1));
  const auto crossover =
      static_cast<float>(args.number("crossover", 0.05));
  const auto code = graph::ldpc::random_regular(bits, dv, dc, seed);
  std::vector<std::uint8_t> error(code.bits, 0);
  // Deterministic error pattern: `weight` distinct bits from an LCG-style
  // stride, matching the generator's seed so the pair reproduces.
  std::uint32_t placed = 0;
  for (std::uint64_t x = seed; placed < std::min(weight, code.bits);
       x = x * 6364136223846793005ULL + 1442695040888963407ULL) {
    const auto b = static_cast<std::uint32_t>(x % code.bits);
    if (error[b] == 0) {
      error[b] = 1;
      ++placed;
    }
  }
  const auto syn = graph::ldpc::syndrome(code, error);
  const auto g = graph::ldpc::build_graph(code, syn, crossover, family);
  const std::string prefix = args.require("out");
  io::write_mtx_belief(g, prefix + "_nodes.mtx", prefix + "_edges.mtx");
  std::printf("wrote %s_nodes.mtx / %s_edges.mtx (%s: %u bits, %u checks, "
              "%u-weight error)\n",
              prefix.c_str(), prefix.c_str(),
              std::string(graph::family_name(family)).c_str(), code.bits,
              code.checks, placed);
  return 0;
}

int cmd_generate(const Args& args) {
  const std::string family = args.require("family");
  if (const auto f = graph::family_from_name(family);
      f && graph::is_ldpc(*f)) {
    return generate_ldpc(args, *f);
  }
  const auto nodes =
      static_cast<graph::NodeId>(args.number("nodes", 1000));
  const auto edges = static_cast<std::uint64_t>(
      args.number("edges", 4.0 * nodes));
  graph::BeliefConfig cfg;
  cfg.beliefs = static_cast<std::uint32_t>(args.number("beliefs", 2));
  cfg.seed = static_cast<std::uint64_t>(args.number("seed", 42));
  cfg.observed_fraction = args.number("observed", 0.05);

  graph::FactorGraph g;
  if (family == "uniform") {
    g = graph::uniform_random(nodes, edges, cfg);
  } else if (family == "kron") {
    const auto scale = static_cast<std::uint32_t>(
        std::max(2.0, std::round(std::log2(static_cast<double>(nodes)))));
    g = graph::rmat(scale, edges, cfg);
  } else if (family == "social") {
    g = graph::preferential_attachment(
        nodes, static_cast<std::uint32_t>(
                   std::max<std::uint64_t>(1, edges / nodes)),
        cfg);
  } else if (family == "tree") {
    g = graph::random_tree(nodes, cfg);
  } else if (family == "grid") {
    const auto side = static_cast<std::uint32_t>(
        std::max(1.0, std::floor(std::sqrt(static_cast<double>(nodes)))));
    g = graph::grid(side, side, cfg);
  } else {
    throw util::InvalidArgument("unknown family: " + family);
  }

  const std::string prefix = args.require("out");
  io::write_mtx_belief(g, prefix + "_nodes.mtx", prefix + "_edges.mtx");
  std::printf("wrote %s_nodes.mtx / %s_edges.mtx (%u nodes, %llu directed "
              "edges)\n",
              prefix.c_str(), prefix.c_str(), g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));
  return 0;
}

int cmd_convert(const Args& args) {
  const std::string in = args.require("in");
  const std::string prefix = args.require("out");
  const bool xml = in.size() > 4 && (in.substr(in.size() - 4) == ".xml");
  if (xml) {
    io::convert_xmlbif_to_mtx(in, prefix + "_nodes.mtx",
                              prefix + "_edges.mtx");
  } else {
    io::convert_bif_to_mtx(in, prefix + "_nodes.mtx",
                           prefix + "_edges.mtx");
  }
  std::printf("converted %s -> %s_nodes.mtx / %s_edges.mtx\n", in.c_str(),
              prefix.c_str(), prefix.c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const std::string out = args.require("out");
  std::vector<std::uint32_t> beliefs = {2, 3};
  if (const auto b = args.get("beliefs")) {
    beliefs.clear();
    for (const auto part : util::split(*b, ',')) {
      const auto v = util::parse_u64(part);
      if (!v) throw util::InvalidArgument("bad --beliefs list");
      beliefs.push_back(static_cast<std::uint32_t>(*v));
    }
  }
  const bool full = args.number("full-suite", 0) != 0;
  std::fprintf(stderr, "benchmarking the %s suite at %zu arities...\n",
               full ? "full" : "bold", beliefs.size());
  dispatch::TrainerConfig tcfg;
  const auto runs = dispatch::benchmark_suite(
      full ? suite::table1() : suite::table1_bold(), beliefs, tcfg);
  const auto dispatcher = dispatch::Dispatcher::train(runs);
  dispatcher.save(out);
  std::printf("trained on %zu runs; model written to %s\n", runs.size(),
              out.c_str());
  for (const auto b : beliefs) {
    std::printf("  pivot @%u beliefs: %g nodes\n", b,
                dispatcher.platform_pivot(b));
  }
  return 0;
}

/// `credo mutate --nodes N.mtx --edges E.mtx`: the §5j dynamic-graph demo.
/// Converges the loaded graph once, then streams `--ops` mutation batches
/// (grown nodes, rewired edges, prior nudges) through a DynamicGraph,
/// re-converging incrementally after each batch — previous fixed point
/// overlaid via patch_beliefs, schedule seeded from the touched frontier —
/// and finishes with a full cold run on the final topology to report the
/// belief L-inf gap between the incremental path and a rebuild.
int cmd_mutate(const Args& args) {
  const auto g = load(args);
  if (graph::is_ldpc(g.family())) {
    throw util::InvalidArgument(
        "mutate runs on tabular graphs (LDPC structure encodes a code)");
  }

  bp::BpOptions opts;
  opts.max_iterations =
      static_cast<std::uint32_t>(args.number("iters", 200));
  opts.convergence_threshold =
      static_cast<float>(args.number("threshold", 1e-3));
  opts.damping = static_cast<float>(args.number("damping", 0.0));
  opts.frontier_damping =
      static_cast<float>(args.number("frontier-damping", 0.1));
  const auto kind = parse_engine(args.get("engine").value_or("c-node"));
  const auto engine = bp::make_default_engine(kind);
  const bool seeded = bp::engine_supports_frontier_seed(kind, g.family());

  graph::DynamicOptions dopts;
  dopts.reorder = g.reorder_mode();
  auto dyn = graph::DynamicGraph::from_graph(g, dopts);

  auto base = engine->run(*dyn.snapshot(), opts);
  std::vector<graph::BeliefVec> prev = base.beliefs;
  std::printf("base:     %u nodes, %llu edges, converged in %u iters\n",
              dyn.num_nodes(),
              static_cast<unsigned long long>(dyn.num_edges()),
              base.stats.iterations);

  const auto n_ops = static_cast<std::size_t>(args.number("ops", 8));
  std::mt19937_64 rng(static_cast<std::uint64_t>(args.number("seed", 42)));
  const bool shared = g.joints().is_shared();
  for (std::size_t b = 0; b < n_ops; ++b) {
    // One batch = one grow + one rewire + one nudge, aimed at random live
    // nodes. Targets that fail a liveness/duplicate precondition are
    // simply skipped — validation would reject the whole batch otherwise.
    graph::GraphDelta delta;
    const auto live = [&]() -> graph::NodeId {
      for (int tries = 0; tries < 64; ++tries) {
        const auto v =
            static_cast<graph::NodeId>(rng() % dyn.num_nodes());
        if (!dyn.removed(v)) return v;
      }
      throw util::InvalidArgument("mutate: no live nodes left");
    };
    const graph::NodeId grow_target = live();
    delta.add_node(graph::BeliefVec::uniform(dyn.arity(grow_target)));
    if (shared) {
      delta.add_edge(graph::GraphDelta::new_node(0), grow_target);
    } else {
      delta.add_edge(graph::GraphDelta::new_node(0), grow_target,
                     graph::JointMatrix::diffusion(
                         dyn.arity(grow_target), 0.8f));
    }
    const graph::NodeId u = live();
    const graph::NodeId v = live();
    if (u != v && !dyn.has_edge(u, v) &&
        dyn.arity(u) == dyn.arity(v)) {
      if (shared) {
        delta.add_edge(u, v);
      } else {
        delta.add_edge(u, v,
                       graph::JointMatrix::diffusion(dyn.arity(u), 0.8f));
      }
    }
    const graph::NodeId nudge = live();
    if (!dyn.observed(nudge)) {
      graph::BeliefVec p = graph::BeliefVec::uniform(dyn.arity(nudge));
      p[static_cast<std::uint32_t>(rng() % p.size)] = 2.0f;
      graph::normalize(p);
      delta.set_prior(nudge, p);
    }
    if (const util::Status s = dyn.apply(delta); !s.is_ok()) {
      throw util::InvalidArgument("mutation batch rejected: " +
                                  std::string(s.message()));
    }

    auto snap = dyn.snapshot();
    bp::BpOptions ropts = opts;
    if (seeded) {
      ropts.with_init_beliefs(
               std::make_shared<const std::vector<graph::BeliefVec>>(
                   dyn.patch_beliefs(prev)))
          .with_frontier_seed(
              std::make_shared<const std::vector<graph::NodeId>>(
                  dyn.last_touched()));
    }
    const auto inc = engine->run(*snap, ropts);
    prev = inc.beliefs;
    std::printf(
        "v%-3llu ops %zu touched %zu frontier %5.1f%% iters %3u %s\n",
        static_cast<unsigned long long>(dyn.version()), delta.size(),
        dyn.last_touched().size(),
        100.0 * static_cast<double>(inc.stats.frontier_seeded) /
            static_cast<double>(dyn.num_nodes()),
        inc.stats.iterations,
        inc.stats.converged ? "converged" : "iteration cap");
  }

  // Ground truth: a cold full run on the final topology. The incremental
  // path must land on the same fixed point.
  const auto cold = engine->run(*dyn.snapshot(), opts);
  float linf = 0.0f;
  for (std::size_t i = 0; i < prev.size(); ++i) {
    for (std::uint32_t s = 0; s < prev[i].size; ++s) {
      linf = std::max(linf, std::abs(prev[i][s] - cold.beliefs[i][s]));
    }
  }
  std::printf("final:    %u nodes, %llu edges, %llu compactions, dead "
              "fraction %.3f\n",
              dyn.num_nodes(),
              static_cast<unsigned long long>(dyn.num_edges()),
              static_cast<unsigned long long>(dyn.compactions()),
              dyn.dead_fraction());
  std::printf("L-inf vs rebuild: %.3g (threshold %.3g)\n",
              static_cast<double>(linf),
              static_cast<double>(opts.convergence_threshold));
  return linf <= opts.convergence_threshold ? 0 : 3;
}

/// Scrapes `registry` to `path`: truncate-and-rewrite for files (so the
/// file always holds one complete exposition), stdout for "-". A `.json`
/// extension selects the JSON dump over Prometheus text.
void scrape_metrics(const obs::MetricsRegistry& registry,
                    const std::string& path) {
  const bool json =
      path.size() > 5 && path.substr(path.size() - 5) == ".json";
  if (path == "-") {
    registry.write_prometheus(std::cout);
    return;
  }
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw util::IoError("cannot open " + path);
  if (json) {
    registry.write_json(f);
  } else {
    registry.write_prometheus(f);
  }
}

/// `credo serve --stress N`: replay a request mix against an in-process
/// Server and print the metrics table (throughput, latency percentiles,
/// cache hit rate, admission accounting), every count read from the
/// server's metrics registry. Without --nodes/--edges, two small graphs
/// are generated into the system temp directory so the cache sees both
/// hits and multiple keys.
int cmd_serve(const Args& args) {
  const auto n_req = static_cast<std::size_t>(args.number("stress", 64));
  if (n_req == 0) throw util::InvalidArgument("--stress must be nonzero");

  serve::StressConfig stress;
  stress.requests = n_req;
  stress.sessions =
      static_cast<unsigned>(args.number("sessions", 4));
  stress.options.max_iterations =
      static_cast<std::uint32_t>(args.number("iters", 50));
  stress.options.convergence_threshold =
      static_cast<float>(args.number("threshold", 1e-3));

  serve::ServerOptions sopts;
  sopts.workers = static_cast<unsigned>(args.number("workers", 3));
  sopts.queue_capacity =
      static_cast<std::size_t>(args.number("queue", 2 * n_req));
  sopts.cache_capacity = static_cast<std::size_t>(args.number("cache", 4));
  sopts.pool_threads = static_cast<unsigned>(args.number("pool", 8));

  const std::string engine_arg = args.get("engine").value_or("mix");
  if (engine_arg == "auto") {
    stress.mix.clear();  // server default = the §3.7 dispatcher
    sopts.use_dispatcher = true;
    if (const auto model = args.get("model")) sopts.dispatcher_model = *model;
  } else if (engine_arg == "mix") {
    stress.mix = {bp::EngineKind::kCpuNode, bp::EngineKind::kCpuEdge,
                  bp::EngineKind::kOmpNode, bp::EngineKind::kCudaNode,
                  bp::EngineKind::kResidual};
  } else {
    stress.mix = {parse_engine(engine_arg)};
  }

  stress.reorder =
      graph::parse_reorder_mode(args.get("reorder").value_or("none"));
  stress.warm = args.number("warm", 0) != 0;
  stress.batch = static_cast<std::size_t>(args.number("batch", 0));
  if (stress.batch > 1 && stress.reorder != graph::ReorderMode::kNone) {
    throw util::InvalidArgument(
        "--batch and --reorder are mutually exclusive (fused parts cannot "
        "carry permutations)");
  }
  stress.deadline_every =
      static_cast<std::size_t>(args.number("deadline-every", 0));
  stress.deadline.host_seconds = args.number("deadline-ms", 0) / 1000.0;
  stress.cancel_every =
      static_cast<std::size_t>(args.number("cancel-every", 0));
  // --churn K: every Kth request carries a topology mutation batch, so the
  // §5j dynamic-graph path runs under concurrent query load.
  stress.churn_every = static_cast<std::size_t>(args.number("churn", 0));
  stress.churn_edges =
      static_cast<std::size_t>(args.number("churn-edges", 2));
  stress.churn_seed =
      static_cast<std::uint64_t>(args.number("churn-seed", 1));
  if (stress.churn_every > 0 && stress.batch > 1) {
    throw util::InvalidArgument(
        "--churn and --batch are mutually exclusive (fused batch members "
        "cannot carry deltas)");
  }

  if (args.get("nodes")) {
    stress.graphs.emplace_back(args.require("nodes"), args.require("edges"));
  } else if (!args.get("family")) {
    // Self-contained smoke mode: generate two distinct small graphs.
    // (--family generates its own decode graphs below.)
    const auto dir = std::filesystem::temp_directory_path() /
                     "credo_serve_stress";
    std::filesystem::create_directories(dir);
    graph::BeliefConfig cfg;
    cfg.beliefs = 2;
    cfg.seed = 7;
    cfg.observed_fraction = 0.05;
    const auto g1 = graph::uniform_random(400, 1600, cfg);
    cfg.seed = 8;
    cfg.beliefs = 3;
    const auto g2 = graph::grid(20, 20, cfg);
    const std::string p1 = (dir / "u400").string();
    const std::string p2 = (dir / "g20").string();
    io::write_mtx_belief(g1, p1 + "_nodes.mtx", p1 + "_edges.mtx");
    io::write_mtx_belief(g2, p2 + "_nodes.mtx", p2 + "_edges.mtx");
    stress.graphs.emplace_back(p1 + "_nodes.mtx", p1 + "_edges.mtx");
    stress.graphs.emplace_back(p2 + "_nodes.mtx", p2 + "_edges.mtx");
    std::fprintf(stderr, "generated stress graphs under %s\n",
                 dir.string().c_str());
  }

  // --family ldpc-min-sum|ldpc-sum-product: the decode-under-load scenario
  // (DESIGN.md §5g) — many tiny generated decode graphs at a high request
  // rate — instead of the file-pair replay.
  std::optional<serve::DecodeLoadConfig> decode_load;
  if (const auto family_arg = args.get("family")) {
    const auto fam = graph::family_from_name(*family_arg);
    if (!fam || !graph::is_ldpc(*fam)) {
      throw util::InvalidArgument(
          "serve --family expects ldpc-sum-product or ldpc-min-sum, got " +
          *family_arg);
    }
    serve::DecodeLoadConfig dl;
    dl.family = *fam;
    dl.requests = n_req;
    dl.sessions = stress.sessions;
    dl.bits = static_cast<std::uint32_t>(args.number("bits", 48));
    dl.dv = static_cast<std::uint32_t>(args.number("dv", 3));
    dl.dc = static_cast<std::uint32_t>(args.number("dc", 6));
    dl.crossover = static_cast<float>(args.number("crossover", 0.05));
    dl.seed = static_cast<std::uint64_t>(args.number("seed", 1));
    dl.max_iterations = stress.options.max_iterations;
    dl.batch = stress.batch;
    decode_load = dl;
  }

  const auto metrics_path = args.get("metrics");
  const auto spans_path = args.get("spans");
  obs::SpanLog span_log(std::max<std::size_t>(1024, 2 * n_req));
  if (spans_path) sopts.spans = &span_log;

  serve::Server server(sopts);

  // Periodic scrape while the mix runs: the metrics file is live, not just
  // a post-mortem (stdout gets one final scrape only).
  std::atomic<bool> scraping{metrics_path.has_value() &&
                             *metrics_path != "-"};
  std::thread scraper;
  if (scraping.load()) {
    scraper = std::thread([&] {
      while (scraping.load(std::memory_order_relaxed)) {
        scrape_metrics(server.metrics(), *metrics_path);
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
      }
    });
  }

  const auto report = decode_load
                          ? serve::run_decode_under_load(server, *decode_load)
                          : serve::run_stress(server, stress);
  server.shutdown();

  scraping.store(false);
  if (scraper.joinable()) scraper.join();
  if (metrics_path) scrape_metrics(server.metrics(), *metrics_path);
  if (spans_path) {
    if (*spans_path == "-") {
      span_log.write_jsonl(std::cout);
    } else {
      std::ofstream f(*spans_path, std::ios::trunc);
      if (!f) throw util::IoError("cannot open " + *spans_path);
      span_log.write_jsonl(f);
    }
  }

  report.table().print(std::cout);

  const auto stats = report.server;
  if (stats.submitted != stats.finished()) {
    std::fprintf(stderr,
                 "accounting mismatch: submitted %llu != finished %llu\n",
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.finished()));
    return 4;
  }
  // The registry must tell the same story as the in-process stats — it is
  // the scrapeable source of truth the table was rendered from.
  if (report.metrics.counter("credo_requests_submitted_total") !=
      stats.submitted) {
    std::fprintf(stderr, "registry/stats submitted mismatch\n");
    return 4;
  }
  if (stats.failed > 0) {
    std::fprintf(stderr, "%llu requests failed\n",
                 static_cast<unsigned long long>(stats.failed));
    return 5;
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: credo <info|run|mutate|generate|convert|train|serve>"
      " [--flag value]...\n"
      "  info     --nodes N.mtx --edges E.mtx [--partition P]\n"
      "  run      --nodes N.mtx --edges E.mtx [--engine auto|c-node|...]\n"
      "           [--reorder none|bfs|rcm|degree] [--iters N]\n"
      "           [--threshold X] [--threads T] [--shards P]\n"
      "           [--exchange-every E] [--syndrome 1] [--out beliefs.txt]\n"
      "           [--trace trace.csv] [--no-queue]\n"
      "  mutate   --nodes N.mtx --edges E.mtx [--ops K] [--seed S]\n"
      "           [--engine c-node|residual|...] [--reorder MODE]\n"
      "           [--iters N] [--threshold X] [--frontier-damping D]\n"
      "  generate --family uniform|kron|social|tree|grid --nodes N\n"
      "           [--edges M] [--beliefs B] [--seed S] [--observed F]"
      " --out PREFIX\n"
      "  generate --family ldpc-sum-product|ldpc-min-sum --nodes BITS\n"
      "           [--dv V] [--dc C] [--errors W] [--crossover P]\n"
      "           [--seed S] --out PREFIX\n"
      "  convert  --in file.{bif,xml} --out PREFIX\n"
      "  train    --out model.txt [--beliefs 2,3,32] [--full-suite 1]\n"
      "  serve    --stress N [--nodes N.mtx --edges E.mtx] [--sessions S]\n"
      "           [--workers W] [--queue Q] [--cache C] [--pool P]\n"
      "           [--engine mix|auto|<name>] [--reorder MODE]\n"
      "           [--warm 1] [--batch B]\n"
      "           [--deadline-every K] [--deadline-ms D]\n"
      "           [--cancel-every K] [--iters N] [--threshold X]\n"
      "           [--churn K [--churn-edges E] [--churn-seed S]]\n"
      "           [--family ldpc-sum-product|ldpc-min-sum [--bits B]\n"
      "            [--dv V] [--dc C] [--crossover P] [--seed S]]\n"
      "           [--metrics out.prom|out.json|-] [--spans out.jsonl|-]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "mutate") return cmd_mutate(args);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "serve") return cmd_serve(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
