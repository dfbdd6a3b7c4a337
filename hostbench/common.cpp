// Inputs, output checks, statistics and spans shared by the workloads.
#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "bench.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "io/mtx_belief.h"
#include "util/error.h"
#include "util/prng.h"

namespace hostbench {

namespace graph = credo::graph;

std::uint64_t SpanRecorder::record(const std::string& name,
                                   Clock::time_point start,
                                   Clock::time_point end, std::uint64_t parent,
                                   std::uint64_t op) {
  const auto rel = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - epoch_).count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, rel(start), rel(end), id, parent, op});
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  CREDO_CHECK_MSG(out.good(), "cannot open span output file");
  std::lock_guard<std::mutex> lock(mu_);
  out.precision(9);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"name\":\"" << s.name
        << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
        << "}\n";
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<double> closed_loop(
    unsigned callers, std::size_t per_caller, std::size_t blocks,
    const std::function<void(unsigned, std::size_t, std::size_t)>& op) {
  std::vector<double> walls;
  std::mutex mu;
  std::exception_ptr error;  // the first op that threw, rethrown after join
  for (std::size_t b = 0; b < blocks && !error; ++b) {
    const auto [lo, hi] = block_range(per_caller, blocks, b);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(callers);
    for (unsigned c = 0; c < callers; ++c) {
      threads.emplace_back([&, c, b, lo = lo, hi = hi] {
        try {
          for (std::size_t i = lo; i < hi; ++i) op(c, i, b);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    walls.push_back(seconds_since(t0));
  }
  if (error) std::rethrow_exception(error);
  return walls;
}

void EngineSamples::add(const credo::bp::BpStats& st, double run) {
  run_s.push_back(run);
  host_s.push_back(st.host_seconds);
  unpermute_s.push_back(st.unpermute_seconds);
  outside_s.push_back(run - st.host_seconds - st.unpermute_seconds);
  iterations.push_back(st.iterations);
  updates.push_back(static_cast<double>(st.elements_processed));
  ns_per_update.push_back(st.host_seconds * 1e9 /
                          std::max<double>(1.0, st.elements_processed));
  modelled_s.push_back(st.modelled_seconds());
  double off = 0.0, proc = 0.0, chk = 0.0;
  for (const auto& rec : st.trace) {
    off += static_cast<double>(rec.frontier);
    proc += static_cast<double>(rec.processed);
    chk += rec.checked ? 1.0 : 0.0;
  }
  offered.push_back(off);
  processed_frac.push_back(off > 0.0 ? proc / off : 0.0);
  checks.push_back(chk);
  flops.push_back(static_cast<double>(st.counters.flops));
  bytes.push_back(static_cast<double>(st.counters.total_bytes()));
}

std::vector<Metric> EngineSamples::metrics() const {
  return {
      {"bp.run_s", median(run_s), "s"},
      {"bp.host_s", median(host_s), "s"},
      {"bp.unpermute_s", median(unpermute_s), "s"},
      {"bp.outside_loop_s", median(outside_s), "s"},
      {"bp.iterations", median(iterations), "count"},
      {"bp.updates", median(updates), "count"},
      {"bp.ns_per_update", median(ns_per_update), "ns"},
      {"runtime.offered", median(offered), "count"},
      {"runtime.processed_frac", median(processed_frac), "ratio"},
      {"runtime.checks", median(checks), "count"},
      {"perf.modelled_s", median(modelled_s), "s"},
      {"perf.flops", median(flops), "count"},
      {"perf.bytes_computed", median(bytes), "B"},
  };
}

std::unique_ptr<ServeInstance> start_server(std::size_t span_capacity) {
  auto in = std::make_unique<ServeInstance>();
  credo::serve::ServerOptions so;
  so.workers = 3;
  so.queue_capacity = 4 * kCallers;
  so.cache_capacity = 8;
  so.pool_threads = 1;
  so.default_engine = credo::bp::EngineKind::kCpuNode;
  so.use_dispatcher = false;
  so.metrics = &in->registry;
  if (span_capacity > 0) {
    in->log = std::make_unique<credo::obs::SpanLog>(span_capacity);
    so.spans = in->log.get();
  }
  in->server = std::make_unique<credo::serve::Server>(so);
  return in;
}

// ---------------------------------------------------------------------------
// Inputs.

GridSpec grid_spec(Scale scale) {
  GridSpec spec;
  if (scale == Scale::kSmoke) spec.side = 64;
  return spec;
}

graph::FactorGraph make_grid(const GridSpec& spec, std::uint64_t seed) {
  // One fixed joint for every seed: the library generator jitters its
  // shared joint per seed, which moves the grid across BP's uniqueness
  // threshold and changes the solve's work from seed to seed. Seeds vary
  // the evidence, the priors and the on-disk ids instead.
  credo::util::Prng rng(seed);
  graph::GraphBuilder b;
  b.use_shared_joint(graph::JointMatrix::diffusion(2, spec.stay));
  const auto n = static_cast<graph::NodeId>(spec.side * spec.side);
  b.reserve(n, 4ull * n);
  for (graph::NodeId v = 0; v < n; ++v) {
    if (rng.bernoulli(0.05)) {
      b.add_observed_node(2, static_cast<std::uint32_t>(rng.uniform(2)));
    } else {
      b.add_node(graph::random_prior(2, rng));
    }
  }
  for (std::uint32_t y = 0; y < spec.side; ++y) {
    for (std::uint32_t x = 0; x < spec.side; ++x) {
      const graph::NodeId v = y * spec.side + x;
      if (x + 1 < spec.side) b.add_undirected(v, v + 1);
      if (y + 1 < spec.side) b.add_undirected(v, v + spec.side);
    }
  }
  // Arbitrary on-disk ids, as real inputs arrive: the reorder pass in
  // set-up then has real work to do.
  return graph::relabeled(b.finalize(),
                          graph::random_order(n, rng()));
}

std::vector<graph::FactorGraph> make_serve_graphs(Scale scale) {
  const bool full = scale == Scale::kFull;
  const graph::NodeId n = full ? 8192 : 512;
  const graph::NodeId n32 = full ? 1024 : 128;
  // Fixed content: the generators jitter each graph's shared joint per
  // seed, and the jitter moves cold-run work by up to 2x between seeds.
  // The couplings keep every graph inside BP's uniqueness regime, so warm,
  // delta and cold runs reach one fixed point (the arity-32 graph at the
  // default 0.7 has several). Seeds vary the op sequences.
  const auto config = [](std::uint32_t beliefs, float coupling,
                         std::uint64_t salt) {
    graph::BeliefConfig cfg;
    cfg.beliefs = beliefs;
    cfg.observed_fraction = 0.05;
    cfg.shared_joint = true;
    cfg.coupling = coupling;
    cfg.seed = 2 * 7919 + salt;
    return cfg;
  };
  std::vector<graph::FactorGraph> out;
  out.push_back(graph::uniform_random(n, 4ull * n, config(2, 0.6f, 1)));
  out.push_back(graph::preferential_attachment(n, 4, config(3, 0.6f, 2)));
  out.push_back(graph::uniform_random(n32, 4ull * n32, config(32, 0.15f, 3)));
  return out;
}

LdpcSpec ldpc_spec(Scale scale) {
  LdpcSpec spec;
  if (scale == Scale::kSmoke) {
    // A short code sits closer to its waterfall: lower the crossover so
    // every smoke frame still decodes.
    spec.bits = 384;
    spec.crossover = 0.01f;
  }
  return spec;
}

std::vector<std::uint8_t> make_error(const LdpcSpec& spec, std::uint64_t seed) {
  credo::util::Prng rng(seed);
  std::vector<std::uint8_t> e(spec.bits, 0);
  for (auto& bit : e) bit = rng.bernoulli(spec.crossover) ? 1 : 0;
  return e;
}

std::vector<std::string> input_files(const std::string& workload,
                                     const std::string& dir) {
  const auto pair = [&](const std::string& stem) {
    return std::vector<std::string>{dir + "/" + stem + "_nodes.mtx",
                                     dir + "/" + stem + "_edges.mtx"};
  };
  if (workload == "grid-solve") return pair("grid");
  if (workload == "serve-churn") {
    std::vector<std::string> files;
    for (const char* stem : {"uniform2", "social3", "uniform32"}) {
      for (auto& f : pair(stem)) files.push_back(std::move(f));
    }
    return files;
  }
  return {};  // ldpc-decode submits in-memory graphs only
}

void generate_inputs(const RunConfig& cfg) {
  std::filesystem::create_directories(cfg.data_dir);
  const auto files = input_files(cfg.workload, cfg.data_dir);
  if (cfg.workload == "grid-solve") {
    const auto g = make_grid(grid_spec(cfg.scale), cfg.seed);
    credo::io::write_mtx_belief(g, files[0], files[1]);
  } else if (cfg.workload == "serve-churn") {
    const auto graphs = make_serve_graphs(cfg.scale);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      credo::io::write_mtx_belief(graphs[i], files[2 * i], files[2 * i + 1]);
    }
  }
}

// ---------------------------------------------------------------------------
// Output checks.

std::string check_beliefs(const graph::FactorGraph& g,
                          std::span<const graph::BeliefVec> beliefs,
                          float norm_tol) {
  if (beliefs.size() != g.num_nodes()) {
    return "belief count " + std::to_string(beliefs.size()) +
           " != node count " + std::to_string(g.num_nodes());
  }
  // Beliefs come back in the caller's original ids; a reordered graph
  // stores its nodes under permuted ids.
  const graph::Permutation* perm = g.permutation();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const graph::BeliefVec& b = beliefs[v];
    const graph::NodeId gv = perm != nullptr ? perm->to_new(v) : v;
    if (b.size != g.arity(gv)) {
      return "node " + std::to_string(v) + " has arity " +
             std::to_string(b.size);
    }
    float sum = 0.0f;
    for (std::uint32_t s = 0; s < b.size; ++s) {
      if (!std::isfinite(b.v[s]) || b.v[s] < 0.0f) {
        return "node " + std::to_string(v) + " has a non-finite or negative "
               "belief";
      }
      sum += b.v[s];
    }
    if (std::fabs(sum - 1.0f) > norm_tol) {
      return "node " + std::to_string(v) + " beliefs sum to " +
             std::to_string(sum);
    }
    if (g.observed(gv)) {
      const graph::BeliefVec& p = g.prior(gv);
      for (std::uint32_t s = 0; s < b.size; ++s) {
        if (std::fabs(b.v[s] - p.v[s]) > norm_tol) {
          return "observed node " + std::to_string(v) + " moved off its "
                 "evidence";
        }
      }
    }
  }
  return {};
}

std::vector<float> compact(std::span<const graph::BeliefVec> beliefs) {
  std::vector<float> out;
  for (const graph::BeliefVec& b : beliefs) {
    out.insert(out.end(), b.v.begin(), b.v.begin() + b.size);
  }
  return out;
}

double max_abs_diff(std::span<const float> a,
                    std::span<const graph::BeliefVec> reference) {
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  double worst = 0.0;
  std::size_t at = 0;
  for (const graph::BeliefVec& r : reference) {
    if (at + r.size > a.size()) return kUnbounded;
    for (std::uint32_t s = 0; s < r.size; ++s, ++at) {
      const double d = std::fabs(static_cast<double>(a[at]) - r.v[s]);
      if (std::isnan(d)) return kUnbounded;
      worst = std::max(worst, d);
    }
  }
  return at == a.size() ? worst : kUnbounded;
}

std::string check_against(std::span<const float> beliefs,
                          std::span<const graph::BeliefVec> reference,
                          double tol) {
  const double d = max_abs_diff(beliefs, reference);
  if (d <= tol) return {};
  return "max-abs difference " + std::to_string(d) +
         " from the c-node reference exceeds " + std::to_string(tol);
}

std::string check_syndrome(const graph::ldpc::Code& code,
                           std::span<const graph::BeliefVec> beliefs,
                           std::span<const std::uint8_t> syndrome) {
  if (beliefs.size() < code.bits) return "fewer beliefs than code bits";
  const auto decision = graph::ldpc::hard_decision(beliefs, code.bits);
  if (!graph::ldpc::satisfies(code, decision, syndrome)) {
    return "hard decision does not satisfy the syndrome";
  }
  return {};
}

std::string check_decode_verdict(const graph::ldpc::Code& code,
                                 std::span<const graph::BeliefVec> beliefs,
                                 std::span<const std::uint8_t> syndrome,
                                 bool reported_decoded) {
  const std::string e = check_syndrome(code, beliefs, syndrome);
  if (reported_decoded && !e.empty()) return "reported decoded, but " + e;
  if (!reported_decoded && e.empty()) {
    return "reported undecoded, but the hard decision satisfies the syndrome";
  }
  return {};
}

}  // namespace hostbench
