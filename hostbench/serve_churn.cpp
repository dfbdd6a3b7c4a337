// serve-churn: online re-query traffic with writes beside reads.
//
// Three file-backed graphs behind one serve::Server (3 workers, dispatcher
// off, c-node, a cache that holds every graph). Four callers replay seeded
// mixes of cold queries, warm repeats, 4-node evidence deltas and topology
// mutations (one new node plus one edge, all on graph 0). The time sits in
// the serve layer on L2-resident graphs: cache, warm table, frontier-seeded
// deltas and DynamicGraph snapshots; the arity-32 graph puts the matvec
// kernels on the path, and the mutations make a read-side gain that slows
// writes show.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "bp/engine.h"
#include "graph/delta.h"
#include "util/prng.h"

namespace hostbench {

namespace bp = credo::bp;
namespace graph = credo::graph;
namespace serve = credo::serve;

namespace {

// Requests per second of `--seconds` (about 600 req/s on a 4-core Xeon).
constexpr double kRequestsPerSecond = 500.0;
// Warm and frontier-seeded runs stop near the fixed point a cold c-node
// run reaches; the largest gaps seen are 9.4e-6 (cold, warm), 2.8e-4 (delta).
constexpr double kReferenceTolerance = 5e-3;
constexpr std::uint32_t kMutatedGraph = 0;

enum class Kind : std::uint8_t { kCold, kWarm, kDelta, kMutate };
constexpr const char* kKindNames[] = {"cold", "warm", "delta", "mutate"};

struct Op {
  Kind kind = Kind::kCold;
  std::uint32_t graph = 0;
  std::optional<graph::GraphDelta> delta;
  std::vector<std::pair<graph::NodeId, std::uint32_t>> observed;
  bool sample = false;  // keep the delta's beliefs for the reference check
};

// What the timed phase keeps per op: timings and counters, no beliefs.
struct Outcome {
  double latency_s = 0.0;
  bool traced = false;
  bool ok = false;
  bool cache_hit = false, warm_start = false;
  double frontier_fraction = 1.0;
  double service_s = 0.0;
  std::uint64_t span_id = 0, graph_version = 0;
  bp::BpStats stats;  // trace and counters included
};

struct Sample {
  std::uint32_t graph = 0;
  std::optional<graph::GraphDelta> delta;
  std::vector<float> beliefs;
};

bp::BpOptions request_options(bool traced) {
  return bp::BpOptions{}
      .with_convergence_threshold(1e-3f)
      .with_max_iterations(200)
      .with_work_queue(true)
      .with_threads(1)
      .with_collect_trace(traced);
}

// One caller's op sequence: exact shares of each kind in a seeded order,
// each kind split evenly over the graphs, so every seed does the same mix
// of work. Warm-up sequences carry no mutations so the timed phase starts
// from the as-parsed topology.
std::vector<Op> make_ops(const std::vector<graph::FactorGraph>& graphs,
                         std::size_t count, std::uint64_t seed,
                         bool mutations, std::size_t samples) {
  credo::util::Prng rng(seed);
  std::vector<Op> ops(count);
  const std::size_t cold = count * 20 / 100, warm = count * 45 / 100,
                    delta = count * 30 / 100;
  for (std::size_t k = 0; k < count; ++k) {
    ops[k].kind = k < cold                  ? Kind::kCold
                  : k < cold + warm         ? Kind::kWarm
                  : k < cold + warm + delta ? Kind::kDelta
                  : mutations               ? Kind::kMutate
                                            : Kind::kWarm;
  }
  for (std::size_t k = count; k > 1; --k) {
    std::swap(ops[k - 1].kind, ops[rng.uniform(k)].kind);
  }
  std::size_t per_kind[4] = {0, 0, 0, 0};
  std::vector<std::size_t> eligible;
  for (std::size_t k = 0; k < count; ++k) {
    Op& op = ops[k];
    op.graph = op.kind == Kind::kMutate
                   ? kMutatedGraph
                   : static_cast<std::uint32_t>(per_kind[int(op.kind)]++ %
                                                graphs.size());
    const graph::FactorGraph& g = graphs[op.graph];
    if (op.kind == Kind::kDelta) {
      graph::GraphDelta d;
      while (op.observed.size() < 4) {
        const auto v = static_cast<graph::NodeId>(rng.uniform(g.num_nodes()));
        const bool taken = std::any_of(
            op.observed.begin(), op.observed.end(),
            [v](const auto& o) { return o.first == v; });
        if (g.observed(v) || taken) continue;
        const auto state = static_cast<std::uint32_t>(rng.uniform(g.arity(v)));
        d.observe(v, state);
        op.observed.emplace_back(v, state);
      }
      op.delta = std::move(d);
    } else if (op.kind == Kind::kMutate) {
      const auto target =
          static_cast<graph::NodeId>(rng.uniform(g.num_nodes()));
      graph::GraphDelta d;
      d.add_node(graph::BeliefVec::uniform(g.arity(target)));
      d.add_edge(graph::GraphDelta::new_node(0), target);
      op.delta = std::move(d);
    }
    if (op.delta && op.graph != kMutatedGraph) eligible.push_back(k);
  }
  // Each delta needs its own cold reference solve, so only evenly spaced
  // samples of the read-only graphs' deltas are checked against one.
  for (std::size_t j = 0; j < samples && !eligible.empty(); ++j) {
    ops[eligible[j * eligible.size() / samples]].sample = true;
  }
  return ops;
}

serve::Request make_request(const std::vector<std::string>& files,
                            const Op& op, bool traced) {
  // The read-only graphs are named by their BFS-reordered key, as a
  // locality-aware deployment would: the cache reorders once at fill time
  // and every response un-permutes. The mutated graph keeps its file order:
  // a node-adding mutation on a reordered key fails with "permutation size
  // mismatch" (see README.md).
  const graph::ReorderMode mode = op.graph == kMutatedGraph
                                      ? graph::ReorderMode::kNone
                                      : graph::ReorderMode::kBfs;
  serve::Request req =
      serve::Request{}
          .with_graph(serve::GraphKey::files(files[2 * op.graph],
                                             files[2 * op.graph + 1])
                          .with_reorder(mode))
          .with_options(request_options(traced))
          .with_warm_start(op.kind != Kind::kCold);
  if (op.delta) req.with_delta(*op.delta);
  return req;
}

// Submits one op and waits for it; returns the latency and the response.
double submit(serve::Server& server, serve::Request req,
              serve::Response& resp) {
  const auto t0 = Clock::now();
  std::future<serve::Response> f = server.submit(std::move(req));
  resp = f.get();
  return seconds_since(t0);
}

// Primes every graph warm, then replays a mutation-free warm-up mix.
void prime(ServeInstance& in, const std::vector<std::string>& files,
           const std::vector<graph::FactorGraph>& graphs, std::size_t warmup,
           std::uint64_t seed, bool traced) {
  for (std::uint32_t gi = 0; gi < graphs.size(); ++gi) {
    Op op;
    op.kind = Kind::kWarm;
    op.graph = gi;
    serve::Response resp;
    (void)submit(*in.server, make_request(files, op, traced), resp);
    CREDO_CHECK_MSG(resp.ok(), "priming request failed");
  }
  std::vector<std::vector<Op>> ops;
  for (unsigned c = 0; c < kCallers; ++c) {
    ops.push_back(make_ops(graphs, warmup, seed * 131 + c + 17, false, 0));
  }
  closed_loop(kCallers, warmup, 1, [&](unsigned c, std::size_t i,
                                       std::size_t) {
    serve::Response resp;
    (void)submit(*in.server, make_request(files, ops[c][i], traced), resp);
  });
}

}  // namespace

WorkloadResult run_serve_churn(const RunConfig& cfg, SpanRecorder& spans) {
  const bool full = cfg.scale == Scale::kFull;
  const auto files = input_files(cfg.workload, cfg.data_dir);
  // In-memory copies of the served graphs: op generation needs node ids and
  // evidence, and the reference check needs the graphs themselves.
  const auto graphs = make_serve_graphs(cfg.scale);
  const std::size_t per_caller =
      full ? static_cast<std::size_t>(cfg.seconds * kRequestsPerSecond) /
                 kCallers
           : 60;
  const std::size_t warmup = full ? 50 : 10;
  // A traced run alternates blocks between an untraced and a traced server.
  const std::size_t blocks = cfg.trace ? 6 : (full ? 10 : 2);
  const std::size_t samples_per_caller = full ? 12 : 3;

  std::vector<std::vector<Op>> ops;
  for (unsigned c = 0; c < kCallers; ++c) {
    ops.push_back(make_ops(graphs, per_caller, cfg.seed * 1000003 + c, true,
                           samples_per_caller));
  }

  WorkloadResult r;
  const auto t0 = Clock::now();
  const std::unique_ptr<ServeInstance> plain_ptr = start_server(0);
  prime(*plain_ptr, files, graphs, warmup, cfg.seed, false);
  r.setup_s = seconds_since(t0);
  if (cfg.setup_only) return r;

  // c-node references of the read-only graphs without a delta. Every cold
  // and warm response on them is compared with its graph's reference in
  // the caller, after the op's clock stops.
  const auto engine = bp::make_default_engine(bp::EngineKind::kCpuNode);
  std::vector<std::vector<float>> reference(graphs.size());
  for (std::uint32_t gi = 0; gi < graphs.size(); ++gi) {
    if (gi == kMutatedGraph) continue;
    reference[gi] =
        compact(engine->run(graphs[gi], request_options(false)).beliefs);
  }

  ServeInstance& plain = *plain_ptr;
  std::unique_ptr<ServeInstance> traced_ptr;
  if (cfg.trace) {
    traced_ptr =
        start_server(kCallers * (per_caller + warmup) + graphs.size() + 64);
    prime(*traced_ptr, files, graphs, warmup, cfg.seed, true);
  }
  ServeInstance& traced = cfg.trace ? *traced_ptr : plain;
  const auto before = plain.server->stats();
  const auto before_traced = traced.server->stats();

  std::vector<std::vector<Outcome>> out(kCallers,
                                        std::vector<Outcome>(per_caller));
  std::vector<std::vector<Sample>> kept(kCallers);
  std::vector<std::vector<std::string>> errors(kCallers);
  std::vector<std::size_t> compared(kCallers, 0);
  std::vector<double> worst(kCallers, 0.0);  // max-abs vs a reference
  const std::size_t base_nodes = graphs[kMutatedGraph].num_nodes();

  const std::vector<double> walls =
      closed_loop(kCallers, per_caller, blocks, [&](unsigned c, std::size_t i,
                                                    std::size_t b) {
        Op& op = ops[c][i];
        Outcome& o = out[c][i];
        o.traced = cfg.trace && b % 2 == 1;
        ServeInstance& in = o.traced ? traced : plain;
        serve::Response resp;
        serve::Request req = make_request(files, op, o.traced);
        const auto t0 = Clock::now();
        o.latency_s = submit(*in.server, std::move(req), resp);
        if (o.traced) {
          spans.record("serve.Server::submit", t0, Clock::now(), 0,
                       c * per_caller + i + 1);
        }
        // Checks run outside the op's clock.
        const auto fail = [&](const std::string& why) {
          errors[c].push_back(std::string(kKindNames[int(op.kind)]) +
                              " op " + std::to_string(i) + " of caller " +
                              std::to_string(c) + " on graph " +
                              std::to_string(op.graph) + ": " + why);
        };
        o.ok = resp.ok() && resp.result.stats.converged;
        if (!resp.ok()) {
          fail("status " + std::string(credo::util::status_code_name(
                               resp.status)) + " " + resp.error);
          return;
        }
        if (!resp.result.stats.converged) fail("did not converge");
        const auto& beliefs = resp.result.beliefs;
        const graph::FactorGraph& g = graphs[op.graph];
        // The mutated graph grows; its original nodes keep their evidence.
        std::span<const graph::BeliefVec> base(beliefs);
        if (op.graph == kMutatedGraph && beliefs.size() >= base_nodes) {
          base = base.first(base_nodes);
        }
        if (auto e = check_beliefs(g, base); !e.empty()) {
          fail(e);
          o.ok = false;
        }
        for (const auto& [v, state] : op.observed) {
          if (beliefs.size() <= v || beliefs[v].v[state] < 1.0f - 1e-3f) {
            fail("delta evidence on node " + std::to_string(v) + " not pinned");
            o.ok = false;
          }
        }
        if (op.graph != kMutatedGraph && !op.delta) {
          const double d = max_abs_diff(reference[op.graph], beliefs);
          worst[c] = std::max(worst[c], d);
          ++compared[c];
          if (!(d <= kReferenceTolerance)) {
            fail(check_against(reference[op.graph], beliefs,
                               kReferenceTolerance));
            o.ok = false;
          }
        }
        if (op.sample) {
          kept[c].push_back(Sample{op.graph, op.delta, compact(beliefs)});
        }
        o.cache_hit = resp.cache_hit;
        o.warm_start = resp.warm_start;
        o.frontier_fraction = resp.frontier_fraction;
        o.service_s = resp.service_seconds;
        o.span_id = resp.span_id;
        o.graph_version = resp.graph_version;
        o.stats = std::move(resp.result.stats);
      });

  // Collect end-to-end samples.
  for (std::size_t b = 0; b < blocks; ++b) {
    if (cfg.trace && b % 2 == 1) continue;  // traced blocks feed layers only
    const auto [lo, hi] = block_range(per_caller, blocks, b);
    std::vector<double> lat;
    for (unsigned c = 0; c < kCallers; ++c) {
      for (std::size_t i = lo; i < hi; ++i) lat.push_back(out[c][i].latency_s);
    }
    r.latency_s.insert(r.latency_s.end(), lat.begin(), lat.end());
    r.block_throughput.push_back(static_cast<double>(lat.size()) / walls[b]);
    r.block_latency_s.push_back(std::move(lat));
  }
  std::uint64_t plain_mutations = 0, max_version = 0, iterations = 0,
                updates = 0;
  std::uint64_t kind_counts[4] = {0, 0, 0, 0};
  for (unsigned c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < per_caller; ++i) {
      const Outcome& o = out[c][i];
      const Op& op = ops[c][i];
      ++r.attempted;
      if (!o.ok) ++r.failed;
      ++kind_counts[int(op.kind)];
      iterations += o.stats.iterations;
      updates += o.stats.elements_processed;
      if (o.traced || op.graph != kMutatedGraph) continue;
      plain_mutations += op.kind == Kind::kMutate;
      max_version = std::max(max_version, o.graph_version);
    }
    for (auto& e : errors[c]) r.check_errors.push_back(std::move(e));
  }
  // Every mutation must have landed exactly once on the untraced server.
  const std::uint64_t applied =
      plain.server->stats().mutations - before.mutations;
  if (applied != plain_mutations || max_version != plain_mutations) {
    r.check_errors.push_back(
        "graph 0 reached version " + std::to_string(max_version) + " after " +
        std::to_string(applied) + " of " + std::to_string(plain_mutations) +
        " mutations");
  }

  // Sampled deltas after the timed phase: a direct c-node run of the same
  // graph plus the op's evidence delta.
  std::size_t delta_checked = 0;
  double delta_worst = 0.0;
  for (unsigned c = 0; c < kCallers; ++c) {
    for (const Sample& s : kept[c]) {
      const bp::BpResult ref = engine->run(
          graph::with_delta(graphs[s.graph], *s.delta), request_options(false));
      const double d = max_abs_diff(s.beliefs, ref.beliefs);
      delta_worst = std::max(delta_worst, d);
      ++delta_checked;
      if (!(d <= kReferenceTolerance)) {
        r.check_errors.push_back("sampled delta: " +
                                 check_against(s.beliefs, ref.beliefs,
                                               kReferenceTolerance));
      }
    }
  }

  r.work = {
      {"work.requests", static_cast<double>(r.attempted), "count"},
      {"work.cold", static_cast<double>(kind_counts[0]), "count"},
      {"work.warm", static_cast<double>(kind_counts[1]), "count"},
      {"work.delta", static_cast<double>(kind_counts[2]), "count"},
      {"work.mutate", static_cast<double>(kind_counts[3]), "count"},
      {"work.mutations_applied", static_cast<double>(applied), "count"},
      {"work.iterations", static_cast<double>(iterations), "count"},
      {"work.updates", static_cast<double>(updates), "count"},
      {"check.cold_warm_vs_c_node", static_cast<double>(std::accumulate(
                                          compared.begin(), compared.end(),
                                          std::size_t{0})),
       "count"},
      {"check.cold_warm_max_abs", *std::max_element(worst.begin(), worst.end()),
       "prob"},
      {"check.delta_samples_vs_c_node", static_cast<double>(delta_checked),
       "count"},
      {"check.delta_max_abs", delta_worst, "prob"},
  };

  if (cfg.trace) {
    std::unordered_map<std::uint64_t, credo::obs::Span> by_id;
    for (auto& s : traced.log->snapshot()) by_id.emplace(s.id, std::move(s));
    std::vector<double> queue, parse, unpermute, other;
    EngineSamples runs;
    std::vector<double> kind_lat[4];
    double cache_hits = 0, warm_wanted = 0, warm_hits = 0, frontier_sum = 0,
           frontier_n = 0, traced_n = 0;
    std::uint64_t version = 0;
    for (unsigned c = 0; c < kCallers; ++c) {
      for (std::size_t i = 0; i < per_caller; ++i) {
        const Outcome& o = out[c][i];
        const Op& op = ops[c][i];
        (o.traced ? r.traced_latency_s : r.untraced_latency_s)
            .push_back(o.latency_s);
        if (!o.traced) continue;
        ++traced_n;
        kind_lat[int(op.kind)].push_back(o.latency_s);
        cache_hits += o.cache_hit;
        if (op.kind != Kind::kCold) {
          ++warm_wanted;
          warm_hits += o.warm_start;
        }
        if (op.delta) {
          frontier_sum += o.frontier_fraction;
          ++frontier_n;
        }
        if (op.graph == kMutatedGraph) {
          version = std::max(version, o.graph_version);
        }
        const auto it = by_id.find(o.span_id);
        if (it == by_id.end()) continue;
        const credo::obs::Span& sp = it->second;
        const double engine_run = sp.run_s + sp.unpermute_s;
        queue.push_back(sp.queue_s);
        parse.push_back(sp.parse_s);
        unpermute.push_back(sp.unpermute_s);
        other.push_back(o.service_s - sp.parse_s - engine_run);
        runs.add(o.stats, engine_run);
      }
    }
    const auto tstats = traced.server->stats();
    r.layers = runs.metrics();
    const std::vector<Metric> serve_rows = {
        {"serve.queue_s.p50", median(queue), "s"},
        {"serve.parse_s.p50", median(parse), "s"},
        {"serve.run_s.p50", median(runs.run_s), "s"},
        {"serve.unpermute_s.p50", median(unpermute), "s"},
        {"serve.other_s.p50", median(other), "s"},
        {"serve.cold.latency_p50_s", median(kind_lat[0]), "s"},
        {"serve.warm.latency_p50_s", median(kind_lat[1]), "s"},
        {"serve.delta.latency_p50_s", median(kind_lat[2]), "s"},
        {"serve.mutate.latency_p50_s", median(kind_lat[3]), "s"},
        {"serve.cache_hit_frac", cache_hits / std::max(1.0, traced_n), "ratio"},
        {"serve.warm_hit_frac", warm_hits / std::max(1.0, warm_wanted),
         "ratio"},
        {"serve.frontier_frac_mean", frontier_sum / std::max(1.0, frontier_n),
         "ratio"},
        {"serve.rejected",
         static_cast<double>(tstats.rejected - before_traced.rejected),
         "count"},
        {"serve.graph_version_final", static_cast<double>(version), "count"},
        {"obs.spans_dropped", static_cast<double>(traced.log->dropped()),
         "count"},
    };
    r.layers.insert(r.layers.end(), serve_rows.begin(), serve_rows.end());
    for (int k = 0; k < 4; ++k) {
      r.bench_rows.push_back(BenchRow{
          std::string("serve-churn ") + kKindNames[k], kind_lat[k], 0.0});
    }
    r.bench_rows.push_back(BenchRow{"serve-churn engine run", runs.run_s,
                                    median(runs.modelled_s)});
  }
  return r;
}

}  // namespace hostbench
