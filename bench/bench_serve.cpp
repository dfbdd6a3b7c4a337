// Serve-layer scale (DESIGN.md §5h): measured end-to-end through the
// public Server API, three questions:
//
//  * warm-starting — repeat requests for a graph the server has already
//    converged start from the retained fixed point; cold vs warm service
//    latency percentiles (same graph, same engine, same options);
//  * evidence deltas — a re-query that only perturbs k nodes seeds the
//    schedule from the touched region; service time and frontier fraction
//    across a delta-size sweep, against a cold full run on the delta'd
//    graph. Large deltas are the honest negative: once the expanded
//    frontier covers most of the graph the incremental path converges to
//    the cold one. A second sweep on a 1024x1024 grid served through
//    omp-node shows the payoff growing with graph size;
//  * batched fusion — the §5h decode-under-load stress at batch sizes
//    {1, 4, 16, 64}: many tiny LDPC decodes fused into disjoint-union
//    super-graphs, throughput vs the unbatched replay.
//
// Timings are per-request service seconds stamped by the server (queue
// wait excluded), best-of / percentile over repetitions. `--smoke` (the CI
// configuration) shrinks everything, skips the perf gates, and instead
// asserts the warm path actually engaged (non-zero warm hits) — same code
// paths, no timing assumptions on shared runners.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "io/mtx_belief.h"
#include "serve/server.h"
#include "serve/stress.h"

using namespace credo;

namespace {

serve::ServerOptions bench_server(unsigned workers) {
  serve::ServerOptions o;
  o.workers = workers;
  o.use_dispatcher = false;  // engine is pinned per request below
  o.queue_capacity = 1024;
  return o;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct WarmResult {
  double cold_p50 = 0.0, cold_p90 = 0.0;
  double warm_p50 = 0.0, warm_p90 = 0.0;
  double speedup = 0.0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_iters = 0, cold_iters = 0;
};

struct DeltaRow {
  std::size_t size = 0;
  double frontier_fraction = 1.0;
  double warm_s = 0.0;
  double cold_s = 0.0;
  double speedup = 0.0;
};

struct BatchRow {
  std::size_t batch = 0;
  double throughput_rps = 0.0;
  double speedup = 0.0;
};

void write_json(const WarmResult& w, const std::vector<DeltaRow>& deltas,
                const std::vector<DeltaRow>& large_deltas,
                const std::vector<BatchRow>& batches, bool smoke) {
  std::ofstream out("BENCH_serve.json");
  out << "{\n  \"bench\": \"serve\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n";
  out << "  \"warm\": {\"cold_p50_s\": " << w.cold_p50 << ", \"cold_p90_s\": "
      << w.cold_p90 << ", \"warm_p50_s\": " << w.warm_p50
      << ", \"warm_p90_s\": " << w.warm_p90 << ", \"speedup_p50\": "
      << w.speedup << ", \"warm_hits\": " << w.warm_hits
      << ", \"cold_iterations\": " << w.cold_iters
      << ", \"warm_iterations\": " << w.warm_iters << "},\n";
  out << "  \"delta_sweep\": [\n";
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const DeltaRow& d = deltas[i];
    out << "    {\"touched\": " << d.size << ", \"frontier_fraction\": "
        << d.frontier_fraction << ", \"warm_s\": " << d.warm_s
        << ", \"cold_s\": " << d.cold_s << ", \"speedup\": " << d.speedup
        << "}" << (i + 1 < deltas.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"large_delta_sweep\": [\n";
  for (std::size_t i = 0; i < large_deltas.size(); ++i) {
    const DeltaRow& d = large_deltas[i];
    out << "    {\"touched\": " << d.size << ", \"frontier_fraction\": "
        << d.frontier_fraction << ", \"warm_s\": " << d.warm_s
        << ", \"cold_s\": " << d.cold_s << ", \"speedup\": " << d.speedup
        << "}" << (i + 1 < large_deltas.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"batch_sweep\": [\n";
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const BatchRow& b = batches[i];
    out << "    {\"batch\": " << b.batch << ", \"throughput_rps\": "
        << b.throughput_rps << ", \"speedup_vs_unbatched\": " << b.speedup
        << "}" << (i + 1 < batches.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  namespace fs = std::filesystem;

  // The warm side-table is keyed by the GraphCache entry, so the graph
  // must be file-backed: write the MRF once, serve it many times.
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.observed_fraction = 0.1;
  cfg.seed = 7;
  const unsigned side = smoke ? 32 : 128;
  const graph::FactorGraph g = graph::grid(side, side, cfg);
  const fs::path dir = fs::temp_directory_path();
  const std::string nodes = (dir / "credo_bench_serve_nodes.mtx").string();
  const std::string edges = (dir / "credo_bench_serve_edges.mtx").string();
  io::write_mtx_belief(g, nodes, edges);
  const auto parsed = io::read_mtx_belief(nodes, edges);

  const auto opts = bench::paper_options();
  const auto base_req = [&] {
    return serve::Request{}
        .with_files(nodes, edges)
        .with_options(opts)
        .with_engine(bp::EngineKind::kCpuNode)
        .with_warm_start();
  };

  // -- Warm vs cold repeat latency ----------------------------------------
  // Cold samples need an empty warm table, so each repetition uses a fresh
  // server; warm samples are the repeats that follow the first converged
  // run on the same server.
  const int reps = smoke ? 2 : 8;
  const int warm_per_rep = 3;
  WarmResult warm;
  {
    std::vector<double> cold_s, warm_s;
    for (int r = 0; r < reps; ++r) {
      serve::Server server(bench_server(1));
      const serve::Response cold = server.submit(base_req()).get();
      CREDO_CHECK_MSG(cold.ok() && !cold.warm_start, "cold run must be cold");
      cold_s.push_back(cold.service_seconds);
      warm.cold_iters = cold.result.stats.iterations;
      for (int i = 0; i < warm_per_rep; ++i) {
        const serve::Response resp = server.submit(base_req()).get();
        CREDO_CHECK_MSG(resp.ok() && resp.warm_start,
                        "repeat run must warm-start");
        warm_s.push_back(resp.service_seconds);
        warm.warm_iters = resp.result.stats.iterations;
      }
      warm.warm_hits += server.stats().cache.warm_hits;
      server.shutdown();
    }
    warm.cold_p50 = percentile(cold_s, 0.5);
    warm.cold_p90 = percentile(cold_s, 0.9);
    warm.warm_p50 = percentile(warm_s, 0.5);
    warm.warm_p90 = percentile(warm_s, 0.9);
    warm.speedup = warm.warm_p50 > 0.0 ? warm.cold_p50 / warm.warm_p50 : 0.0;
  }

  // -- Evidence-delta sweep -----------------------------------------------
  // Each delta nudges `size` unobserved priors. Warm sample: a primed
  // server re-queried with the delta (frontier-seeded re-convergence).
  // Cold sample: a fresh server given the same delta request — no warm
  // state, honest full run on the delta'd graph.
  std::vector<graph::NodeId> unobserved;
  for (graph::NodeId v = 0; v < parsed.num_nodes(); ++v) {
    if (!parsed.observed(v)) unobserved.push_back(v);
  }
  graph::BeliefVec nudged = graph::BeliefVec::uniform(2);
  nudged.v[0] = 0.8f;
  nudged.v[1] = 0.2f;
  std::vector<DeltaRow> deltas;
  const std::vector<std::size_t> sweep =
      smoke ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 8, 64, 512};
  for (const std::size_t size : sweep) {
    CREDO_CHECK_MSG(size <= unobserved.size(), "delta larger than graph");
    graph::GraphDelta delta;
    // Spread the touched nodes across the grid rather than one corner.
    const std::size_t stride = unobserved.size() / size;
    for (std::size_t i = 0; i < size; ++i) {
      delta.set_prior(unobserved[i * stride], nudged);
    }
    DeltaRow row;
    row.size = size;
    const int drep = smoke ? 1 : 3;
    for (int r = 0; r < drep; ++r) {
      serve::Server primed(bench_server(1));
      const serve::Response seed = primed.submit(base_req()).get();
      CREDO_CHECK_MSG(seed.ok(), "priming run failed");
      const serve::Response w = primed.submit(base_req().with_delta(delta)).get();
      CREDO_CHECK_MSG(w.ok() && w.warm_start, "delta run must warm-start");
      primed.shutdown();

      serve::Server fresh(bench_server(1));
      const serve::Response c =
          fresh.submit(base_req().with_delta(delta)).get();
      CREDO_CHECK_MSG(c.ok() && !c.warm_start, "fresh delta run must be cold");
      fresh.shutdown();

      if (r == 0 || w.service_seconds < row.warm_s) {
        row.warm_s = w.service_seconds;
        row.frontier_fraction = w.frontier_fraction;
      }
      if (r == 0 || c.service_seconds < row.cold_s) {
        row.cold_s = c.service_seconds;
      }
    }
    row.speedup = row.warm_s > 0.0 ? row.cold_s / row.warm_s : 0.0;
    deltas.push_back(row);
  }

  // -- Large-graph evidence delta -----------------------------------------
  // The frontier-narrowing payoff grows with graph size: on a 1024x1024
  // grid a handful of touched nodes seeds a frontier that is a vanishing
  // fraction of the node set, while the cold comparison pays a full
  // convergence. Served through omp-node — the request routes through the
  // shared-pool path and the seed starts its §3.5 frontier.
  std::vector<DeltaRow> large_deltas;
  {
    const unsigned lside = smoke ? 128 : 1024;
    const graph::FactorGraph lg = graph::grid(lside, lside, cfg);
    const std::string lnodes =
        (dir / "credo_bench_serve_large_nodes.mtx").string();
    const std::string ledges =
        (dir / "credo_bench_serve_large_edges.mtx").string();
    io::write_mtx_belief(lg, lnodes, ledges);
    const auto large_req = [&] {
      return serve::Request{}
          .with_files(lnodes, ledges)
          .with_options(opts)
          .with_engine(bp::EngineKind::kOmpNode)
          .with_warm_start();
    };
    std::vector<graph::NodeId> lfree;
    for (graph::NodeId v = 0; v < lg.num_nodes(); ++v) {
      if (!lg.observed(v)) lfree.push_back(v);
    }
    const std::vector<std::size_t> lsweep =
        smoke ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 64};
    for (const std::size_t size : lsweep) {
      graph::GraphDelta delta;
      const std::size_t stride = lfree.size() / size;
      for (std::size_t i = 0; i < size; ++i) {
        delta.set_prior(lfree[i * stride], nudged);
      }
      DeltaRow row;
      row.size = size;
      serve::Server primed(bench_server(1));
      const serve::Response seed = primed.submit(large_req()).get();
      CREDO_CHECK_MSG(seed.ok(), "large priming run failed");
      const serve::Response w =
          primed.submit(large_req().with_delta(delta)).get();
      CREDO_CHECK_MSG(w.ok() && w.warm_start, "large delta must warm-start");
      primed.shutdown();
      row.warm_s = w.service_seconds;
      row.frontier_fraction = w.frontier_fraction;

      serve::Server fresh(bench_server(1));
      const serve::Response c =
          fresh.submit(large_req().with_delta(delta)).get();
      CREDO_CHECK_MSG(c.ok() && !c.warm_start, "large fresh delta must be cold");
      fresh.shutdown();
      row.cold_s = c.service_seconds;
      row.speedup = row.warm_s > 0.0 ? row.cold_s / row.warm_s : 0.0;
      large_deltas.push_back(row);
    }
    std::error_code lec;
    fs::remove(lnodes, lec);
    fs::remove(ledges, lec);
  }

  // -- Batched fusion throughput ------------------------------------------
  // Decode-under-load at increasing batch sizes; batch <= 1 is the
  // unbatched baseline replay of the same request stream.
  std::vector<BatchRow> batches;
  const std::vector<std::size_t> batch_sweep =
      smoke ? std::vector<std::size_t>{1, 16}
            : std::vector<std::size_t>{1, 4, 16, 64};
  for (const std::size_t b : batch_sweep) {
    serve::Server server(bench_server(2));
    serve::DecodeLoadConfig dl;
    // Tiny codes on purpose: the scenario is admission-bound — many small
    // decodes whose fixed per-request cost (queue slot, fetch, engine
    // spawn) dwarfs the run itself. That fixed cost is what fusion
    // amortizes; big codes shift the bottleneck back to the engine.
    dl.codes = smoke ? 4 : 8;
    dl.bits = 24;
    dl.requests = smoke ? 64 : 512;
    dl.sessions = 8;
    dl.batch = b;
    const serve::StressReport report = serve::run_decode_under_load(server, dl);
    server.shutdown();
    BatchRow row;
    row.batch = b;
    row.throughput_rps = report.throughput_rps;
    batches.push_back(row);
  }
  for (BatchRow& row : batches) {
    row.speedup = batches.front().throughput_rps > 0.0
                      ? row.throughput_rps / batches.front().throughput_rps
                      : 0.0;
  }

  // -- Report -------------------------------------------------------------
  util::Table table({"section", "case", "warm/fused s", "cold/base s",
                     "frontier", "speedup"});
  table.add_row({"warm", "repeat p50", bench::num(warm.warm_p50),
                 bench::num(warm.cold_p50), "-", bench::num(warm.speedup, 3)});
  table.add_row({"warm", "repeat p90", bench::num(warm.warm_p90),
                 bench::num(warm.cold_p90), "-", "-"});
  for (const DeltaRow& d : deltas) {
    table.add_row({"delta", "touched=" + std::to_string(d.size),
                   bench::num(d.warm_s), bench::num(d.cold_s),
                   bench::num(d.frontier_fraction, 3),
                   bench::num(d.speedup, 3)});
  }
  for (const DeltaRow& d : large_deltas) {
    table.add_row({"delta-large", "touched=" + std::to_string(d.size),
                   bench::num(d.warm_s), bench::num(d.cold_s),
                   bench::num(d.frontier_fraction, 4),
                   bench::num(d.speedup, 3)});
  }
  for (const BatchRow& b : batches) {
    table.add_row({"batch", "B=" + std::to_string(b.batch),
                   bench::num(b.throughput_rps, 1) + " rps", "-", "-",
                   bench::num(b.speedup, 3)});
  }
  bench::emit(table, "serve",
              "§5h — warm starts, evidence deltas, batched fusion (service "
              "seconds through the Server API)");
  write_json(warm, deltas, large_deltas, batches, smoke);
  std::cout << "(json: BENCH_serve.json)\n";

  std::error_code ec;
  fs::remove(nodes, ec);
  fs::remove(edges, ec);

  if (smoke) {
    // CI gate: the warm path must actually engage — counters, not timing.
    if (warm.warm_hits == 0) {
      std::cout << "SMOKE FAIL: no warm hits recorded\n";
      return 1;
    }
    std::cout << "smoke ok: warm_hits=" << warm.warm_hits << "\n";
    return 0;
  }

  // Gates: warm repeats >= 3x over cold at p50; fused batch-16 decode
  // throughput >= 2x over the unbatched replay; the single-node delta on
  // the 1024x1024 grid must narrow the frontier enough to beat its cold
  // run by >= 2x (the large-graph payoff the sweep exists to show).
  double batch16 = 0.0;
  for (const BatchRow& b : batches) {
    if (b.batch == 16) batch16 = b.speedup;
  }
  double large1 = 0.0;
  for (const DeltaRow& d : large_deltas) {
    if (d.size == 1) large1 = d.speedup;
  }
  std::cout << "gates: warm p50 speedup = " << bench::num(warm.speedup, 3)
            << "x (>= 3), batch-16 throughput = " << bench::num(batch16, 3)
            << "x (>= 2), large-grid delta-1 = " << bench::num(large1, 3)
            << "x (>= 2)\n";
  return (warm.speedup >= 3.0 && batch16 >= 2.0 && large1 >= 2.0) ? 0 : 1;
}
