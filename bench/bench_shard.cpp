// Sharded BP execution (DESIGN.md §5i): modelled + wall clock for the
// partitioned ghost-exchange engine against the best single-team engines,
// to convergence, across graph sizes straddling the LLC.
//
// The matrix answers three questions:
//  * when sharding pays — graphs whose belief working set exceeds the LLC
//    (grid-2048x2048 at ~50 MB, social-1m at ~13 MB vs the modelled
//    7700HQ's 6 MB) against the §3.5 OpenMP sweep and the §5f bulk
//    residual engine at the same 8 threads;
//  * the shard-count sweet spot — sweeping S at fixed threads: too few
//    shards and a slice still misses (scattered charging, exchange on
//    top), enough and every parent touch turns cache-resident, too many
//    and the cost model's exchange term (bytes/shard_bw + ops*latency)
//    bends the curve back;
//  * honest negatives — LLC-resident graphs (grid-128x128, social-8k)
//    where a single team is already cache-resident, so sharding buys
//    nothing and pays exchange overhead plus staleness iterations.
//
// All engines share the update body and thresholds (queue bar 1e-6 as in
// bench_sched); graphs go through the §5d BFS locality pass first so the
// contiguous-range partitioner cuts bands, the intended §5i pipeline.
//
// `--smoke` (the CI configuration) shrinks the graphs and skips the perf
// gate: same code paths, no timing assumptions on shared runners.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "graph/reorder.h"
#include "util/timer.h"

using namespace credo;

namespace {

struct GraphCase {
  std::string name;
  bool large = false;  // belief working set exceeds the modelled LLC
  graph::FactorGraph g;
};

std::vector<GraphCase> make_cases(bool smoke) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  std::vector<GraphCase> cases;
  if (smoke) {
    cases.push_back({"grid-96x96", false, graph::grid(96, 96, cfg)});
    cases.push_back(
        {"social-4k", false, graph::preferential_attachment(4096, 4, cfg)});
  } else {
    // Larger-than-LLC pair: the paper-style image MRF and a heavy-tailed
    // social graph (the partitioner's worst case — hub ghosts everywhere).
    cases.push_back({"grid-2048x2048", true, graph::grid(2048, 2048, cfg)});
    cases.push_back({"social-1m", true,
                     graph::preferential_attachment(1u << 20, 4, cfg)});
    // LLC-resident pair: the honest negatives.
    cases.push_back({"grid-128x128", false, graph::grid(128, 128, cfg)});
    cases.push_back(
        {"social-8k", false, graph::preferential_attachment(8192, 4, cfg)});
  }
  // §5d locality pass: band partitions need neighborhoods on adjacent ids.
  for (auto& c : cases) {
    c.g = graph::reordered(c.g, graph::ReorderMode::kBfs);
  }
  return cases;
}

/// Run-to-convergence options shared by every cell (bench_sched's bar).
bp::BpOptions shard_options() {
  bp::BpOptions o = bench::paper_options();
  o.queue_threshold = 1e-6f;
  o.threads = 8;
  return o;
}

struct Row {
  std::string graph;
  std::string engine;
  std::string knob;  // "S=32" / "S=128 e=4" / "-"
  double modelled = 0.0;
  double exchange = 0.0;  // modelled exchange term
  double host = 0.0;
  std::uint64_t updates = 0;
  std::uint64_t exchange_bytes = 0;
  std::uint32_t iterations = 0;
  bool converged = false;
  double vs_best = 0.0;  // best single-team modelled / this row's modelled
};

Row run_cell(const GraphCase& c, bp::EngineKind kind,
             const bp::BpOptions& opts, const std::string& knob, int reps) {
  Row row;
  row.graph = c.name;
  row.engine = std::string(bp::engine_slug(kind));
  row.knob = knob;
  for (int r = 0; r < reps; ++r) {
    const util::Timer t;
    const auto result = bench::run_default(kind, c.g, opts);
    const double host = t.seconds();
    const double modelled = result.stats.time.total();
    if (r == 0 || modelled < row.modelled) {
      row.modelled = modelled;
      row.exchange = result.stats.time.exchange_s;
      row.host = host;
      row.updates = result.stats.elements_processed;
      row.exchange_bytes = result.stats.counters.shard_exchange_bytes;
      row.iterations = result.stats.iterations;
      row.converged = result.stats.converged;
    }
  }
  return row;
}

void write_json(const std::vector<Row>& rows, bool smoke) {
  std::ofstream out("BENCH_shard.json");
  out << "{\n  \"bench\": \"shard\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"graph\": \"" << r.graph << "\", \"engine\": \""
        << r.engine << "\", \"knob\": \"" << r.knob
        << "\", \"modelled_seconds\": " << r.modelled
        << ", \"exchange_seconds\": " << r.exchange
        << ", \"host_seconds\": " << r.host << ", \"updates\": " << r.updates
        << ", \"exchange_bytes\": " << r.exchange_bytes
        << ", \"iterations\": " << r.iterations << ", \"converged\": "
        << (r.converged ? "true" : "false")
        << ", \"speedup_vs_best_single_team\": " << r.vs_best << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  std::vector<Row> rows;
  util::Table table({"graph", "engine", "knob", "modelled s", "exchange s",
                     "host s", "updates", "iters", "conv", "vs 1-team"});

  const std::vector<unsigned> shard_sweep =
      smoke ? std::vector<unsigned>{4, 16}
            : std::vector<unsigned>{8, 32, 128, 512};

  for (const auto& c : make_cases(smoke)) {
    const int reps = (smoke || c.large) ? 1 : 2;

    // Partition quality context for the table's graph block.
    {
      const auto p = graph::Partition::contiguous(
          c.g, shard_sweep[shard_sweep.size() / 2]);
      std::cout << c.name << ": " << c.g.num_nodes() << " nodes, "
                << c.g.num_edges() << " edges; at " << p.shard_count()
                << " shards cut=" << bench::num(p.edge_cut_fraction(), 3)
                << " balance=" << bench::num(p.balance(), 3) << "\n";
    }

    // Single-team baselines at 8 threads: the §3.5 OpenMP sweep and the
    // §5f bulk residual engine.
    const auto base = shard_options();
    rows.push_back(run_cell(c, bp::EngineKind::kOmpNode, base, "-", reps));
    double best_single = rows.back().modelled;
    rows.push_back(
        run_cell(c, bp::EngineKind::kBulkResidual, base, "-", reps));
    best_single = std::min(best_single, rows.back().modelled);
    for (auto it = rows.end() - 2; it != rows.end(); ++it) {
      it->vs_best = best_single / it->modelled;
    }

    // Shard-count sweep at the same 8 threads, plus one slow-cadence cell
    // at the middle shard count (staleness vs traffic lever).
    for (const unsigned s : shard_sweep) {
      rows.push_back(run_cell(c, bp::EngineKind::kSharded,
                              bp::BpOptions(base).with_shards(s),
                              "S=" + std::to_string(s), reps));
      rows.back().vs_best = best_single / rows.back().modelled;
    }
    const unsigned mid = shard_sweep[shard_sweep.size() / 2];
    rows.push_back(run_cell(c, bp::EngineKind::kSharded,
                            bp::BpOptions(base).with_shards(mid, 4),
                            "S=" + std::to_string(mid) + " e=4", reps));
    rows.back().vs_best = best_single / rows.back().modelled;
  }

  for (const Row& r : rows) {
    table.add_row({r.graph, r.engine, r.knob, bench::num(r.modelled),
                   bench::num(r.exchange), bench::num(r.host),
                   std::to_string(r.updates), std::to_string(r.iterations),
                   r.converged ? "yes" : "no",
                   r.vs_best > 0.0 ? bench::num(r.vs_best, 3) : "-"});
  }
  bench::emit(table, "shard",
              "§5i — sharded BP vs best single-team engine at 8 threads "
              "(modelled + wall clock)");
  write_json(rows, smoke);
  std::cout << "(json: BENCH_shard.json)\n";

  if (smoke) return 0;

  // Gates: (1) on each larger-than-LLC graph the best sharded cell must
  // beat the best single-team engine by >= 1.5x modelled; (2) on the
  // LLC-resident graphs sharding must NOT win — if it does, the near
  // charging is crediting residency a single team already had; (3) every
  // full-mode cell converged.
  bool all_converged = true;
  bool large_ok = true, small_honest = true;
  for (const std::string big : {"grid-2048x2048", "social-1m"}) {
    double best_sharded = 0.0;
    for (const Row& r : rows) {
      if (r.graph != big || r.engine != "sharded") continue;
      if (best_sharded == 0.0 || r.vs_best > best_sharded) {
        best_sharded = r.vs_best;
      }
    }
    std::cout << big << ": best sharded speedup vs single team = "
              << bench::num(best_sharded, 3) << "x (>= 1.5)\n";
    if (best_sharded < 1.5) large_ok = false;
  }
  for (const std::string small : {"grid-128x128", "social-8k"}) {
    for (const Row& r : rows) {
      if (r.graph != small || r.engine != "sharded") continue;
      if (r.vs_best > 1.0) small_honest = false;
    }
  }
  for (const Row& r : rows) {
    if (!r.converged) all_converged = false;
  }
  std::cout << "small graphs stay negative: " << (small_honest ? "yes" : "no")
            << ", all converged: " << (all_converged ? "yes" : "no") << "\n";
  return (large_ok && small_honest && all_converged) ? 0 : 1;
}
