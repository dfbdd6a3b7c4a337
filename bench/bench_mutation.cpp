// Dynamic-graph churn (DESIGN.md §5j): incremental re-convergence vs full
// rebuild, measured at the engine layer on the paper's shared-matrix grid
// shape (§2.2).
//
// A churn stream mutates a grid MRF through GraphDelta batches — fresh
// nodes wired to existing targets, rewires, edge retirements, prior
// nudges — at a fixed touched-fraction per batch. Two ways to answer the
// same re-query:
//
//  * incremental — DynamicGraph::apply + snapshot, previous fixed point
//    patched in (patch_beliefs), schedule seeded from last_touched();
//    timed end-to-end including the apply and snapshot costs;
//  * rebuild — reconstruct the mutated graph from scratch through
//    GraphBuilder and run cold on it, the §5h baseline a server without
//    the mutation API would pay.
//
// The touched-fraction sweep shows where incremental pays: at <= 1%
// touched the frontier stays narrow and the seeded run beats the rebuild
// by >3x; the flood rows (25% / 100% touched) are the honest negatives —
// once the expanded frontier covers the graph, the incremental path drops
// under 1x and the table says so. Every <= 1% cell gates on L-inf between
// the incremental and rebuilt fixed points staying under the convergence
// threshold: the speedup must not buy a different answer. The model sits
// in the contractive regime (weak coupling plus evidence pinning) where
// the fixed point is unique, so the comparison is well-posed; the flood
// rows' L-inf is reported ungated since per-update stopping leaves both
// paths short of the exact fixed point along slow modes.
//
// `--smoke` (the CI configuration) shrinks the grid and sweeps, skips the
// timing gates, and asserts structure instead: the frontier actually
// engaged, the incremental run visited fewer elements than the rebuild,
// and L-inf held. Same code paths, no timing assumptions on shared runners.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <vector>

#include "common.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/dynamic.h"
#include "graph/generators.h"
#include "util/timer.h"

using namespace credo;

namespace {

/// splitmix64 — deterministic churn targets.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The rebuild baseline: reconstruct the mutated topology from scratch the
/// way a parser or generator would, paying builder + CSR finalize costs.
graph::FactorGraph rebuild_from(const graph::FactorGraph& snap) {
  graph::GraphBuilder b;
  const bool shared = snap.joints().is_shared();
  if (shared) b.use_shared_joint(snap.joints().shared_matrix());
  b.reserve(snap.num_nodes(), snap.num_edges());
  for (graph::NodeId v = 0; v < snap.num_nodes(); ++v) {
    b.add_node(snap.prior(v));
    if (snap.observed(v)) {
      const graph::BeliefVec& p = snap.prior(v);
      std::uint32_t s = 0;
      for (std::uint32_t k = 1; k < p.size; ++k) {
        if (p[k] > p[s]) s = k;
      }
      b.observe(v, s);
    }
  }
  for (graph::EdgeId e = 0; e < snap.num_edges(); ++e) {
    const graph::DirectedEdge& de = snap.edge(e);
    if (shared) {
      b.add_edge(de.src, de.dst);
    } else {
      b.add_edge(de.src, de.dst, snap.joints().at(e));
    }
  }
  return b.finalize();
}

float linf_diff(const std::vector<graph::BeliefVec>& a,
                const std::vector<graph::BeliefVec>& b) {
  float m = 0.0f;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint32_t s = 0; s < a[v].size && s < b[v].size; ++s) {
      m = std::max(m, std::abs(a[v][s] - b[v][s]));
    }
  }
  return m;
}

struct Cell {
  std::string engine;
  double touched_fraction = 0.0;
  std::size_t touched_per_batch = 0;
  int batches = 0;
  double incremental_s = 0.0;
  double rebuild_s = 0.0;
  double speedup = 0.0;
  double frontier_fraction = 0.0;  // mean over batches
  float linf = 0.0f;               // max over batches
  std::uint64_t incremental_elements = 0;
  std::uint64_t rebuild_elements = 0;
};

/// Runs one churn cell: `batches` delta batches at `frac` touched fraction
/// against a fresh DynamicGraph over `base`, comparing the incremental and
/// rebuild paths per batch.
Cell run_cell(const graph::FactorGraph& base, bp::EngineKind kind,
              double frac, int batches, const bp::BpOptions& opts,
              std::uint64_t seed) {
  Cell cell;
  cell.engine = std::string(bp::engine_slug(kind));
  cell.touched_fraction = frac;
  cell.batches = batches;

  auto dyn = graph::DynamicGraph::from_graph(base);
  const auto engine = bp::make_default_engine(kind);
  auto prev = engine->run(*dyn.snapshot(), opts).beliefs;  // priming, untimed

  const std::size_t budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(frac * static_cast<double>(base.num_nodes())));
  cell.touched_per_batch = budget;

  // Rewire edges retire two batches after they appear.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> rewires;

  for (int b = 0; b < batches; ++b) {
    graph::GraphDelta d;
    std::size_t spent = 0;
    const std::uint64_t salt = seed + static_cast<std::uint64_t>(b) * 7919;

    // One fresh node per batch, wired to a pseudo-random existing target.
    const auto target = static_cast<graph::NodeId>(
        mix64(salt) % base.num_nodes());
    d.add_node(graph::BeliefVec::uniform(base.arity(target)));
    d.add_edge(graph::GraphDelta::new_node(0), target);
    spent += 2;

    // One rewire between existing nodes when the budget allows.
    if (spent + 2 <= budget) {
      const auto u = static_cast<graph::NodeId>(
          mix64(salt + 1) % base.num_nodes());
      const auto v = static_cast<graph::NodeId>(
          mix64(salt + 2) % base.num_nodes());
      if (u != v && !dyn.has_edge(u, v) && base.arity(u) == base.arity(v)) {
        d.add_edge(u, v);
        rewires.emplace_back(u, v);
        spent += 2;
      }
    }
    if (rewires.size() > 2 && spent + 2 <= budget) {
      const auto [u, v] = rewires.front();
      rewires.erase(rewires.begin());
      if (dyn.has_edge(u, v)) {
        d.remove_edge(u, v);
        spent += 2;
      }
    }

    // The rest of the budget nudges unobserved priors.
    std::set<graph::NodeId> nudged;
    for (std::uint64_t probe = 0; spent < budget && probe < budget * 4;
         ++probe) {
      const auto v = static_cast<graph::NodeId>(
          mix64(salt + 100 + probe) % base.num_nodes());
      if (dyn.observed(v) || dyn.removed(v) || nudged.count(v)) continue;
      graph::BeliefVec p = graph::BeliefVec::uniform(base.arity(v));
      p[static_cast<std::uint32_t>(probe % p.size)] = 1.6f;
      graph::normalize(p);
      d.set_prior(v, p);
      nudged.insert(v);
      ++spent;
    }

    // Incremental path: apply + snapshot + seeded warm run, all timed.
    const util::Timer inc_t;
    const util::Status st = dyn.apply(d);
    CREDO_CHECK_MSG(st.is_ok(), "churn delta rejected: " + st.message());
    const auto snap = dyn.snapshot();
    auto ropts = opts;
    ropts
        .with_init_beliefs(std::make_shared<const std::vector<graph::BeliefVec>>(
            dyn.patch_beliefs(prev)))
        .with_frontier_seed(std::make_shared<const std::vector<graph::NodeId>>(
            dyn.last_touched()));
    const auto inc = engine->run(*snap, ropts);
    cell.incremental_s += inc_t.seconds();
    cell.incremental_elements += inc.stats.elements_processed;
    cell.frontier_fraction +=
        static_cast<double>(inc.stats.frontier_seeded) /
        static_cast<double>(dyn.num_nodes());

    // Rebuild baseline: from-scratch construction + cold run.
    const util::Timer cold_t;
    const graph::FactorGraph rebuilt = rebuild_from(*snap);
    const auto cold = engine->run(rebuilt, opts);
    cell.rebuild_s += cold_t.seconds();
    cell.rebuild_elements += cold.stats.elements_processed;

    cell.linf = std::max(cell.linf, linf_diff(inc.beliefs, cold.beliefs));
    prev = inc.beliefs;
  }
  cell.frontier_fraction /= batches;
  cell.speedup =
      cell.incremental_s > 0.0 ? cell.rebuild_s / cell.incremental_s : 0.0;
  return cell;
}

void write_json(const std::vector<Cell>& cells, unsigned side, bool smoke) {
  std::ofstream out("BENCH_mutation.json");
  out << "{\n  \"bench\": \"mutation\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"grid_side\": " << side
      << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"engine\": \"" << c.engine << "\", \"touched_fraction\": "
        << c.touched_fraction << ", \"touched_per_batch\": "
        << c.touched_per_batch << ", \"batches\": " << c.batches
        << ", \"incremental_s\": " << c.incremental_s << ", \"rebuild_s\": "
        << c.rebuild_s << ", \"speedup\": " << c.speedup
        << ", \"frontier_fraction\": " << c.frontier_fraction
        << ", \"linf\": " << c.linf << ", \"incremental_elements\": "
        << c.incremental_elements << ", \"rebuild_elements\": "
        << c.rebuild_elements << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  // Contractive regime: weak coupling plus 20% evidence gives loopy BP a
  // unique fixed point, so "incremental answer == rebuild answer" is a
  // meaningful gate rather than a coin flip between basins.
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.observed_fraction = 0.1;
  cfg.coupling = 0.55f;
  cfg.seed = 7;
  const unsigned side = smoke ? 64 : 512;
  const graph::FactorGraph g = graph::grid(side, side, cfg);
  const auto opts = bench::paper_options();
  const float gate = opts.convergence_threshold;

  const int batches = smoke ? 3 : 4;
  std::vector<Cell> cells;

  // Touched-fraction sweep on the sequential frontier engine; the last two
  // fractions are the flood rows (honest negatives).
  const std::vector<double> sweep =
      smoke ? std::vector<double>{0.001, 1.0}
            : std::vector<double>{0.0001, 0.001, 0.01, 0.25, 1.0};
  for (const double frac : sweep) {
    cells.push_back(run_cell(g, bp::EngineKind::kCpuNode, frac,
                             frac >= 0.25 ? 2 : batches, opts, 1234));
  }

  // Paradigm cell at 1% touched: bulk residual rounds take the same
  // frontier seed.
  cells.push_back(run_cell(g, bp::EngineKind::kBulkResidual, 0.01,
                           smoke ? 2 : batches, opts, 99));

  // -- Report -------------------------------------------------------------
  util::Table table({"engine", "touched", "inc s", "rebuild s", "frontier",
                     "L-inf", "speedup"});
  for (const Cell& c : cells) {
    table.add_row({c.engine, bench::num(c.touched_fraction, 4),
                   bench::num(c.incremental_s), bench::num(c.rebuild_s),
                   bench::num(c.frontier_fraction, 4),
                   bench::num(c.linf, 6), bench::num(c.speedup, 3)});
  }
  bench::emit(table, "mutation",
              "§5j — incremental re-convergence vs full rebuild over a "
              "churn stream (apply+snapshot+run vs rebuild+cold run)");
  write_json(cells, side, smoke);
  std::cout << "(json: BENCH_mutation.json)\n";

  // Correctness gate in both modes: wherever the incremental path claims a
  // win (touched <= 1%), its fixed point must match the rebuilt one under
  // the convergence threshold. The flood rows sit on near-critical slow
  // modes where per-update stopping leaves both paths short of the exact
  // fixed point by different amounts; their L-inf is reported, not gated —
  // they exist to show the speedup going under 1x, not to claim accuracy.
  for (const Cell& c : cells) {
    if (c.touched_fraction <= 0.01 && c.linf > gate) {
      std::cout << "FAIL: " << c.engine << " touched="
                << c.touched_fraction << " L-inf " << c.linf
                << " exceeds threshold " << gate
                << "\n";
      return 1;
    }
  }

  if (smoke) {
    // Counter gates only — structure, not timing.
    const Cell& small = cells.front();  // 0.001 touched
    if (!(small.frontier_fraction > 0.0 && small.frontier_fraction < 0.5)) {
      std::cout << "SMOKE FAIL: frontier did not engage (fraction="
                << small.frontier_fraction << ")\n";
      return 1;
    }
    if (small.incremental_elements * 2 >= small.rebuild_elements) {
      std::cout << "SMOKE FAIL: incremental visited "
                << small.incremental_elements << " elements vs rebuild "
                << small.rebuild_elements << " (expected < half)\n";
      return 1;
    }
    std::cout << "smoke ok: frontier=" << bench::num(small.frontier_fraction, 4)
              << " inc_elems=" << small.incremental_elements << " rebuild_elems="
              << small.rebuild_elements << "\n";
    return 0;
  }

  // Timing gate: the incremental path must beat the rebuild by >= 3x on
  // the sequential engine somewhere in the <= 1% touched regime. The
  // boundary 1% cell itself sits lower (its frontier already covers ~5% of
  // the graph after expansion) — reported, not gated.
  double best = 0.0;
  for (const Cell& c : cells) {
    if (c.engine == "c-node" && c.touched_fraction <= 0.01) {
      best = std::max(best, c.speedup);
    }
  }
  std::cout << "gates: best c-node speedup at <= 1% touched = "
            << bench::num(best, 3) << "x (>= 3), L-inf under " << gate
            << " on every <= 1% cell\n";
  return best >= 3.0 ? 0 : 1;
}
