// Residual scheduling (DESIGN.md §5f): modelled + wall clock for residual
// BP to convergence over the generator suite — the exact sequential
// residual engine, its parallel bulk-round form at 1/2/4/8 threads, and
// the c-node / omp-node sweeps as context.
//
// The matrix answers two questions:
//  * scaling — bulk-residual's host and modelled time per thread count;
//  * efficiency — updates-to-convergence versus the exact sequential
//    residual engine (bulk rounds must not degrade the schedule into a
//    glorified sweep), and the fixed point reached (max per-node L1 to
//    the exact engine's beliefs).
//
// All engines share the same update body and thresholds; only the
// scheduler differs. The queue bar sits at 1e-6, above the float32 noise
// floor of the belief update (~1.2e-7), so residual policies reach a true
// fixed point instead of a limit cycle of sub-noise reprioritizations.
//
// `--smoke` (the CI configuration) shrinks the graphs and skips the gate:
// same code paths, no timing assumptions on shared runners.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "util/timer.h"

using namespace credo;

namespace {

struct GraphCase {
  std::string name;
  graph::FactorGraph shuffled;  // random-relabeled baseline
};

std::vector<GraphCase> make_cases(bool smoke) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  std::vector<GraphCase> cases;
  // Grid = the paper's image MRF (residual's best case); uniform random is
  // an expander (residual gains least); preferential attachment has the
  // hub structure that hammers a shared priority queue hardest.
  if (smoke) {
    cases.push_back({"grid-48x48", graph::grid(48, 48, cfg)});
    cases.push_back({"uniform-1k", graph::uniform_random(1024, 4096, cfg)});
    cases.push_back(
        {"social-2k", graph::preferential_attachment(2048, 4, cfg)});
  } else {
    cases.push_back({"grid-512x512", graph::grid(512, 512, cfg)});
    cases.push_back(
        {"uniform-16k", graph::uniform_random(16384, 65536, cfg)});
    cases.push_back(
        {"social-32k", graph::preferential_attachment(32768, 4, cfg)});
  }
  std::uint64_t seed = 0x5eed1;
  for (auto& c : cases) {
    c.shuffled = graph::relabeled(
        c.shuffled,
        graph::random_order(c.shuffled.num_nodes(), seed++));
  }
  return cases;
}

/// Run-to-convergence options shared by every cell. The queue bar (1e-6)
/// sits above the float32 noise floor — see the file comment.
bp::BpOptions sched_options() {
  bp::BpOptions o = bench::paper_options();
  o.queue_threshold = 1e-6f;
  return o;
}

struct Row {
  std::string graph;
  std::string engine;
  unsigned threads = 1;
  double modelled = 0.0;
  double host = 0.0;
  std::uint64_t updates = 0;
  bool converged = false;
  double update_ratio = 0.0;  // updates / exact residual's updates
  double l1_vs_exact = 0.0;   // max per-node belief L1 to exact residual
};

/// Max per-node L1 distance between two belief vectors.
double max_l1(const std::vector<graph::BeliefVec>& a,
              const std::vector<graph::BeliefVec>& b) {
  double worst = 0.0;
  for (std::size_t v = 0; v < a.size(); ++v) {
    worst = std::max(worst, static_cast<double>(graph::l1_diff(a[v], b[v])));
  }
  return worst;
}

/// Runs one cell `reps` times, keeping the median host time; modelled
/// time, updates and beliefs come from the same (median) run.
Row run_cell(const GraphCase& c, bp::EngineKind kind,
             const bp::BpOptions& opts, int reps,
             std::vector<graph::BeliefVec>* beliefs = nullptr) {
  std::vector<std::pair<double, bp::BpResult>> runs;
  for (int r = 0; r < reps; ++r) {
    const util::Timer t;
    auto result = bench::run_default(kind, c.shuffled, opts);
    runs.emplace_back(t.seconds(), std::move(result));
  }
  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  auto& [host, result] = runs[runs.size() / 2];
  Row row;
  row.graph = c.name;
  row.engine = std::string(bp::engine_slug(kind));
  row.threads = opts.threads;
  row.modelled = result.stats.time.total();
  row.host = host;
  row.updates = result.stats.elements_processed;
  row.converged = result.stats.converged;
  if (beliefs != nullptr) *beliefs = std::move(result.beliefs);
  return row;
}

void write_json(const std::vector<Row>& rows, bool smoke) {
  std::ofstream out("BENCH_sched.json");
  out << "{\n  \"bench\": \"sched\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"graph\": \"" << r.graph << "\", \"engine\": \""
        << r.engine << "\", \"threads\": " << r.threads
        << ", \"modelled_seconds\": " << r.modelled
        << ", \"host_seconds\": " << r.host << ", \"updates\": " << r.updates
        << ", \"converged\": " << (r.converged ? "true" : "false")
        << ", \"updates_vs_exact\": " << r.update_ratio
        << ", \"l1_vs_exact\": " << r.l1_vs_exact << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int reps = smoke ? 1 : 3;
  const unsigned kThreads[] = {1, 2, 4, 8};

  std::vector<Row> rows;
  util::Table table({"graph", "engine", "threads", "modelled s", "host s",
                     "updates", "conv", "vs exact", "L1 vs exact"});

  for (const auto& c : make_cases(smoke)) {
    // Exact sequential residual: the update-efficiency and fixed-point
    // yardstick.
    auto base = sched_options();
    base.threads = 1;
    std::vector<graph::BeliefVec> exact;
    rows.push_back(
        run_cell(c, bp::EngineKind::kResidual, base, reps, &exact));
    const double exact_updates = static_cast<double>(rows.back().updates);
    const auto compare = [&](Row& row,
                             const std::vector<graph::BeliefVec>& beliefs) {
      row.update_ratio = static_cast<double>(row.updates) / exact_updates;
      row.l1_vs_exact = max_l1(beliefs, exact);
    };
    compare(rows.back(), exact);

    for (const unsigned t : kThreads) {
      auto o = sched_options();
      o.threads = t;
      std::vector<graph::BeliefVec> beliefs;
      rows.push_back(
          run_cell(c, bp::EngineKind::kBulkResidual, o, reps, &beliefs));
      compare(rows.back(), beliefs);
    }
    // Sweep-engine context: the §3.5 work-queue sweep and its OpenMP form.
    std::vector<graph::BeliefVec> beliefs;
    rows.push_back(
        run_cell(c, bp::EngineKind::kCpuNode, base, reps, &beliefs));
    compare(rows.back(), beliefs);
    auto o = sched_options();
    o.threads = 8;
    rows.push_back(
        run_cell(c, bp::EngineKind::kOmpNode, o, reps, &beliefs));
    compare(rows.back(), beliefs);
  }

  for (const Row& r : rows) {
    table.add_row({r.graph, r.engine, std::to_string(r.threads),
                   bench::num(r.modelled), bench::num(r.host),
                   std::to_string(r.updates), r.converged ? "yes" : "no",
                   bench::num(r.update_ratio, 3),
                   bench::num(r.l1_vs_exact, 3)});
  }
  bench::emit(table, "sched",
              "§5f — residual BP to convergence per scheduler (modelled + "
              "wall clock)");
  write_json(rows, smoke);
  std::cout << "(json: BENCH_sched.json)\n";

  if (smoke) return 0;

  // Gate: at every thread count and on every graph, bulk-residual keeps
  // the residual policy (updates <= 1.5x the exact schedule's) and its
  // fixed point (max per-node L1 <= 5e-3); every grid cell converges.
  bool ok = true;
  for (const Row& r : rows) {
    if (r.graph == "grid-512x512" && !r.converged) {
      std::cerr << "GATE FAIL: " << r.engine << "@" << r.threads
                << " did not converge on the grid\n";
      ok = false;
    }
    if (r.engine != "bulk-residual") continue;
    if (r.update_ratio > 1.5 || r.l1_vs_exact > 5e-3) {
      std::cerr << "GATE FAIL: bulk-residual@" << r.threads << " on "
                << r.graph << ": updates " << r.update_ratio
                << "x exact (<= 1.5), L1 " << r.l1_vs_exact
                << " (<= 5e-3)\n";
      ok = false;
    }
  }
  if (ok) std::cout << "GATE PASS\n";
  return ok ? 0 : 1;
}
