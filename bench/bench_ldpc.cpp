// LDPC decoding workload (DESIGN.md §5g): the first non-tabular factor
// family, measured three ways on a random regular (3,6) code:
//
//  * FER — frame error rate versus BSC crossover probability, min-sum
//    and sum-product side by side (the waterfall the closed-form kernels
//    must reproduce; SP should never lose to MS);
//  * family throughput — decoded frames/s, modelled + wall clock, for
//    min-sum versus sum-product on the same engine (min-sum trades a
//    little FER for cheaper check updates);
//  * engine throughput — the same decode across the sweep, frontier and
//    residual engines (§3.5/§5f schedules prioritizing check residuals),
//    with the syndrome-satisfaction stop on everywhere.
//
// `--smoke` (the CI configuration) shrinks the code and trial counts and
// skips the quality gate: same code paths, no timing assumptions on
// shared runners.
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "graph/ldpc.h"
#include "util/timer.h"

using namespace credo;

namespace {

/// xorshift-style split-mix: deterministic per-trial error patterns
/// without dragging in <random> engine/state differences across stdlibs.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// BSC sample: each bit flips independently with probability `p`.
std::vector<std::uint8_t> random_error(std::uint32_t bits, float p,
                                       std::uint64_t seed) {
  std::vector<std::uint8_t> e(bits, 0);
  for (std::uint32_t b = 0; b < bits; ++b) {
    const std::uint64_t r = mix(seed * 0x10001ULL + b);
    const double u =
        static_cast<double>(r >> 11) * (1.0 / 9007199254740992.0);
    e[b] = u < static_cast<double>(p) ? 1 : 0;
  }
  return e;
}

bp::BpOptions decode_options() {
  bp::BpOptions o;
  o.max_iterations = 60;
  o.convergence_threshold = 1e-4f;
  o.queue_threshold = 1e-6f;
  o.syndrome_stop = true;
  o.threads = 4;
  return o;
}

struct Row {
  std::string section;  // "fer" | "family" | "engine"
  std::string family;
  std::string engine;
  float crossover = 0.0f;
  unsigned trials = 0;
  unsigned frame_errors = 0;
  double avg_iterations = 0.0;
  double modelled = 0.0;  // summed over trials, seconds
  double host = 0.0;      // summed over trials, seconds
  [[nodiscard]] double fer() const {
    return trials == 0 ? 0.0
                       : static_cast<double>(frame_errors) / trials;
  }
  [[nodiscard]] double frames_per_s() const {
    return host > 0.0 ? trials / host : 0.0;
  }
};

/// Decodes `trials` random BSC frames on a fresh graph each and sums the
/// outcome. A frame error = the decode's hard decisions differ from the
/// true error pattern (detected failures and undetected ones both count).
Row run_trials(const graph::ldpc::Code& code, graph::FactorFamily family,
               bp::EngineKind kind, float crossover, unsigned trials,
               std::uint64_t seed) {
  Row row;
  row.family = std::string(graph::family_name(family));
  row.engine = std::string(bp::engine_slug(kind));
  row.crossover = crossover;
  row.trials = trials;
  const auto opts = decode_options();
  const auto engine = bp::make_default_engine(kind);
  for (unsigned t = 0; t < trials; ++t) {
    const auto error = random_error(code.bits, crossover, seed + t);
    const auto syn = graph::ldpc::syndrome(code, error);
    const auto g = graph::ldpc::build_graph(code, syn, crossover, family);
    const util::Timer timer;
    const auto result = engine->run(g, opts);
    row.host += timer.seconds();
    row.modelled += result.stats.time.total();
    row.avg_iterations += result.stats.iterations;
    const auto bits = graph::ldpc::hard_decision(result.beliefs, code.bits);
    if (bits != error) ++row.frame_errors;
  }
  if (trials > 0) row.avg_iterations /= trials;
  return row;
}

void write_json(const std::vector<Row>& rows, bool smoke) {
  std::ofstream out("BENCH_ldpc.json");
  out << "{\n  \"bench\": \"ldpc\",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"section\": \"" << r.section << "\", \"family\": \""
        << r.family << "\", \"engine\": \"" << r.engine
        << "\", \"crossover\": " << r.crossover
        << ", \"trials\": " << r.trials
        << ", \"frame_errors\": " << r.frame_errors << ", \"fer\": "
        << r.fer() << ", \"avg_iterations\": " << r.avg_iterations
        << ", \"modelled_seconds\": " << r.modelled
        << ", \"host_seconds\": " << r.host << ", \"frames_per_second\": "
        << r.frames_per_s() << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  // One (3,6) code per run: rate-1/2, the classic regular ensemble.
  const std::uint32_t bits = smoke ? 96 : 2048;
  const auto code = graph::ldpc::random_regular(bits, 3, 6, 0xc0de);
  const unsigned fer_trials = smoke ? 4 : 60;
  const unsigned tp_trials = smoke ? 3 : 30;

  const graph::FactorFamily kFamilies[] = {
      graph::FactorFamily::kLdpcSumProduct,
      graph::FactorFamily::kLdpcMinSum};

  std::vector<Row> rows;

  // FER waterfall: both families on the sequential frontier engine.
  const std::vector<float> crossovers =
      smoke ? std::vector<float>{0.03f}
            : std::vector<float>{0.02f, 0.04f, 0.06f, 0.08f};
  for (const auto family : kFamilies) {
    for (const float p : crossovers) {
      Row r = run_trials(code, family, bp::EngineKind::kCpuNode, p,
                         fer_trials, 0x5eed);
      r.section = "fer";
      rows.push_back(std::move(r));
    }
  }

  // Family throughput: min-sum's cheaper check update vs exact tanh, one
  // engine, a fixed operating point well inside the waterfall.
  const float kOperating = 0.04f;
  for (const auto family : kFamilies) {
    Row r = run_trials(code, family, bp::EngineKind::kCpuNode, kOperating,
                       tp_trials, 0xfeed);
    r.section = "family";
    rows.push_back(std::move(r));
  }

  // Engine throughput: the same min-sum decode across schedules —
  // sequential/parallel sweeps and the residual engines (exact and bulk
  // rounds) ordering check residuals.
  const bp::EngineKind kEngines[] = {
      bp::EngineKind::kCpuNode, bp::EngineKind::kOmpNode,
      bp::EngineKind::kResidual, bp::EngineKind::kBulkResidual};
  for (const auto kind : kEngines) {
    Row r = run_trials(code, graph::FactorFamily::kLdpcMinSum, kind,
                       kOperating, tp_trials, 0xfeed);
    r.section = "engine";
    rows.push_back(std::move(r));
  }

  util::Table table({"section", "family", "engine", "p", "trials", "FER",
                     "avg iters", "modelled s", "host s", "frames/s"});
  for (const Row& r : rows) {
    table.add_row({r.section, r.family, r.engine, bench::num(r.crossover, 3),
                   std::to_string(r.trials), bench::num(r.fer(), 3),
                   bench::num(r.avg_iterations, 1), bench::num(r.modelled),
                   bench::num(r.host), bench::num(r.frames_per_s(), 1)});
  }
  bench::emit(table, "ldpc",
              "§5g — LDPC syndrome decoding: FER waterfall, min-sum vs "
              "sum-product, per-engine throughput");
  write_json(rows, smoke);
  std::cout << "(json: BENCH_ldpc.json)\n";

  if (smoke) return 0;

  // Quality gate, decoupled from wall clock: (1) at the easiest operating
  // point both families decode essentially everything (FER <= 5%), and
  // (2) exact sum-product never loses to min-sum by more than one frame
  // at any point of the waterfall.
  int failures = 0;
  for (const auto family : kFamilies) {
    for (const Row& r : rows) {
      if (r.section == "fer" && r.crossover == crossovers.front() &&
          r.family == graph::family_name(family) && r.fer() > 0.05) {
        std::cerr << "GATE FAIL: " << r.family << " FER " << r.fer()
                  << " > 0.05 at p=" << r.crossover << "\n";
        ++failures;
      }
    }
  }
  for (const float p : crossovers) {
    const Row *sp = nullptr, *ms = nullptr;
    for (const Row& r : rows) {
      if (r.section != "fer" || r.crossover != p) continue;
      if (r.family == "ldpc-sum-product") sp = &r;
      if (r.family == "ldpc-min-sum") ms = &r;
    }
    if (sp && ms && sp->frame_errors > ms->frame_errors + 1) {
      std::cerr << "GATE FAIL: sum-product (" << sp->frame_errors
                << " errors) worse than min-sum (" << ms->frame_errors
                << ") at p=" << p << "\n";
      ++failures;
    }
  }
  if (failures == 0) std::cout << "GATE PASS\n";
  return failures == 0 ? 0 : 1;
}
