// Host-time benchmark for the credo library: shared types and helpers.
//
// One process runs one workload against the library's public API. A run
// is split into set-up (timed as `setup_s`), a timed phase that replays a
// fixed op sequence generated from the seed, and the output checks, which
// run outside every op's clock so they cost no metric. Set-up runs once per
// process, so `setup_s` includes once-per-process costs; run.py repeats it
// in fresh processes. See README.md for why each workload exists and which
// layer each per-layer metric belongs to.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "bp/options.h"
#include "graph/belief.h"
#include "graph/factor_graph.h"
#include "graph/ldpc.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/server.h"

namespace hostbench {

using Clock = std::chrono::steady_clock;

/// Caller threads of the serve workloads: at most `nproc` on the 4-core
/// machine the benchmark targets.
constexpr unsigned kCallers = 4;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Workload scale: `kFull` is what the benchmark measures; `kSmoke` runs
/// the same code on tiny inputs for the benchmark's own tests and for the
/// off-path rows of a traced run.
enum class Scale { kFull, kSmoke };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  // sets the op count through each workload's rate
  bool trace = false;
  Scale scale = Scale::kFull;
  bool setup_only = false;  // stop after set-up (the `setup` command)
  std::string data_dir;     // where `gen` wrote the workload's input files
};

/// One span recorded by the benchmark around a public call it makes.
struct Span {
  std::string name;
  double start_s = 0.0;  // relative to the recorder's epoch
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // op index within the run (0 = set-up)
};

/// In-memory span store, written out once when the run ends. Never drops.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Records a finished span and returns its id.
  std::uint64_t record(const std::string& name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent,
                       std::uint64_t op);

  [[nodiscard]] std::vector<Span> spans() const;
  void write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// A named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the BENCH table a traced run prints: host samples of one
/// kind of call beside its modelled time.
struct BenchRow {
  std::string name;
  std::vector<double> host_s;
  double modelled_s = 0.0;
};

/// What one workload run hands back to main.
struct WorkloadResult {
  double setup_s = 0.0;  // this process's one set-up
  std::vector<double> latency_s;
  std::vector<std::vector<double>> block_latency_s;  // per timed block
  std::vector<double> block_throughput;              // ops/s per block
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_errors;  // empty = every check passed
  std::vector<Metric> work;               // per-run work counts
  std::vector<Metric> layers;             // filled only when traced
  std::vector<BenchRow> bench_rows;       // filled only when traced
  /// Interleaved untraced and traced op latencies of a traced run, for
  /// obs.trace_overhead_frac.
  std::vector<double> untraced_latency_s, traced_latency_s;
};

/// Samples of traced engine runs, reduced to the bp.*, runtime.* and perf.*
/// rows of a traced run (medians over runs).
struct EngineSamples {
  /// `run_s` is Engine::run's wall time as the caller or its span saw it.
  void add(const credo::bp::BpStats& stats, double run_s);
  [[nodiscard]] std::vector<Metric> metrics() const;

  std::vector<double> run_s, host_s, unpermute_s, outside_s, iterations,
      updates, ns_per_update, modelled_s, offered, processed_frac, checks,
      flops, bytes;
};

/// The serve::Server configuration serve-churn and ldpc-decode share: 3
/// workers, a queue above kCallers, a cache that holds every graph, a
/// pool of 1, c-node, dispatcher off, its own metrics registry and, when
/// `span_capacity` > 0, a span log of that capacity.
struct ServeInstance {
  credo::obs::MetricsRegistry registry;
  std::unique_ptr<credo::obs::SpanLog> log;
  std::unique_ptr<credo::serve::Server> server;  // declared last: stops first
};
[[nodiscard]] std::unique_ptr<ServeInstance> start_server(
    std::size_t span_capacity);

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for empty input.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Closed loop: `callers` threads each run their share of every block,
/// one op after another; a block starts when the previous one has drained.
/// `op(caller, index, block)` runs caller-local op `index` (0 <= index <
/// per_caller) of `block`. Returns each block's wall time in seconds.
std::vector<double> closed_loop(
    unsigned callers, std::size_t per_caller, std::size_t blocks,
    const std::function<void(unsigned, std::size_t, std::size_t)>& op);

/// Block `b`'s range of caller-local op indices.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> block_range(
    std::size_t per_caller, std::size_t blocks, std::size_t b) {
  return {per_caller * b / blocks, per_caller * (b + 1) / blocks};
}

// ---------------------------------------------------------------------------
// Inputs. Each generator is deterministic in its seed.

struct GridSpec {
  std::uint32_t side = 512;
  float stay = 0.55f;  // diagonal of the shared diffusion joint
};
[[nodiscard]] GridSpec grid_spec(Scale scale);

/// The grid-solve MRF: side x side 4-connected grid, binary beliefs, 5%
/// observed, one shared diffusion joint, node ids shuffled by a seeded
/// permutation.
[[nodiscard]] credo::graph::FactorGraph make_grid(const GridSpec& spec,
                                                  std::uint64_t seed);

/// The three serve-churn graphs, in a fixed order: uniform arity 2 (the
/// mutated one), preferential attachment arity 3, uniform arity 32. Their
/// content does not depend on the seed.
[[nodiscard]] std::vector<credo::graph::FactorGraph> make_serve_graphs(
    Scale scale);

struct LdpcSpec {
  std::uint32_t bits = 2048;
  std::uint32_t dv = 3;
  std::uint32_t dc = 6;
  // One code for every run, as a decoding service has: the seed varies the
  // frames. Codes drawn per seed differ in quality (see README.md).
  std::uint64_t code_seed = 1;
  float crossover = 0.04f;
  std::uint32_t max_iterations = 60;
};
[[nodiscard]] LdpcSpec ldpc_spec(Scale scale);

/// One BSC frame: a random error pattern at the spec's crossover.
[[nodiscard]] std::vector<std::uint8_t> make_error(const LdpcSpec& spec,
                                                   std::uint64_t seed);

/// File names `gen` writes for a workload, relative to the data dir.
[[nodiscard]] std::vector<std::string> input_files(const std::string& workload,
                                                   const std::string& dir);

/// Writes the workload's file-backed inputs into `dir`.
void generate_inputs(const RunConfig& cfg);

// ---------------------------------------------------------------------------
// Output checks. Each returns an empty string when the output passes and a
// one-line reason when it does not.

/// Beliefs are finite, non-negative and sum to 1 within `norm_tol`, one per
/// node, and every observed node of `g` stays pinned to its point mass.
[[nodiscard]] std::string check_beliefs(
    const credo::graph::FactorGraph& g,
    std::span<const credo::graph::BeliefVec> beliefs, float norm_tol = 1e-3f);

/// The live states of `beliefs`, concatenated: a compact copy that checks
/// keep across the timed phase (a reference or a sampled response).
[[nodiscard]] std::vector<float> compact(
    std::span<const credo::graph::BeliefVec> beliefs);

/// Largest absolute per-state difference between compact beliefs and a
/// reference of the same shape; infinity when the shapes differ or a
/// value is NaN.
[[nodiscard]] double max_abs_diff(
    std::span<const float> beliefs,
    std::span<const credo::graph::BeliefVec> reference);

/// Compact `beliefs` agree with `reference` within `tol` (max-abs).
[[nodiscard]] std::string check_against(
    std::span<const float> beliefs,
    std::span<const credo::graph::BeliefVec> reference, double tol);

/// The hard decision read from `beliefs` satisfies `syndrome` under `code`.
[[nodiscard]] std::string check_syndrome(
    const credo::graph::ldpc::Code& code,
    std::span<const credo::graph::BeliefVec> beliefs,
    std::span<const std::uint8_t> syndrome);

/// The decoder's own verdict (BpStats::syndrome_satisfied) agrees with
/// check_syndrome: a frame reported decoded satisfies its syndrome, and a
/// frame reported undecoded does not. An undecoded frame is a failed op,
/// not a wrong output; a verdict the beliefs contradict is a wrong output.
[[nodiscard]] std::string check_decode_verdict(
    const credo::graph::ldpc::Code& code,
    std::span<const credo::graph::BeliefVec> beliefs,
    std::span<const std::uint8_t> syndrome, bool reported_decoded);

// ---------------------------------------------------------------------------
// Workloads.

[[nodiscard]] WorkloadResult run_grid_solve(const RunConfig& cfg,
                                            SpanRecorder& spans);
[[nodiscard]] WorkloadResult run_serve_churn(const RunConfig& cfg,
                                             SpanRecorder& spans);
[[nodiscard]] WorkloadResult run_ldpc_decode(const RunConfig& cfg,
                                             SpanRecorder& spans);

/// Host drift probe: a fixed compute loop plus a fixed memory sweep,
/// seconds. Timed at the start and end of every run.
[[nodiscard]] double calibrate();

/// Direct compute_message / combine timings (graph.kernel.*), ns per call.
[[nodiscard]] std::vector<Metric> kernel_metrics(std::uint64_t seed);

}  // namespace hostbench
