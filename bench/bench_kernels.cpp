// Kernel-layer microbenchmark: host-seconds for the scalar reference
// kernels vs the vectorized public kernels vs the batched multi-edge
// message kernel, across the arity range the engines see (2..32).
//
// Unlike the paper-figure benches this measures *real* wall time (the
// simulator's modelled time is unchanged by vectorization — the kernels
// are bit-identical and charge identical flop counts). Emits an aligned
// table plus machine-readable BENCH_kernels.json in the working
// directory; CI asserts the arity-32 batched speedup there.
#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/belief.h"
#include "graph/belief_kernels.h"
#include "util/prng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using credo::graph::BeliefVec;
using credo::graph::JointMatrix;
using credo::graph::kEdgeBlock;

/// Messages cycled through per timed pass. A multiple of kEdgeBlock so the
/// batched variant never sees a ragged tail, and large enough that the
/// working set does not all sit in registers.
constexpr std::size_t kPool = 1024;
static_assert(kPool % kEdgeBlock == 0);

/// Sink that keeps the optimizer from deleting the timed work.
volatile float g_sink = 0.0f;

std::vector<BeliefVec> random_pool(credo::util::Prng& rng,
                                   std::uint32_t arity) {
  std::vector<BeliefVec> pool(kPool);
  for (auto& b : pool) {
    b.size = arity;
    for (std::uint32_t i = 0; i < arity; ++i) {
      b.v[i] = 0.05f + rng.uniform01f();
    }
    credo::graph::normalize(b);
  }
  return pool;
}

JointMatrix random_joint(credo::util::Prng& rng, std::uint32_t arity) {
  JointMatrix j(arity, arity);
  for (std::uint32_t r = 0; r < arity; ++r) {
    for (std::uint32_t c = 0; c < arity; ++c) {
      j.at(r, c) = 0.05f + rng.uniform01f();
    }
  }
  return j;
}

/// Ops per measurement, scaled so each (kernel, arity) cell costs a few
/// tens of milliseconds regardless of the O(arity^2) matvec growth.
std::size_t ops_for(std::uint32_t arity) {
  const std::size_t target = (std::size_t{1} << 24) /
                             (std::size_t{arity} * arity);
  const std::size_t floor = std::size_t{1} << 14;
  const std::size_t ops = target > floor ? target : floor;
  return (ops / kPool) * kPool;  // whole passes over the pool
}

/// Best-of-5 wall time for `body` (one warmup pass first).
template <class F>
double time_best(F&& body) {
  body();
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const credo::util::Timer t;
    body();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Best-of-5 for two bodies with reps interleaved (A B A B ...), so
/// thermal drift and frequency steps on a busy host hit both variants
/// equally instead of whichever happened to run second.
template <class A, class B>
std::pair<double, double> time_pair(A&& a, B&& b) {
  a();
  b();
  double best_a = 1e300, best_b = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    {
      const credo::util::Timer t;
      a();
      best_a = std::min(best_a, t.seconds());
    }
    {
      const credo::util::Timer t;
      b();
      best_b = std::min(best_b, t.seconds());
    }
  }
  return {best_a, best_b};
}

struct Row {
  std::string kernel;
  std::uint32_t arity = 0;
  std::size_t ops = 0;
  double scalar_s = 0.0;
  double vector_s = 0.0;
  double batched_s = -1.0;  // < 0: variant not applicable

  /// Which path the public kernel's dispatch selects at this arity
  /// ("vector" or "scalar", per the cutoffs in belief_kernels.h). The
  /// speedup_vectorized >= 1 gate below applies to vector-path rows; on
  /// scalar-path rows the public kernel runs the reference loop, so the
  /// ratio is 1.0 up to timer noise.
  std::string path = "vector";
};

Row bench_message(credo::util::Prng& rng, std::uint32_t arity) {
  const auto pool = random_pool(rng, arity);
  const JointMatrix j = random_joint(rng, arity);
  const std::size_t ops = ops_for(arity);

  std::array<const float*, kPool> ptrs{};
  for (std::size_t i = 0; i < kPool; ++i) ptrs[i] = pool[i].v.data();
  std::array<BeliefVec, kEdgeBlock> outs{};

  // Both variants run through one indirect-call harness: the timed loop is
  // the same machine code at the same address for both, so the comparison
  // can't be skewed by caller-loop alignment.
  using MsgFn = std::uint32_t (*)(const BeliefVec&, const JointMatrix&,
                                  BeliefVec&) noexcept;
  const auto drive_msg = [&](MsgFn fn) {
    BeliefVec out;
    float sink = 0.0f;
    for (std::size_t i = 0; i < ops; ++i) {
      fn(pool[i % kPool], j, out);
      sink += out.v[0];
    }
    g_sink = sink;
  };
  Row row{"message", arity, ops};
  std::tie(row.scalar_s, row.vector_s) = time_pair(
      [&] { drive_msg(&credo::graph::scalar::compute_message); },
      [&] { drive_msg(&credo::graph::compute_message); });
  row.batched_s = time_best([&] {
    float sink = 0.0f;
    for (std::size_t base = 0; base < ops; base += kEdgeBlock) {
      credo::graph::compute_messages_batched(j, &ptrs[base % kPool],
                                             outs.data(), kEdgeBlock);
      sink += outs[0].v[0];
    }
    g_sink = sink;
  });
  return row;
}

Row bench_combine(credo::util::Prng& rng, std::uint32_t arity) {
  const auto pool = random_pool(rng, arity);
  const std::size_t ops = ops_for(arity);

  // Reset the accumulator every pool pass so both variants walk the same
  // value trajectory (including any underflow rescales).
  Row row{"combine", arity, ops};
  row.path = arity <= credo::graph::kCombineScalarMaxArity ? "scalar"
                                                           : "vector";
  using CombineFn = std::uint32_t (*)(BeliefVec&, const BeliefVec&) noexcept;
  const auto drive_combine = [&](CombineFn fn) {
    BeliefVec acc = BeliefVec::ones(arity);
    for (std::size_t i = 0; i < ops; ++i) {
      const std::size_t k = i % kPool;
      if (k == 0) acc = BeliefVec::ones(arity);
      fn(acc, pool[k]);
    }
    g_sink = acc.v[0];
  };
  std::tie(row.scalar_s, row.vector_s) = time_pair(
      [&] { drive_combine(&credo::graph::scalar::combine); },
      [&] { drive_combine(&credo::graph::combine); });
  return row;
}

Row bench_l1_diff(credo::util::Prng& rng, std::uint32_t arity) {
  const auto pool = random_pool(rng, arity);
  const std::size_t ops = ops_for(arity);

  Row row{"l1_diff", arity, ops};
  row.path = "scalar";  // ordered convergence sum; see belief_kernels.h
  using L1Fn = float (*)(const BeliefVec&, const BeliefVec&) noexcept;
  const auto drive_l1 = [&](L1Fn fn) {
    float sink = 0.0f;
    for (std::size_t i = 0; i < ops; ++i) {
      sink += fn(pool[i % kPool], pool[(i + 1) % kPool]);
    }
    g_sink = sink;
  };
  std::tie(row.scalar_s, row.vector_s) = time_pair(
      [&] { drive_l1(&credo::graph::scalar::l1_diff); },
      [&] { drive_l1(&credo::graph::l1_diff); });
  return row;
}

double ns_per_op(double seconds, std::size_t ops) {
  return seconds * 1e9 / static_cast<double>(ops);
}

void write_json(const std::vector<Row>& rows, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"kernels\",\n  \"unit\": \"ns_per_op\",\n"
      << "  \"edge_block\": " << kEdgeBlock << ",\n"
      << "  \"simd_lane\": " << credo::graph::kSimdLane << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"arity\": " << r.arity
        << ", \"ops\": " << r.ops
        << ", \"scalar_ns\": " << ns_per_op(r.scalar_s, r.ops)
        << ", \"selected_ns\": " << ns_per_op(r.vector_s, r.ops)
        << ", \"path\": \"" << r.path << "\"";
    // On scalar-path rows the dispatch runs the reference loop itself, so
    // there is no vectorized variant to compare: report the measured ratio
    // as parity (expected ~1.0 up to timer noise) rather than a speedup.
    if (r.path == "vector") {
      out << ", \"speedup_vectorized\": " << r.scalar_s / r.vector_s;
    } else {
      out << ", \"parity_vs_scalar\": " << r.scalar_s / r.vector_s;
    }
    if (r.batched_s >= 0.0) {
      out << ", \"batched_ns\": " << ns_per_op(r.batched_s, r.ops)
          << ", \"speedup_batched\": " << r.scalar_s / r.batched_s;
    }
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  credo::util::Prng rng(0x6b65726e);  // fixed seed: reproducible workloads
  const std::uint32_t arities[] = {2, 4, 8, 16, 32};

  std::vector<Row> rows;
  for (const std::uint32_t a : arities) rows.push_back(bench_message(rng, a));
  for (const std::uint32_t a : arities) rows.push_back(bench_combine(rng, a));
  for (const std::uint32_t a : arities) rows.push_back(bench_l1_diff(rng, a));

  credo::util::Table table({"kernel", "arity", "path", "scalar ns",
                            "vector ns", "batched ns", "vec x", "batch x"});
  double arity32_batched_speedup = 0.0;
  bool vector_paths_ok = true;
  for (const Row& r : rows) {
    const bool has_batched = r.batched_s >= 0.0;
    table.add_row(
        {r.kernel, std::to_string(r.arity), r.path,
         credo::util::Table::num(ns_per_op(r.scalar_s, r.ops)),
         credo::util::Table::num(ns_per_op(r.vector_s, r.ops)),
         has_batched ? credo::util::Table::num(ns_per_op(r.batched_s, r.ops))
                     : std::string("-"),
         credo::util::Table::num(r.scalar_s / r.vector_s, 3),
         has_batched ? credo::util::Table::num(r.scalar_s / r.batched_s, 3)
                     : std::string("-")});
    if (r.kernel == "message" && r.arity == 32) {
      arity32_batched_speedup = r.scalar_s / r.batched_s;
    }
    if (r.path == "vector" && r.scalar_s / r.vector_s < 1.0) {
      vector_paths_ok = false;
    }
  }

  std::cout << "\n== Kernel host-time microbenchmark (best of 5) ==\n";
  table.print(std::cout);

  const std::string json_path = "BENCH_kernels.json";
  write_json(rows, json_path);
  std::cout << "(json: " << json_path << ")\n";

  std::cout << "arity-32 batched message speedup: "
            << credo::util::Table::num(arity32_batched_speedup, 3) << "x ("
            << (arity32_batched_speedup >= 1.5 ? "PASS" : "FAIL")
            << " >= 1.5x)\n";
  std::cout << "vector-path rows all >= 1x vs scalar: "
            << (vector_paths_ok ? "PASS" : "FAIL") << "\n";
  return (arity32_batched_speedup >= 1.5 && vector_paths_ok) ? 0 : 1;
}
