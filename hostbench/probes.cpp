// Fixed probes that do not depend on a workload: the host drift probe and
// the direct kernel timings.
#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench.h"
#include "graph/belief.h"
#include "util/prng.h"

namespace hostbench {

namespace graph = credo::graph;

namespace {

// Defeats dead-code elimination of probe results.
volatile double g_sink = 0.0;

}  // namespace

double calibrate() {
  // 8 MiB is well past one core's 2 MiB L2, so the sweep sees the shared
  // cache and memory; the buffer is touched before the clock starts.
  std::vector<std::uint64_t> buf(std::size_t{1} << 20, 1);
  const auto t0 = Clock::now();
  double x = 1.0;
  for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
  std::uint64_t acc = 0;
  for (int pass = 0; pass < 16; ++pass) {
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] += i ^ static_cast<std::uint64_t>(pass);
      acc += buf[i];
    }
  }
  const double s = seconds_since(t0);
  g_sink = x + static_cast<double>(acc);
  return s;
}

std::vector<Metric> kernel_metrics(std::uint64_t seed) {
  credo::util::Prng rng(seed);
  constexpr int kCalls = 200'000;
  constexpr int kReps = 5;
  const auto random_belief = [&](std::uint32_t arity) {
    std::vector<float> p(arity);
    for (float& v : p) v = 0.05f + rng.uniform01f();
    graph::BeliefVec b(p);
    graph::normalize(b);
    return b;
  };
  std::vector<Metric> out;
  for (const std::uint32_t arity : {2u, 3u, 32u}) {
    const graph::JointMatrix j = graph::JointMatrix::diffusion(arity, 0.7f);
    graph::BeliefVec in = random_belief(arity), msg;
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      // Each message feeds the next, so no call can be hoisted or skipped.
      for (int i = 0; i < kCalls; ++i) {
        graph::compute_message(in, j, msg);
        std::swap(in, msg);
      }
      ns.push_back(seconds_since(t0) * 1e9 / kCalls);
    }
    g_sink = in.v[0];
    out.push_back({"graph.kernel.message_ns.a" + std::to_string(arity),
                   median(ns), "ns"});
  }
  for (const std::uint32_t arity : {2u, 32u}) {
    // A node with 8 incoming messages: reset the accumulator, combine 8.
    std::vector<graph::BeliefVec> msgs;
    for (int k = 0; k < 8; ++k) msgs.push_back(random_belief(arity));
    graph::BeliefVec acc = graph::BeliefVec::ones(arity);
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kCalls; ++i) {
        if (i % 8 == 0) acc = graph::BeliefVec::ones(arity);
        graph::combine(acc, msgs[i % 8]);
      }
      ns.push_back(seconds_since(t0) * 1e9 / kCalls);
      g_sink = acc.v[0];
    }
    out.push_back({"graph.kernel.combine_ns.a" + std::to_string(arity),
                   median(ns), "ns"});
  }
  return out;
}

}  // namespace hostbench
