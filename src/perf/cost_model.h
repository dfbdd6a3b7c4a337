// Roofline-style cost model mapping measured event counts onto a hardware
// profile.
//
// time = control overheads (launches, barriers, fork/join regions)
//      + transfer time  (PCIe latency + bytes/bandwidth)
//      + allocation time
//      + max(compute time, memory time)   [compute/memory overlap]
//      + atomic time                      [serialization does not overlap]
//
// Memory time sums a streaming term (bytes / streaming bandwidth) and a
// scattered term (transactions * latency / memory-level-parallelism), where
// one scattered access of b bytes costs ceil(b / transaction_granularity)
// transactions — 64 B lines on a CPU, 32 B sectors on a GPU. This granularity
// difference is what reproduces the paper's observation that the CUDA Node
// implementation's advantage shrinks as beliefs grow (§4.1, Fig. 8).
#pragma once

#include "perf/counters.h"
#include "perf/profiles.h"

namespace credo::perf {

/// Modelled execution time, split by cause. All values in seconds.
struct TimeBreakdown {
  double compute_s = 0;
  double memory_s = 0;
  double atomic_s = 0;
  double critical_s = 0;  // single-lane critical path (hub serialization)
  double overhead_s = 0;  // launches + barriers + fork/join
  double transfer_s = 0;  // PCIe traffic
  double alloc_s = 0;     // device memory management

  [[nodiscard]] double total() const noexcept {
    double exec = compute_s > memory_s ? compute_s : memory_s;
    if (critical_s > exec) exec = critical_s;
    return exec + atomic_s + overhead_s + transfer_s + alloc_s;
  }

  /// Fraction of total time spent in GPU memory management + transfers —
  /// the paper reports 99.8% for the smallest benchmark (§4.1.1).
  [[nodiscard]] double management_fraction() const noexcept {
    const double t = total();
    return t > 0 ? (transfer_s + alloc_s + overhead_s) / t : 0.0;
  }
};

/// Computes modelled time for `c` executed on platform `p`.
[[nodiscard]] TimeBreakdown model_time(const Counters& c,
                                       const HardwareProfile& p);

}  // namespace credo::perf
