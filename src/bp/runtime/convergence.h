// The one convergence policy shared by every engine (DESIGN.md §5b).
//
// Owns the three stopping/demotion rules the paper describes plus damping:
//  * the global L1-sum threshold (Algorithm 1's convergence check);
//  * the per-element `queue_threshold` demotion that shrinks §3.5 work
//    queues;
//  * the §3.6 batched-check cadence (GPU engines only evaluate the global
//    sum every `convergence_batch` iterations to amortize the transfer);
//  * belief damping, applied between the raw update and the store.
//
// Engines used to re-implement each of these by hand; now they ask the
// controller, so the rules cannot diverge between paradigms.
#pragma once

#include <cstdint>

#include "bp/options.h"
#include "graph/belief.h"

namespace credo::bp::runtime {

class ConvergenceController {
 public:
  /// Whether the global sum is evaluated every iteration (CPU engines —
  /// the reduction is free once the deltas are in hand) or deferred on a
  /// `convergence_batch` cadence (GPU engines — the sum costs a reduction
  /// kernel plus a scalar transfer, §3.6).
  enum class Cadence { kEveryIteration, kBatched };

  ConvergenceController(const BpOptions& opts, Cadence cadence) noexcept
      : threshold_(opts.convergence_threshold),
        element_threshold_(opts.queue_threshold),
        damping_(opts.damping),
        batch_(cadence == Cadence::kBatched ? opts.convergence_batch : 1),
        max_iterations_(opts.max_iterations),
        syndrome_stop_(opts.syndrome_stop) {}

  /// True when the global sum should be evaluated after iteration `iter`
  /// (0-based). The final iteration is always checked so `final_delta` is
  /// meaningful even at the cap.
  [[nodiscard]] bool should_check(std::uint32_t iter) const noexcept {
    return (iter + 1) % batch_ == 0 || iter + 1 == max_iterations_;
  }

  /// Algorithm 1's global stopping rule.
  [[nodiscard]] bool global_converged(double sum) const noexcept {
    return sum < threshold_;
  }

  /// Per-element rule: does this delta keep the element on the work queue
  /// (§3.5) / worth reprioritizing (residual scheduling)?
  [[nodiscard]] bool element_active(float delta) const noexcept {
    return delta > element_threshold_;
  }

  /// LDPC families (DESIGN.md §5g): whether syndrome satisfaction is an
  /// additional stopping rule. The LDPC family kernel evaluates it when an
  /// engine asks — at the should_check cadence (sweeps) or at epoch
  /// boundaries (priority loops) — alongside, never instead of, the
  /// belief-delta rule.
  [[nodiscard]] bool syndrome_stop() const noexcept {
    return syndrome_stop_;
  }

  /// Applies damping: b = (1-d)*b + d*prev, renormalized. No-op at d == 0.
  /// Returns flops performed (for the caller's meter).
  std::uint32_t damp(graph::BeliefVec& b,
                     const graph::BeliefVec& prev) const noexcept {
    if (damping_ <= 0.0f) return 0;
    for (std::uint32_t i = 0; i < b.size; ++i) {
      b.v[i] = (1.0f - damping_) * b.v[i] + damping_ * prev.v[i];
    }
    graph::normalize(b);
    return 5 * b.size;
  }

 private:
  float threshold_;
  float element_threshold_;
  float damping_;
  std::uint32_t batch_;
  std::uint32_t max_iterations_;
  bool syndrome_stop_;
};

}  // namespace credo::bp::runtime
