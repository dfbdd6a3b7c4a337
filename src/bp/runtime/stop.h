// Cooperative cancellation and deadline budgets for the BP runtime
// (DESIGN.md §5c).
//
// Cancellation is C++20's std::stop_source / std::stop_token: the serve
// layer threads a token through BpOptions into the iteration drivers. The
// drivers poll the token once per iteration and evaluate the two deadline
// budgets (host wall-clock and modelled seconds) at the convergence-check
// cadence, so a request over budget is stopped at the next convergence
// check rather than mid-sweep — stats and beliefs stay consistent, the run
// just ends early with BpStats::stop_reason set.
//
// The tree engine is the one exception: its two fixed sweeps have no
// convergence checks, so a tree run always completes (it is finite by
// construction) and deadlines apply only before and after it.
#pragma once

#include <cstdint>
#include <stop_token>
#include <utility>

#include "util/timer.h"

namespace credo::bp::runtime {

/// Why a run ended before convergence or the iteration cap.
enum class StopReason : std::uint8_t {
  kNone = 0,      // ran to convergence / cap
  kCancelled = 1, // the run's stop token fired (client cancellation)
  kDeadline = 2,  // a host or modelled time budget expired
};

[[nodiscard]] const char* stop_reason_name(StopReason r) noexcept;

/// The drivers' per-run stop policy: an optional token plus the two budgets
/// from BpOptions. Constructed once per run_loop; the no-token/no-budget
/// case short-circuits to a couple of branch-predicted compares.
class DeadlineGuard {
 public:
  DeadlineGuard(std::stop_token token, double host_budget_seconds,
                double modelled_budget_seconds) noexcept
      : token_(std::move(token)),
        host_budget_(host_budget_seconds),
        modelled_budget_(modelled_budget_seconds) {}

  /// True when any stop condition can ever fire.
  [[nodiscard]] bool active() const noexcept {
    return token_.stop_possible() || host_budget_ > 0.0 ||
           modelled_budget_ > 0.0;
  }

  /// Polls the stop conditions. Cancellation is checked on every call;
  /// the budgets only when `at_check` (the convergence-check cadence).
  /// `modelled_seconds_fn()` is invoked only when a modelled budget is set
  /// and this is a check point — it is a full cost-model evaluation.
  template <typename ModelledFn>
  [[nodiscard]] StopReason poll(bool at_check,
                                ModelledFn&& modelled_seconds_fn) const {
    if (token_.stop_requested()) return StopReason::kCancelled;
    if (at_check) {
      if (host_budget_ > 0.0 && timer_.seconds() > host_budget_) {
        return StopReason::kDeadline;
      }
      if (modelled_budget_ > 0.0 &&
          modelled_seconds_fn() > modelled_budget_) {
        return StopReason::kDeadline;
      }
    }
    return StopReason::kNone;
  }

 private:
  std::stop_token token_;
  double host_budget_;
  double modelled_budget_;
  util::Timer timer_;  // starts with the run loop
};

inline const char* stop_reason_name(StopReason r) noexcept {
  switch (r) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadline: return "deadline";
  }
  return "unknown";
}

}  // namespace credo::bp::runtime
