// Per-request tracing for the serve layer (DESIGN.md §5e).
//
// A Span is the record of one request's life: a process-unique id, the
// graph it named, the engine that ran, the phase timings the request moved
// through (queue wait, graph resolution/parse, the engine run with both
// wall and modelled time, belief un-permutation) and its terminal status.
// The server fills one Span per request — including requests that never
// ran (rejections, queued cancellations) — and hands it to a SpanLog, a
// bounded ring that drops the oldest entries under overload rather than
// growing without bound. `credo serve --spans out.jsonl` dumps the ring as
// JSON Lines, one span per line, ready for jq or a trace viewer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace credo::obs {

/// One request's trace record.
struct Span {
  /// Process-unique, monotonically assigned (see next_span_id()).
  std::uint64_t id = 0;

  /// Client tag echoed from the request (may be empty).
  std::string tag;

  /// What the request ran on: "nodes|edges" for file pairs, "inline" for
  /// preloaded graphs, empty when rejected before resolution.
  std::string graph;

  /// Engine that ran (human-readable name), empty if none was chosen.
  std::string engine;

  /// Terminal status name (util::status_code_name) and error detail.
  std::string status = "error";
  std::string error;

  bool cache_hit = false;

  // Phase timings, wall-clock seconds. Phases a request never entered
  // stay 0 (a rejected request has only queue time).
  double queue_s = 0.0;      // admission to dequeue
  double parse_s = 0.0;      // graph resolution (cache fetch or reorder)
  double run_s = 0.0;        // engine run, host wall time
  double unpermute_s = 0.0;  // belief un-permutation inside Engine::run

  /// Modelled engine-run time (perf cost model) — the deterministic
  /// counterpart of run_s.
  double run_modelled_s = 0.0;

  /// BP iterations the run performed (0 when it never ran).
  std::uint32_t iterations = 0;

  /// How a warm run started (DESIGN.md §5h): "resumed" from the stored
  /// run's open frontier, "seeded" from a delta's touched nodes alone, or
  /// "full_sweep"; empty for runs from the priors.
  std::string warm;

  /// Nodes a resumed or seeded warm run's schedule started from (0 for
  /// full sweeps and runs from the priors).
  std::uint64_t seed_nodes = 0;

  [[nodiscard]] double total_wall_s() const noexcept {
    return queue_s + parse_s + run_s + unpermute_s;
  }
};

/// Next process-unique span id (atomic counter starting at 1).
[[nodiscard]] std::uint64_t next_span_id() noexcept;

/// Writes one span as a single JSON object line.
void write_span_json(std::ostream& os, const Span& span);

/// Bounded, thread-safe ring of completed spans.
class SpanLog {
 public:
  /// Keeps at most `capacity` spans; older entries are dropped (counted).
  explicit SpanLog(std::size_t capacity = 4096);

  void record(Span span);

  /// Copy of the retained spans, oldest first.
  [[nodiscard]] std::vector<Span> snapshot() const;

  /// JSON Lines dump of the retained spans, oldest first.
  void write_jsonl(std::ostream& os) const;

  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Span> ring_;      // circular once full
  std::size_t next_ = 0;        // write cursor
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace credo::obs
