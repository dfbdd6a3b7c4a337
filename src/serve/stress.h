// Request-mix replay against a Server (DESIGN.md §5c/§5e) — the workload
// behind `credo serve --stress N` and the CI concurrency smoke.
//
// `sessions` client threads each submit their share of `requests`,
// round-robining over the configured graphs and engine mix. The report is
// registry-backed: run_stress snapshots the server's MetricsRegistry
// before and after the replay, and the table renders that delta — the
// same counters and histograms a Prometheus scrape exposes, so the table
// and the scrape reconcile by construction (one source of truth). Queue
// wait and run time are separate histograms and reported as separate
// percentile rows (run time excludes queue wait).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bp/engine.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "util/table.h"

namespace credo::serve {

struct StressConfig {
  /// MTX-belief file pairs the mix cycles through (>= 1 required).
  std::vector<std::pair<std::string, std::string>> graphs;

  /// Total requests across all sessions.
  std::size_t requests = 64;

  /// Client threads submitting concurrently.
  unsigned sessions = 4;

  /// Engines cycled per request. Empty = every request asks for the
  /// server's default selection (the dispatcher when enabled).
  std::vector<bp::EngineKind> mix = {bp::EngineKind::kCpuNode,
                                     bp::EngineKind::kCpuEdge,
                                     bp::EngineKind::kResidual};

  /// Deadline attached to every Nth request (0 = none). Must stay 0 when
  /// `batch` > 1: fused batch members share their head's deadline.
  std::size_t deadline_every = 0;
  Deadline deadline;

  /// Every Nth request is submitted with an already-fired cancellation
  /// token (0 = none) — it terminates kCancelled without running, so the
  /// cancelled path shows up in spans and counters under load.
  std::size_t cancel_every = 0;

  /// Locality ordering folded into every request's GraphKey. Must stay
  /// kNone when `batch` > 1 (fused parts cannot carry permutations).
  graph::ReorderMode reorder = graph::ReorderMode::kNone;

  /// Every request opts into belief warm-starting — repeat visits to the
  /// same graph start from the previous converged fixed point, so the
  /// warm-hit counter climbs over the replay.
  bool warm = false;

  /// <= 1: each request is submitted individually. > 1: each session
  /// groups its requests into batches of this size and submits them
  /// through Server::submit_batch (fused disjoint-union runs). The engine
  /// mix then cycles per *batch* — members of one fused batch must share
  /// an engine.
  std::size_t batch = 0;

  /// Every Nth request carries a topology mutation batch (0 = none): each
  /// churn batch grows fresh nodes and wires them to random existing
  /// targets through a GraphDelta, so the §5j dynamic-graph path — version
  /// bumps, snapshot publishes, warm migration — runs under concurrent
  /// query load. Fresh nodes make concurrent churn race-free by
  /// construction (two in-flight batches can never name the same new edge).
  /// Requires file-backed graphs (run_stress parses each pair up front to
  /// learn its size, arities, and joint-store form) and `batch` <= 1
  /// (fused members cannot carry deltas).
  std::size_t churn_every = 0;

  /// Fresh nodes (each with one new edge) added per churn batch.
  std::size_t churn_edges = 2;

  /// Seed for the churn stream's edge-target choices.
  std::uint64_t churn_seed = 1;

  /// Base BpOptions for every request.
  bp::BpOptions options;
};

struct StressReport {
  /// In-process convenience view (post-drain); the registry delta below is
  /// the authoritative source the table renders.
  ServerStats server;

  /// Registry delta over the replay window (counters and histograms of
  /// the server's MetricsRegistry, differenced before/after).
  obs::MetricsSnapshot metrics;

  std::size_t requests = 0;
  unsigned sessions = 0;
  double wall_seconds = 0.0;

  /// Requests finishing kOk per wall second.
  double throughput_rps = 0.0;

  /// Run-time (dequeue to completion, queue wait excluded) percentiles in
  /// seconds, interpolated from the credo_request_run_seconds histogram.
  double service_p50 = 0.0, service_p90 = 0.0, service_p99 = 0.0,
         service_max = 0.0;

  /// Queue-wait percentiles from credo_request_queue_seconds.
  double queue_p50 = 0.0, queue_p90 = 0.0, queue_p99 = 0.0,
         queue_max = 0.0;

  /// Renders the metrics table the CLI prints — every count read from the
  /// registry delta.
  [[nodiscard]] util::Table table() const;
};

/// Runs the mix and waits for every future. The accounting identity
/// (submitted == finished) holds on return.
[[nodiscard]] StressReport run_stress(Server& server,
                                      const StressConfig& config);

/// Decode-under-load scenario (DESIGN.md §5g): many tiny LDPC decode
/// requests at a high submission rate, so the admission queue — not the
/// engine — is the contended resource. Generates `codes` distinct random
/// regular (dv, dc) codes with weight-1 error syndromes, writes each as an
/// MTX-belief pair under the system temp directory (removed on return, so
/// the replay exercises the GraphCache and the %%family headers
/// end-to-end), and replays `requests` decode requests with syndrome
/// stopping on across an LDPC-capable engine mix.
struct DecodeLoadConfig {
  graph::FactorFamily family = graph::FactorFamily::kLdpcMinSum;
  std::uint32_t codes = 4;  // distinct codes the mix cycles through
  std::uint32_t bits = 48;
  std::uint32_t dv = 3;
  std::uint32_t dc = 6;
  float crossover = 0.05f;
  std::uint64_t seed = 1;
  std::size_t requests = 256;
  unsigned sessions = 8;
  std::uint32_t max_iterations = 60;

  /// > 1: submit the decode mix in fused batches of this size
  /// (Server::submit_batch), the §5h decode-under-load stress shape.
  std::size_t batch = 0;
};

[[nodiscard]] StressReport run_decode_under_load(
    Server& server, const DecodeLoadConfig& config);

}  // namespace credo::serve
