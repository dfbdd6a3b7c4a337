// The serve layer's public request/response vocabulary (DESIGN.md §5c/§5h).
//
// A Request names a graph through a GraphKey — the single validated value
// that *is* the graph's serving identity: the MTX file pair (resolved
// through the server's graph cache) or a pre-loaded in-memory graph, plus
// the locality reorder mode, which is part of the identity because the
// same files under different orderings are different in-memory graphs.
// Alongside the key a request carries the BpOptions to run with, an
// optional engine override, an optional GraphDelta (incremental re-query:
// evidence applies to the cached graph ephemerally, topology mutations go
// through the server's DynamicGraph entry, and either way only the
// perturbed region re-converges), a warm-start opt-in, a deadline budget
// and a cancellation token. A Response reports what happened: the terminal
// status (shared util::StatusCode vocabulary), the engine that ran, the
// BP result, whether the run warm-started and how much of the graph the
// frontier seed covered, and the queue/run timings the metrics layer
// aggregates. Requests compose with fluent with_* builders mirroring
// BpOptions; plain aggregate initialization keeps working.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stop_token>
#include <string>
#include <string_view>
#include <utility>

#include "bp/engine.h"
#include "graph/delta.h"
#include "graph/factor_graph.h"
#include "graph/reorder.h"
#include "util/error.h"

namespace credo::serve {

/// The serving identity of a graph. Exactly one of the two documented
/// forms is set (validate() enforces the invariant):
///  * `nodes_path`/`edges_path` — an MTX-belief file pair, loaded through
///    the server's GraphCache (repeat requests skip MTX parsing);
///  * `graph` — a pre-loaded in-memory graph, bypassing the cache.
/// The reorder mode is part of the key, not of the request: the same
/// files under kNone and a locality mode are two distinct cached entries
/// with different memory layouts, so they must never compare equal.
/// Response beliefs are always in the file's original node ids regardless
/// of mode. An inline graph takes no mode: nothing would cache the pass,
/// so preloaded callers reorder once themselves (graph::reordered) and
/// leave the mode at kNone.
struct GraphKey {
  std::string nodes_path;
  std::string edges_path;
  std::shared_ptr<const graph::FactorGraph> graph;
  graph::ReorderMode reorder = graph::ReorderMode::kNone;

  [[nodiscard]] bool inline_graph() const noexcept {
    return graph != nullptr;
  }

  static GraphKey files(std::string nodes, std::string edges) {
    GraphKey k;
    k.nodes_path = std::move(nodes);
    k.edges_path = std::move(edges);
    return k;
  }
  static GraphKey preloaded(std::shared_ptr<const graph::FactorGraph> g) {
    GraphKey k;
    k.graph = std::move(g);
    return k;
  }

  GraphKey& with_files(std::string nodes, std::string edges) {
    nodes_path = std::move(nodes);
    edges_path = std::move(edges);
    return *this;
  }
  GraphKey& with_preloaded(
      std::shared_ptr<const graph::FactorGraph> g) noexcept {
    graph = std::move(g);
    return *this;
  }
  GraphKey& with_reorder(graph::ReorderMode mode) noexcept {
    reorder = mode;
    return *this;
  }

  /// Enforces the two-form invariant: either both file paths (and no
  /// inline graph), or an inline graph (and no paths, no reorder mode).
  /// Mixed or empty forms are invalid-argument, never silently resolved.
  [[nodiscard]] util::Status validate() const {
    const bool has_paths = !nodes_path.empty() || !edges_path.empty();
    if (inline_graph() && has_paths) {
      return util::Status::invalid_argument(
          "GraphKey: an inline graph and file paths are mutually "
          "exclusive — use exactly one form");
    }
    if (inline_graph() && reorder != graph::ReorderMode::kNone) {
      return util::Status::invalid_argument(
          "GraphKey: an inline graph takes no reorder mode — reorder it "
          "once (graph::reordered) before preloading");
    }
    if (!inline_graph()) {
      if (nodes_path.empty() && edges_path.empty()) {
        return util::Status::invalid_argument(
            "GraphKey: names no graph (set nodes/edges paths or an inline "
            "graph)");
      }
      if (nodes_path.empty() || edges_path.empty()) {
        return util::Status::invalid_argument(
            "GraphKey: the file form needs both nodes_path and edges_path");
      }
    }
    return util::Status::ok();
  }

  /// Span/debug label: "nodes|edges[|mode]" or "inline".
  [[nodiscard]] std::string label() const {
    if (inline_graph()) return "inline";
    std::string s = nodes_path + '|' + edges_path;
    if (reorder != graph::ReorderMode::kNone) {
      s += '|';
      s += graph::reorder_mode_name(reorder);
    }
    return s;
  }
};

/// Per-request budgets; 0 = unlimited. Both are enforced cooperatively at
/// the runtime's convergence-check cadence (bp/runtime/stop.h).
struct Deadline {
  double host_seconds = 0.0;      // wall-clock budget for the engine run
  double modelled_seconds = 0.0;  // modelled-time budget (deterministic)

  Deadline& with_host_seconds(double v) noexcept {
    host_seconds = v;
    return *this;
  }
  Deadline& with_modelled_seconds(double v) noexcept {
    modelled_seconds = v;
    return *this;
  }

  [[nodiscard]] bool unlimited() const noexcept {
    return host_seconds == 0.0 && modelled_seconds == 0.0;
  }

  [[nodiscard]] bool operator==(const Deadline&) const noexcept = default;
};

/// One unit of work submitted to a Server.
struct Request {
  GraphKey graph;
  bp::BpOptions options;

  /// Engine override; nullopt = server default (dispatcher when enabled).
  std::optional<bp::EngineKind> engine;

  /// Incremental delta against the named graph (original node ids), in
  /// the unified GraphDelta vocabulary. Evidence-only deltas apply to the
  /// cached graph ephemerally — a cheap copy sharing structure and joint
  /// tables, visible to this request alone. Deltas carrying topology ops
  /// (add/remove edge/node, set_potential) mutate the server's persistent
  /// DynamicGraph entry for the file pair: the version bumps, later
  /// requests see the new topology, and warm beliefs migrate with only
  /// the touched region invalidated. Either way, when converged beliefs
  /// are warm and the engine supports frontier seeding, re-convergence
  /// runs from the delta's touched nodes outward instead of cold.
  std::optional<graph::GraphDelta> delta;

  /// Opt into belief warm-starting: when the server holds converged
  /// beliefs for this (graph version, engine) from an earlier request,
  /// start from them instead of the priors, and retain this run's
  /// converged beliefs for the next request. A request with `delta` set
  /// always starts from that state; an evidence delta retains nothing,
  /// since its fixed point is not the version's. Warm-starting is never
  /// load-bearing for correctness — a cache miss or an unsupported engine
  /// falls back to a cold run and the Response says so (`warm_start`
  /// stays false).
  bool warm_start = false;

  Deadline deadline;

  /// Client cancellation token (from a std::stop_source). Composed with
  /// the deadline budgets; default tokens never fire.
  std::stop_token cancel;

  /// Opaque client label echoed back in the Response.
  std::string tag;

  // -------------------------------------------------------------------------
  // Fluent builders, mirroring BpOptions::with_* (DESIGN.md §5c):
  //   Request{}.with_graph(GraphKey::files("n.mtx", "e.mtx")
  //                            .with_reorder(graph::ReorderMode::kBfs))
  //            .with_engine(kCpuNode)
  //            .with_deadline(Deadline{}.with_host_seconds(0.5))
  // -------------------------------------------------------------------------
  Request& with_graph(GraphKey k) {
    graph = std::move(k);
    return *this;
  }
  Request& with_files(std::string nodes, std::string edges) {
    graph = GraphKey::files(std::move(nodes), std::move(edges));
    return *this;
  }
  Request& with_preloaded(std::shared_ptr<const graph::FactorGraph> g) {
    graph = GraphKey::preloaded(std::move(g));
    return *this;
  }
  Request& with_options(bp::BpOptions o) noexcept {
    options = std::move(o);
    return *this;
  }
  Request& with_engine(bp::EngineKind kind) noexcept {
    engine = kind;
    return *this;
  }
  Request& with_delta(graph::GraphDelta d) {
    delta = std::move(d);
    return *this;
  }
  Request& with_warm_start(bool v = true) noexcept {
    warm_start = v;
    return *this;
  }
  Request& with_deadline(Deadline d) noexcept {
    deadline = d;
    return *this;
  }
  Request& with_cancel(std::stop_token token) noexcept {
    cancel = std::move(token);
    return *this;
  }
  Request& with_tag(std::string t) {
    tag = std::move(t);
    return *this;
  }

  /// Checks everything the server would reject before running: the graph
  /// key invariant, the BP options and the deadline budgets. (Evidence
  /// validation needs the parsed graph, so it happens at execute time.)
  /// Called by Server::submit — an invalid request resolves immediately
  /// with this status instead of failing mid-worker.
  [[nodiscard]] util::Status validate() const {
    if (auto s = graph.validate(); !s.is_ok()) return s;
    if (auto s = options.validate_status(); !s.is_ok()) return s;
    if (!(deadline.host_seconds >= 0.0) ||
        !(deadline.modelled_seconds >= 0.0)) {
      return util::Status::invalid_argument(
          "Request: deadline budgets must be >= 0");
    }
    return util::Status::ok();
  }
};

// Terminal status of a request: the shared vocabulary of util::StatusCode
// (DESIGN.md §5e), spelled directly — the pre-§5e serve::Status /
// serve::status_name aliases are gone. The serve-specific meanings:
//   kOk               ran to convergence or the iteration cap
//   kRejected         admission refused (queue full / server stopped)
//   kCancelled        client token fired (queued or mid-run)
//   kDeadlineExceeded a deadline budget expired mid-run
//   kInvalidArgument  request failed validation (mixed graph forms, ...)
//   kIo / kParse      the graph could not be loaded
//   kError            anything else that threw; see `error`

/// Collapses detailed error codes onto the five terminal accounting
/// categories (kOk/kRejected/kCancelled/kDeadlineExceeded/kError): the
/// identity `submitted == completed + rejected + cancelled +
/// deadline_expired + failed` counts every io/parse/invalid-argument
/// failure under `failed`.
[[nodiscard]] constexpr util::StatusCode terminal_category(
    util::StatusCode s) noexcept {
  switch (s) {
    case util::StatusCode::kOk:
    case util::StatusCode::kRejected:
    case util::StatusCode::kCancelled:
    case util::StatusCode::kDeadlineExceeded:
      return s;
    default:
      return util::StatusCode::kError;
  }
}

/// What came back. `result` is populated for kOk (and holds the partial
/// state reached for kDeadlineExceeded / mid-run kCancelled).
struct Response {
  util::StatusCode status = util::StatusCode::kError;
  bp::EngineKind engine = bp::EngineKind::kCpuNode;

  /// The run's result. When the server retains the run's state for later
  /// warm requests, the frontier moves into the warm table and
  /// `result.frontier` is left nullopt.
  bp::BpResult result;
  bool cache_hit = false;

  /// True when the run started from retained converged beliefs instead of
  /// the graph's priors. Always false on the first request for a graph,
  /// after the warm state was evicted, or when the engine does not
  /// support warm starts — the server falls back to a cold run rather
  /// than failing, and this flag is how that fallback stays honest.
  bool warm_start = false;

  /// Fraction of the graph's nodes on the initial schedule: 1.0 for a
  /// full sweep, `seeded / num_nodes` when the schedule started from a
  /// seed — an evidence delta's touched region, the stored run's open
  /// frontier (DESIGN.md §5h), or both; 0 when a resumed run's stored
  /// frontier was empty.
  double frontier_fraction = 1.0;

  /// Reason text for kRejected and the error codes.
  std::string error;

  double queue_seconds = 0.0;    // admission to dequeue
  double service_seconds = 0.0;  // dequeue to completion (host time)

  /// Span id of this request's trace record (obs/span.h); 0 when the
  /// server has no span log attached.
  std::uint64_t span_id = 0;

  /// Topology version of the graph this request ran against: 0 for the
  /// as-parsed files (or an inline graph), N after N accepted mutation
  /// batches. A request whose delta carried topology ops reports the
  /// version its mutation produced.
  std::uint64_t graph_version = 0;

  std::string tag;

  [[nodiscard]] bool ok() const noexcept { return status == util::StatusCode::kOk; }

  /// The engine that ran, as its stable CLI slug — derived from `engine`
  /// in exactly one place (bp::engine_slug) instead of being hand-copied
  /// into a string member on every response path.
  [[nodiscard]] std::string_view engine_name() const noexcept {
    return bp::engine_slug(engine);
  }

  /// End-to-end latency the client observed: queue wait plus service.
  [[nodiscard]] double total_seconds() const noexcept {
    return queue_seconds + service_seconds;
  }

  /// The status + message as one util::Status value.
  [[nodiscard]] util::Status to_status() const {
    return {status, error};
  }
};

}  // namespace credo::serve
