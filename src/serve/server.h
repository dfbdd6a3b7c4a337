// Credo as a service (DESIGN.md §5c): a Server owns the shared resources a
// concurrent inference workload needs — a worker team, one graph cache, one
// parallel::ThreadPool for CPU-parallel engines, and the §3.7 dispatcher —
// and exposes a future-based submit API with bounded-queue admission
// control, per-request deadlines and cooperative cancellation.
//
// Lifecycle: construct, submit() or submit_batch() from any thread,
// shutdown() (or destruct) to stop admission, drain and join. Every
// submitted request is accounted for exactly once: completed + rejected +
// cancelled + deadline_expired + failed == submitted once the server has
// drained. Single requests and batches share one path: one admission, one
// graph resolver and one finish, which resolves every request.
//
// Observability (DESIGN.md §5e): every request increments
// credo_requests_submitted_total and exactly one
// credo_requests_total{status=...} series in the attached
// obs::MetricsRegistry (the process-wide one by default); queue wait and
// run time feed separate histograms, the cache reports hits/misses/
// evictions, warm runs count by how they started
// (credo_warm_runs_total{start=...}) with their seed sizes in a histogram,
// and — when a SpanLog is attached — each request leaves one Span tracing
// its queue/parse/run/unpermute phases, warm start and terminal status.
//
// Concurrency model: requests run on the server's worker threads; graphs
// are immutable after parse, so any number of requests share one cached
// FactorGraph. The shared ThreadPool supports one dispatcher at a time
// (OpenMP's single-team model), so requests that select a CPU-parallel
// engine serialize on it; everything else runs fully concurrently.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bp/engine.h"
#include "credo/dispatcher.h"
#include "graph/dynamic.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "parallel/thread_pool.h"
#include "serve/graph_cache.h"
#include "serve/request.h"

namespace credo::serve {

struct ServerOptions {
  /// Request worker threads. 0 is allowed: nothing drains until shutdown
  /// (which then rejects the queue) — useful for deterministic admission
  /// tests and manual draining.
  unsigned workers = 2;

  /// Admission queue bound; submits beyond it are rejected with a reason
  /// (backpressure, never silent drops).
  std::size_t queue_capacity = 32;

  /// Parsed graphs kept by the LRU cache.
  std::size_t cache_capacity = 4;

  /// Team size of the shared parallel::ThreadPool used by CPU-parallel
  /// engines (matches the paper's 8-thread profile by default).
  unsigned pool_threads = 8;

  /// Engine for requests without an override when the dispatcher is off
  /// (or still unavailable).
  bp::EngineKind default_engine = bp::EngineKind::kCpuNode;

  /// Route override-free requests through the §3.7 random-forest
  /// dispatcher. It is built lazily on the first such request: loaded from
  /// `dispatcher_model` when set, otherwise trained on the bold benchmark
  /// subset (expensive — prefer a pre-trained model in serving setups).
  bool use_dispatcher = true;
  std::string dispatcher_model;

  /// Metrics registry the server (and its GraphCache) report into. Null =
  /// obs::MetricsRegistry::global(). Not owned; must outlive the server.
  obs::MetricsRegistry* metrics = nullptr;

  /// Span log for per-request traces. Null = spans are not recorded
  /// (counters and histograms still are). Not owned; must outlive the
  /// server.
  obs::SpanLog* spans = nullptr;
};

/// Monotonic counters; identity after drain:
/// submitted == completed + rejected + cancelled + deadline_expired + failed.
/// Mirrored series-for-series in the metrics registry
/// (credo_requests_total{status=...}) — the registry is the scrapeable
/// source of truth; this struct remains as the in-process convenience view.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;         // util::StatusCode::kOk
  std::uint64_t rejected = 0;          // util::StatusCode::kRejected
  std::uint64_t cancelled = 0;         // util::StatusCode::kCancelled
  std::uint64_t deadline_expired = 0;  // util::StatusCode::kDeadlineExceeded
  std::uint64_t failed = 0;            // any error code (io/parse/...)
  std::uint64_t mutations = 0;         // accepted topology mutation batches
  CacheStats cache;

  [[nodiscard]] std::uint64_t finished() const noexcept {
    return completed + rejected + cancelled + deadline_expired + failed;
  }
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits a request. Never blocks: invalid requests (Request::validate)
  /// resolve immediately with the validation status, over-capacity or
  /// post-shutdown submissions with util::StatusCode::kRejected and a reason.
  [[nodiscard]] std::future<Response> submit(Request req);

  /// Submits many small independent requests as ONE unit of work
  /// (DESIGN.md §5h): the batch takes a single admission-queue slot, the
  /// member graphs are fused into a disjoint-union super-graph, one engine
  /// run converges all of them together, and the fused beliefs are
  /// scattered back into one Response per member (original node ids,
  /// per-member LDPC syndrome status re-checked per part). Every member
  /// still counts individually in the accounting identity. Members must be
  /// fusable with the batch head: same factor family, same options, same
  /// deadline, same engine override, no reorder, no evidence — a member
  /// that is not gets kInvalidArgument while the rest of the batch
  /// proceeds. The fused run takes the head's deadline; when it fires,
  /// every fused member resolves kDeadlineExceeded. Otherwise a member
  /// whose cancel token fired resolves kCancelled (before the run when
  /// already fired, at scatter time when it fired mid-run). Returns one
  /// future per member, index-aligned with `requests`.
  [[nodiscard]] std::vector<std::future<Response>> submit_batch(
      std::vector<Request> requests);

  /// Stops admission, drains the queue (workers finish queued requests;
  /// with zero workers the queue is rejected) and joins. Idempotent;
  /// called by the destructor.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const GraphCache& cache() const noexcept { return cache_; }

  /// The registry this server reports into (options().metrics or the
  /// process-wide one).
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }

 private:
  /// One admission-queue slot: a single request or a whole batch. Member
  /// promises are index-aligned with `requests`; `resolved[i]` marks
  /// members already finished (validation failures at submit time), which
  /// the worker must skip. `dequeued` is set when a worker takes the slot.
  struct Pending {
    std::vector<Request> requests;
    std::vector<std::promise<Response>> promises;
    std::vector<char> resolved;
    std::chrono::steady_clock::time_point enqueued;
    std::optional<std::chrono::steady_clock::time_point> dequeued;
    bool batch = false;
  };

  /// A request's graph as resolve() found it. A file key has its parsed
  /// cache entry and that entry's current version (the latest mutation
  /// snapshot, or the entry itself); an inline key has only its graph.
  struct Resolved {
    std::shared_ptr<const CachedGraph> parsed;
    std::shared_ptr<const CachedGraph> current;
    const graph::FactorGraph* graph = nullptr;
    bool cache_hit = false;
  };

  /// Persistent mutable state for one file-backed graph that has received
  /// topology mutations (DESIGN.md §5j). `current` is the immutable
  /// snapshot at the latest version — it SUPERSEDES the parsed cache entry
  /// for every later request naming the same files, so queries keep seeing
  /// the mutated topology even after LRU eviction re-parses the original
  /// bytes. Mutations serialize on `mu`; readers take it only long enough
  /// to copy the `current` shared_ptr, so queries overlap with each other
  /// and only wait while a new snapshot is being published.
  struct DynamicEntry {
    explicit DynamicEntry(graph::DynamicGraph d) : dyn(std::move(d)) {}
    std::mutex mu;
    graph::DynamicGraph dyn;
    std::shared_ptr<const CachedGraph> current;
  };

  /// The one admission path of submit() and submit_batch(): counts every
  /// member, resolves the invalid ones, then enqueues the rest as one slot
  /// or rejects them with a reason.
  [[nodiscard]] std::vector<std::future<Response>> admit(
      std::vector<Request> requests, bool batch);

  /// The one exit of every request: stamps the tag, the queue and service
  /// times (observed in the histograms only once a worker dequeued it),
  /// records its one span, counts its terminal status and resolves its
  /// promise.
  void finish(Pending& pending, std::size_t i, Response resp,
              obs::Span span = {});

  void worker_loop();
  void execute(Pending& pending);
  void execute_batch(Pending& pending);

  /// The graph a key names: the cache entry for a file pair, superseded by
  /// its dynamic entry's current version once mutated, or the inline
  /// graph. Throws like GraphCache::fetch.
  [[nodiscard]] Resolved resolve(const GraphKey& key);
  /// The current dynamic snapshot for a parsed entry's key, or null when
  /// the graph was never mutated.
  [[nodiscard]] std::shared_ptr<const CachedGraph> dynamic_current(
      const std::string& base_key);

  /// Applies a topology-carrying delta to the graph's DynamicEntry
  /// (creating it from the parsed entry on first mutation), publishes the
  /// new snapshot as `resolved.current`, and moves the engine's warm state
  /// to it — beliefs with only the touched region reset, open frontier
  /// and its queue bar as they were. `touched` receives the frontier
  /// seed. A failed validation returns the error status and mutates
  /// nothing.
  [[nodiscard]] util::Status apply_mutation(const graph::GraphDelta& delta,
                                            bp::EngineKind kind,
                                            Resolved& resolved,
                                            std::vector<graph::NodeId>& touched);
  [[nodiscard]] bp::EngineKind choose_engine(
      const graph::FactorGraph& g, const graph::GraphMetadata* md);
  void count(util::StatusCode s);

  ServerOptions options_;
  obs::MetricsRegistry& metrics_;
  GraphCache cache_;
  parallel::ThreadPool pool_;
  std::mutex pool_mu_;  // the pool supports one dispatcher at a time

  // Registry handles, resolved once at construction (sharded cells make
  // the per-request increments contention-free).
  obs::Counter& m_submitted_;
  obs::Counter* m_finished_[5];  // indexed by terminal_category value
  obs::Histogram& m_queue_seconds_;
  obs::Histogram& m_run_seconds_;
  obs::Gauge& m_queue_depth_;
  obs::Histogram& m_batch_occupancy_;
  obs::Histogram& m_delta_size_;
  obs::Counter& m_mutations_;
  obs::Counter* m_warm_runs_[3];  // indexed by how the warm run started
  obs::Histogram& m_warm_seed_nodes_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  ServerStats stats_;
  std::vector<std::thread> workers_;

  std::once_flag dispatcher_once_;
  std::unique_ptr<dispatch::Dispatcher> dispatcher_;

  // Dynamic graphs, keyed by the parsed entry's cache key (paths + content
  // hash + mode, NO version — the entry spans all versions of that file
  // pair). Entries are created on the first topology mutation and live for
  // the server's lifetime; dyn_mu_ guards only the map, each entry has its
  // own mutex.
  std::mutex dyn_mu_;
  std::unordered_map<std::string, std::shared_ptr<DynamicEntry>> dynamic_;
};

}  // namespace credo::serve
