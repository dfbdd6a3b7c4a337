#include "serve/server.h"

#include <chrono>
#include <numeric>
#include <utility>

#include "credo/suite.h"
#include "credo/trainer.h"
#include "graph/disjoint_union.h"
#include "graph/metadata.h"
#include "graph/reorder.h"
#include "util/timer.h"

namespace credo::serve {
namespace {

obs::MetricsRegistry& resolve_registry(const ServerOptions& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::global();
}

constexpr const char* kRequestsTotal = "credo_requests_total";
constexpr const char* kRequestsTotalHelp =
    "Requests finished, by terminal status (submitted == sum over statuses "
    "after drain)";

/// How a warm run started, the `start` label of credo_warm_runs_total:
/// from the stored run's open frontier (with a delta's touched nodes, if
/// any), from a delta's touched nodes alone, or over every node.
enum WarmStart : std::uint8_t { kResumed, kSeeded, kFullSweep };
constexpr const char* kWarmStartNames[] = {"resumed", "seeded", "full_sweep"};

/// The BpOptions knobs that must agree for two requests to share one
/// fused engine run. Scheduling/pool knobs follow the batch head.
bool fusable_options(const bp::BpOptions& a, const bp::BpOptions& b) noexcept {
  return a.convergence_threshold == b.convergence_threshold &&
         a.max_iterations == b.max_iterations &&
         a.work_queue == b.work_queue &&
         a.queue_threshold == b.queue_threshold &&
         a.damping == b.damping && a.syndrome_stop == b.syndrome_stop;
}

/// `opts` with a request's deadline budgets armed (0 = unlimited).
bp::BpOptions budgeted(bp::BpOptions opts, const Deadline& d) {
  if (d.host_seconds > 0.0) opts.with_host_deadline(d.host_seconds);
  if (d.modelled_seconds > 0.0) {
    opts.with_modelled_deadline(d.modelled_seconds);
  }
  return opts;
}

/// Runs `engine` on `g`, on the server's shared pool when the engine
/// dispatches fork/join regions. Exactly the engines on the CPU-parallel
/// profile do (omp-node, omp-edge, bulk-residual): each requires that
/// profile, and no other engine has it. The pool runs a single team at a
/// time, so those runs serialize on `pool_mu`.
bp::BpResult run_engine(const bp::Engine& engine, const graph::FactorGraph& g,
                        const bp::BpOptions& opts, parallel::ThreadPool& pool,
                        std::mutex& pool_mu) {
  if (engine.hardware().kind != perf::PlatformKind::kCpuParallel) {
    return engine.run(g, opts);
  }
  std::lock_guard<std::mutex> pool_lock(pool_mu);
  return engine.run(g, bp::BpOptions(opts).with_shared_pool(&pool));
}

/// A response that carries only a terminal status and its reason.
Response status_response(util::StatusCode status, std::string reason) {
  Response r;
  r.status = status;
  r.error = std::move(reason);
  return r;
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      metrics_(resolve_registry(options_)),
      cache_(options_.cache_capacity, &metrics_),
      pool_(options_.pool_threads == 0 ? 1 : options_.pool_threads),
      m_submitted_(metrics_.counter("credo_requests_submitted_total",
                                    "Requests accepted for accounting "
                                    "(every submit counts exactly once)")),
      m_queue_seconds_(metrics_.histogram(
          "credo_request_queue_seconds",
          "Admission-to-dequeue wait of executed requests (queue wait "
          "only, no run time)",
          obs::default_latency_buckets())),
      m_run_seconds_(metrics_.histogram(
          "credo_request_run_seconds",
          "Dequeue-to-completion time of executed requests (parse + "
          "engine run, no queue wait)",
          obs::default_latency_buckets())),
      m_queue_depth_(metrics_.gauge("credo_queue_depth",
                                    "Requests waiting in the admission "
                                    "queue")),
      m_batch_occupancy_(metrics_.histogram(
          "credo_batch_occupancy",
          "Members per fused batch that reached the engine run",
          obs::pow2_buckets(10))),
      m_delta_size_(metrics_.histogram(
          "credo_evidence_delta_size",
          "Operations per delta-carrying request (evidence or topology)",
          obs::pow2_buckets(12))),
      m_mutations_(metrics_.counter(
          "credo_mutations_total",
          "Topology mutation batches accepted and applied to a dynamic "
          "graph")),
      m_warm_seed_nodes_(metrics_.histogram(
          "credo_warm_seed_nodes",
          "Nodes a resumed or delta-seeded warm run's schedule started from",
          obs::decade_buckets(8))) {
  for (const WarmStart start : {kResumed, kSeeded, kFullSweep}) {
    m_warm_runs_[start] = &metrics_.counter(
        "credo_warm_runs_total",
        "Warm-started engine runs, by how they started: resumed from the "
        "stored open frontier, seeded from a delta's touched nodes alone, "
        "or a full sweep",
        {{"start", kWarmStartNames[start]}});
  }
  const util::StatusCode categories[5] = {
      util::StatusCode::kOk, util::StatusCode::kRejected,
      util::StatusCode::kCancelled, util::StatusCode::kDeadlineExceeded,
      util::StatusCode::kError};
  for (const util::StatusCode s : categories) {
    m_finished_[static_cast<std::size_t>(s)] = &metrics_.counter(
        kRequestsTotal, kRequestsTotalHelp,
        {{"status", util::status_code_name(s)}});
  }
  workers_.reserve(options_.workers);
  for (unsigned i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(); }

std::future<Response> Server::submit(Request req) {
  std::vector<Request> one;
  one.push_back(std::move(req));
  return std::move(admit(std::move(one), false).front());
}

std::vector<std::future<Response>> Server::submit_batch(
    std::vector<Request> requests) {
  return admit(std::move(requests), true);
}

std::vector<std::future<Response>> Server::admit(
    std::vector<Request> requests, bool batch) {
  Pending p;
  p.batch = batch;
  p.requests = std::move(requests);
  const std::size_t n = p.requests.size();
  p.promises.resize(n);
  p.resolved.assign(n, 0);
  std::vector<std::future<Response>> futures;
  futures.reserve(n);
  for (auto& promise : p.promises) futures.push_back(promise.get_future());
  if (n == 0) return futures;

  // Every member counts in the accounting identity individually, exactly
  // as if it had been submitted alone.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.submitted += n;
  }
  m_submitted_.inc(n);

  // Validation failures resolve now with the shared status vocabulary —
  // they never consume queue capacity or a worker. The survivors stay
  // index-aligned (resolved[] marks the finished slots for the worker).
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (const util::Status valid = p.requests[i].validate(); !valid.is_ok()) {
      finish(p, i, status_response(valid.code(), valid.message()));
    } else {
      ++live;
    }
  }
  if (live == 0) return futures;

  // One admission decision per slot: a batch occupies one.
  std::string reject_reason;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      reject_reason = "server stopped";
    } else if (queue_.size() >= options_.queue_capacity) {
      reject_reason = "admission queue full (capacity " +
                      std::to_string(options_.queue_capacity) + ")";
    } else {
      p.enqueued = std::chrono::steady_clock::now();
      queue_.push_back(std::move(p));
      m_queue_depth_.set(static_cast<double>(queue_.size()));
    }
  }
  if (reject_reason.empty()) {
    cv_.notify_one();
    return futures;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!p.resolved[i]) {
      finish(p, i, status_response(util::StatusCode::kRejected, reject_reason));
    }
  }
  return futures;
}

void Server::finish(Pending& pending, std::size_t i, Response resp,
                    obs::Span span) {
  const Request& req = pending.requests[i];
  resp.tag = req.tag;
  if (pending.dequeued) {
    resp.queue_seconds = seconds_between(pending.enqueued, *pending.dequeued);
    resp.service_seconds = seconds_between(*pending.dequeued,
                                           std::chrono::steady_clock::now());
    m_queue_seconds_.observe(resp.queue_seconds);
    m_run_seconds_.observe(resp.service_seconds);
  }
  if (options_.spans != nullptr) {
    span.id = obs::next_span_id();
    resp.span_id = span.id;
    span.tag = req.tag;
    span.graph = req.graph.label();
    span.queue_s = resp.queue_seconds;
    span.status = util::status_code_name(resp.status);
    span.error = resp.error;
    options_.spans->record(std::move(span));
  }
  count(resp.status);
  pending.resolved[i] = 1;
  pending.promises[i].set_value(std::move(resp));
}

void Server::shutdown() {
  std::deque<Pending> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty() && queue_.empty()) return;
    stopping_ = true;
    if (workers_.empty()) {
      // No one will drain: resolve every queued promise as rejected so the
      // accounting identity holds. Resolved outside the lock.
      orphaned.swap(queue_);
      m_queue_depth_.set(0.0);
    }
  }
  for (auto& pending : orphaned) {
    for (std::size_t i = 0; i < pending.requests.size(); ++i) {
      if (!pending.resolved[i]) {
        finish(pending, i, status_response(util::StatusCode::kRejected,
                                           "server stopped"));
      }
    }
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats s = stats_;
  s.cache = cache_.stats();
  return s;
}

void Server::count(util::StatusCode s) {
  const util::StatusCode category = terminal_category(s);
  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (category) {
      case util::StatusCode::kOk: ++stats_.completed; break;
      case util::StatusCode::kRejected: ++stats_.rejected; break;
      case util::StatusCode::kCancelled: ++stats_.cancelled; break;
      case util::StatusCode::kDeadlineExceeded:
        ++stats_.deadline_expired;
        break;
      default: ++stats_.failed; break;
    }
  }
  m_finished_[static_cast<std::size_t>(category)]->inc();
}

void Server::worker_loop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      pending = std::move(queue_.front());
      queue_.pop_front();
      m_queue_depth_.set(static_cast<double>(queue_.size()));
    }
    pending.dequeued = std::chrono::steady_clock::now();
    if (pending.batch) {
      execute_batch(pending);
    } else {
      execute(pending);
    }
  }
}

bp::EngineKind Server::choose_engine(const graph::FactorGraph& g,
                                     const graph::GraphMetadata* md) {
  // The §3.7 dispatcher is trained on tabular workloads and may pick a
  // device engine; closed-form families route straight to an LDPC-capable
  // engine instead (DESIGN.md §5g). Explicit per-request overrides still
  // apply and are capability-checked by Engine::run.
  if (graph::is_ldpc(g.family())) {
    return bp::engine_supports_family(options_.default_engine, g.family())
               ? options_.default_engine
               : bp::EngineKind::kBulkResidual;
  }
  if (!options_.use_dispatcher) return options_.default_engine;
  std::call_once(dispatcher_once_, [&] {
    if (!options_.dispatcher_model.empty()) {
      dispatcher_ = std::make_unique<dispatch::Dispatcher>(
          dispatch::Dispatcher::load(options_.dispatcher_model));
      return;
    }
    // No pre-trained model: train on the bold benchmark subset, exactly as
    // `credo run --engine auto` does. Expensive — done once per server.
    dispatch::TrainerConfig tcfg;
    const auto runs =
        dispatch::benchmark_suite(suite::table1_bold(), {2u, 3u}, tcfg);
    dispatcher_ = std::make_unique<dispatch::Dispatcher>(
        dispatch::Dispatcher::train(runs));
  });
  if (md != nullptr) return dispatcher_->choose(*md);
  return dispatcher_->choose(graph::compute_metadata(g));
}

Server::Resolved Server::resolve(const GraphKey& key) {
  Resolved r;
  if (key.inline_graph()) {
    r.graph = key.graph.get();
    return r;
  }
  auto fetched = cache_.fetch(key.nodes_path, key.edges_path, key.reorder);
  r.parsed = std::move(fetched.entry);
  r.cache_hit = fetched.hit;
  // A mutated graph's dynamic snapshot supersedes the parsed bytes: once
  // topology changed server-side, every request naming these files sees
  // the current version, even after an LRU eviction re-parsed the
  // original (unchanged) files.
  r.current = dynamic_current(r.parsed->key);
  if (r.current == nullptr) r.current = r.parsed;
  r.graph = r.current->graph.get();
  return r;
}

std::shared_ptr<const CachedGraph> Server::dynamic_current(
    const std::string& base_key) {
  std::shared_ptr<DynamicEntry> entry;
  {
    std::lock_guard<std::mutex> lock(dyn_mu_);
    const auto it = dynamic_.find(base_key);
    if (it == dynamic_.end()) return nullptr;
    entry = it->second;
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  return entry->current;
}

util::Status Server::apply_mutation(const graph::GraphDelta& delta,
                                    bp::EngineKind kind, Resolved& resolved,
                                    std::vector<graph::NodeId>& touched) {
  const CachedGraph& parsed = *resolved.parsed;
  // Get or create the dynamic entry. Construction happens outside dyn_mu_
  // (folding a reordered graph back to original ids is not map-lock work);
  // if two first mutations race, the emplace loser's entry is dropped and
  // both apply against the winner's.
  std::shared_ptr<DynamicEntry> entry;
  {
    std::lock_guard<std::mutex> lock(dyn_mu_);
    const auto it = dynamic_.find(parsed.key);
    if (it != dynamic_.end()) entry = it->second;
  }
  if (entry == nullptr) {
    auto fresh = std::make_shared<DynamicEntry>(
        graph::DynamicGraph::from_graph(*parsed.graph));
    std::lock_guard<std::mutex> lock(dyn_mu_);
    entry = dynamic_.emplace(parsed.key, std::move(fresh)).first->second;
  }

  std::lock_guard<std::mutex> lock(entry->mu);
  const std::string old_key =
      entry->current != nullptr ? entry->current->key : parsed.key;
  if (const util::Status s = entry->dyn.apply(delta); !s.is_ok()) {
    return s;
  }
  touched = entry->dyn.last_touched();

  auto next = std::make_shared<CachedGraph>();
  next->graph = entry->dyn.snapshot();
  next->metadata = graph::compute_metadata(*next->graph);
  next->version = entry->dyn.version();
  next->key = parsed.key + "#v" + std::to_string(next->version);

  // Move the engine's warm state across the version bump: the old fixed
  // point with the touched region (and any new nodes) reset to priors is
  // a nearly-converged starting point for the new topology, and nothing
  // resolves the superseded version again, so its entry goes. Node ids
  // are stable across versions, so the open frontier carries over, joined
  // by the touched nodes: a repeat that resumes it before this request's
  // own run lands must re-converge the region the reset left at priors.
  if (WarmState warm = cache_.warm_take(old_key, kind);
      warm.beliefs != nullptr) {
    warm.beliefs = std::make_shared<const std::vector<graph::BeliefVec>>(
        entry->dyn.patch_beliefs(*warm.beliefs));
    if (warm.frontier != nullptr) {
      auto open = std::make_shared<std::vector<graph::NodeId>>(*warm.frontier);
      open->insert(open->end(), touched.begin(), touched.end());
      warm.frontier = std::move(open);
    }
    cache_.warm_store(next->key, kind, std::move(warm));
  }
  entry->current = next;
  resolved.current = std::move(next);
  resolved.graph = resolved.current->graph.get();
  return util::Status::ok();
}

void Server::execute(Pending& pending) {
  Request& req = pending.requests[0];
  Response resp;
  obs::Span span;
  if (req.cancel.stop_requested()) {
    // A request cancelled while queued never starts.
    resp.status = util::StatusCode::kCancelled;
    finish(pending, 0, std::move(resp), std::move(span));
    return;
  }

  try {
    const bool has_delta = req.delta && !req.delta->empty();
    const bool mutates = has_delta && req.delta->has_topology();
    if (mutates && req.graph.inline_graph()) {
      throw util::InvalidArgument(
          "topology mutations need a file-backed graph — inline graphs "
          "have no server-side dynamic state to mutate");
    }
    const util::Timer parse_timer;
    Resolved resolved = resolve(req.graph);
    span.parse_s = parse_timer.seconds();
    resp.cache_hit = resolved.cache_hit;
    span.cache_hit = resp.cache_hit;

    const bp::EngineKind kind =
        req.engine ? *req.engine
                   : choose_engine(*resolved.graph,
                                   resolved.current != nullptr
                                       ? &resolved.current->metadata
                                       : nullptr);
    resp.engine = kind;
    span.engine = std::string(resp.engine_name());

    // Apply the delta. Topology ops mutate the persistent DynamicGraph
    // entry (version bump, snapshot publish, warm migration); evidence
    // ops rewrite priors/observations on a cheap structural copy visible
    // to this request alone — the edge lists, CSRs and joint tables stay
    // shared either way.
    const graph::FactorGraph* g = resolved.graph;
    graph::FactorGraph evidenced;
    std::vector<graph::NodeId> seed_nodes;
    if (mutates) {
      if (const util::Status s =
              apply_mutation(*req.delta, kind, resolved, seed_nodes);
          !s.is_ok()) {
        throw util::InvalidArgument(s.message());
      }
      g = resolved.graph;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.mutations;
      }
      m_mutations_.inc();
    } else if (has_delta) {
      evidenced = graph::with_delta(*g, *req.delta, &seed_nodes);
      g = &evidenced;
    }
    if (has_delta) {
      m_delta_size_.observe(static_cast<double>(req.delta->size()));
    }
    if (resolved.current != nullptr) {
      resp.graph_version = resolved.current->version;
    }

    bp::BpOptions opts = budgeted(req.options, req.deadline);
    opts.with_stop(req.cancel);

    // Warm start (DESIGN.md §5h/§5j). The cache retains one converged
    // state per (graph version, engine): the version's CachedGraph::key
    // carries its "#vN", and a mutation migrated the state to the new
    // version above. A queued request on an engine that takes seeds
    // resumes the stored run's work queue when the state holds an open
    // frontier produced under a queue bar no tighter than its own: the
    // frontier is stored only when the run that left it started from every
    // node or from such a frontier, and that run's schedule woke the
    // children of every node it moved by more than the bar, so no node
    // outside it has a parent move it has not seen. An evidence delta is
    // seeded from its touched nodes, plus that frontier when it qualifies,
    // so only the perturbed neighbourhood re-converges. Any other queued
    // warm request on such an engine sweeps every node as a seed, leaving
    // a frontier the next repeat can resume; the rest sweep every node
    // unseeded. Any miss, or an engine without warm support, falls back to
    // a cold full run — warm state is an accelerator, never a correctness
    // dependency.
    const bool wants_warm =
        (req.warm_start || has_delta) && resolved.current != nullptr &&
        bp::engine_supports_warm_start(kind, g->family());
    WarmStart start = kFullSweep;
    if (wants_warm) {
      WarmState warm = cache_.warm_lookup(resolved.current->key, kind);
      if (warm.beliefs != nullptr && warm.beliefs->size() == g->num_nodes()) {
        opts.with_init_beliefs(std::move(warm.beliefs));
        resp.warm_start = true;
        const bool seeds =
            bp::engine_supports_frontier_seed(kind, g->family());
        const bool queued = seeds && opts.work_queue;
        const bool resume = queued && warm.frontier != nullptr &&
                            opts.queue_threshold >= warm.queue_threshold;
        if (has_delta && !seed_nodes.empty() && seeds) {
          if (resume) {
            seed_nodes.insert(seed_nodes.end(), warm.frontier->begin(),
                              warm.frontier->end());
          }
          opts.with_frontier_seed(
              std::make_shared<const std::vector<graph::NodeId>>(
                  std::move(seed_nodes)));
          start = resume ? kResumed : kSeeded;
        } else if (resume) {
          opts.with_frontier_seed(std::move(warm.frontier));
          start = kResumed;
        } else if (queued) {
          std::vector<graph::NodeId> every(g->num_nodes());
          std::iota(every.begin(), every.end(), graph::NodeId{0});
          opts.with_frontier_seed(
              std::make_shared<const std::vector<graph::NodeId>>(
                  std::move(every)));
        }
      }
    }
    // The frontier damping floor is for regions a delta perturbed; a
    // repeat continues the stored run at the caller's own damping.
    if (!has_delta) opts.frontier_damping = 0.0f;

    const util::Timer run_timer;
    const auto engine = bp::make_default_engine(kind);
    bp::BpResult result = run_engine(*engine, *g, opts, pool_, pool_mu_);
    span.unpermute_s = result.stats.unpermute_seconds;
    span.run_s = run_timer.seconds() - span.unpermute_s;
    span.run_modelled_s = result.stats.modelled_seconds();
    span.iterations = result.stats.iterations;
    const bool partial = opts.frontier_seed != nullptr && start != kFullSweep;
    if (partial && g->num_nodes() > 0) {
      resp.frontier_fraction =
          static_cast<double>(result.stats.frontier_seeded) /
          static_cast<double>(g->num_nodes());
    }
    if (resp.warm_start) {
      m_warm_runs_[start]->inc();
      span.warm = kWarmStartNames[start];
      if (partial) {
        span.seed_nodes = result.stats.frontier_seeded;
        m_warm_seed_nodes_.observe(
            static_cast<double>(result.stats.frontier_seeded));
      }
    }

    switch (result.stats.stop_reason) {
      case bp::runtime::StopReason::kNone:
        resp.status = util::StatusCode::kOk;
        break;
      case bp::runtime::StopReason::kCancelled:
        resp.status = util::StatusCode::kCancelled;
        break;
      case bp::runtime::StopReason::kDeadline:
        resp.status = util::StatusCode::kDeadlineExceeded;
        break;
    }

    // Retain the converged run as the version's state for the next warm
    // request: its beliefs, and its open frontier (moved, not copied)
    // with the queue bar it was produced under — unless the run started
    // from a delta's touched nodes alone, whose frontier says nothing of
    // the nodes the stored state left unsettled. An evidence delta's fixed
    // point belongs to its own evidence, not to the version, so it stores
    // nothing; nor does a run whose version a mutation superseded
    // meanwhile, since no request resolves that version again.
    // Non-converged or non-ok runs retain nothing — a partial fixed point
    // would poison later warm starts.
    const bool evidence_only = has_delta && !mutates;
    if (wants_warm && !evidence_only &&
        resp.status == util::StatusCode::kOk && result.stats.converged) {
      const auto latest = dynamic_current(resolved.parsed->key);
      if (latest == nullptr || latest == resolved.current) {
        WarmState state;
        state.beliefs = std::make_shared<const std::vector<graph::BeliefVec>>(
            result.beliefs);
        if (result.frontier && start != kSeeded) {
          state.frontier = std::make_shared<const std::vector<graph::NodeId>>(
              std::move(*result.frontier));
          result.frontier.reset();
        }
        state.queue_threshold = opts.queue_threshold;
        cache_.warm_store(resolved.current->key, kind, std::move(state));
      }
    }
    resp.result = std::move(result);
  } catch (const std::exception& e) {
    // Map through the shared vocabulary: parse/io/invalid-argument keep
    // their codes (all counted under `failed`), anything else is kError.
    const util::Status st = util::status_from_exception(e);
    resp.status = st.code();
    resp.error = st.message();
  }
  finish(pending, 0, std::move(resp), std::move(span));
}

void Server::execute_batch(Pending& pending) {
  const std::size_t n = pending.requests.size();
  const auto fail = [&](std::size_t i, util::StatusCode code,
                        std::string reason) {
    finish(pending, i, status_response(code, std::move(reason)));
  };

  // Pre-run member triage: already-fired cancel tokens, then fusability
  // against the batch head (the first live member). Rejecting a member
  // never sinks the batch — the rest still fuse and run.
  std::size_t head = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (pending.resolved[i]) continue;
    if (pending.requests[i].cancel.stop_requested()) {
      fail(i, util::StatusCode::kCancelled, "");
      continue;
    }
    if (head == n) head = i;
  }
  if (head == n) return;  // nothing left to run

  std::vector<std::size_t> live;
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pending.resolved[i]) continue;
    const Request& req = pending.requests[i];
    const Request& ref = pending.requests[head];
    if (req.graph.reorder != graph::ReorderMode::kNone) {
      fail(i, util::StatusCode::kInvalidArgument,
           "batch members must not reorder — fused parts cannot carry "
           "per-part permutations");
      continue;
    }
    if (req.delta && !req.delta->empty()) {
      fail(i, util::StatusCode::kInvalidArgument,
           "batch members cannot carry deltas (submit evidence or mutation "
           "re-queries individually)");
      continue;
    }
    if (req.engine != ref.engine) {
      fail(i, util::StatusCode::kInvalidArgument,
           "batch member engine override differs from the batch head");
      continue;
    }
    if (!fusable_options(req.options, ref.options)) {
      fail(i, util::StatusCode::kInvalidArgument,
           "batch member options differ from the batch head");
      continue;
    }
    if (req.deadline != ref.deadline) {
      fail(i, util::StatusCode::kInvalidArgument,
           "batch member deadline differs from the batch head");
      continue;
    }
    live.push_back(i);
  }
  if (live.empty()) return;

  // Resolve every live member's graph. graphs[] keeps the cache entries
  // alive across the fused run; a member whose load fails drops out alone.
  std::vector<Resolved> graphs(n);
  std::vector<const graph::FactorGraph*> parts;
  std::vector<std::size_t> fused_members;
  parts.reserve(live.size());
  fused_members.reserve(live.size());
  for (const std::size_t i : live) {
    try {
      graphs[i] = resolve(pending.requests[i].graph);
      const graph::FactorGraph* g = graphs[i].graph;
      if (g->permutation() != nullptr) {
        fail(i, util::StatusCode::kInvalidArgument,
             "batch members must not carry a reorder permutation");
        continue;
      }
      if (!parts.empty() && g->family() != parts[0]->family()) {
        fail(i, util::StatusCode::kInvalidArgument,
             "batch member factor family differs from the batch head");
        continue;
      }
      parts.push_back(g);
      fused_members.push_back(i);
    } catch (const std::exception& e) {
      const util::Status st = util::status_from_exception(e);
      fail(i, st.code(), st.message());
    }
  }
  if (fused_members.empty()) return;

  // Fuse, run once under the members' shared deadline, scatter. Per-member
  // cancel tokens cannot stop a shared run, so they are honoured at the
  // boundaries: before the run (above) and at scatter time below.
  try {
    const graph::GraphUnion fused = graph::disjoint_union(
        std::span<const graph::FactorGraph* const>(parts));
    const graph::FactorGraph& g = fused.graph();
    const Request& ref = pending.requests[fused_members[0]];
    const bp::EngineKind kind =
        ref.engine ? *ref.engine : choose_engine(g, nullptr);
    m_batch_occupancy_.observe(static_cast<double>(fused_members.size()));

    const auto engine = bp::make_default_engine(kind);
    const bp::BpResult result = run_engine(
        *engine, g, budgeted(ref.options, ref.deadline), pool_, pool_mu_);
    const bool expired =
        result.stats.stop_reason == bp::runtime::StopReason::kDeadline;

    const bool is_ldpc = graph::is_ldpc(g.family());
    for (std::size_t k = 0; k < fused_members.size(); ++k) {
      const std::size_t i = fused_members[k];
      Response resp;
      resp.engine = kind;
      resp.cache_hit = graphs[i].cache_hit;
      resp.graph_version =
          graphs[i].current != nullptr ? graphs[i].current->version : 0;
      resp.status = expired ? util::StatusCode::kDeadlineExceeded
                    : pending.requests[i].cancel.stop_requested()
                        ? util::StatusCode::kCancelled
                        : util::StatusCode::kOk;
      // Per-member view of the fused run: shared iteration/convergence
      // stats, own beliefs (original part-local ids), own parity check.
      resp.result.stats = result.stats;
      resp.result.beliefs = fused.scatter(result.beliefs, k);
      if (is_ldpc) {
        resp.result.stats.syndrome_satisfied =
            fused.part_syndrome_satisfied(result.beliefs, k);
      }
      obs::Span span;
      span.engine = std::string(resp.engine_name());
      finish(pending, i, std::move(resp), std::move(span));
    }
  } catch (const std::exception& e) {
    const util::Status st = util::status_from_exception(e);
    for (const std::size_t i : fused_members) {
      if (!pending.resolved[i]) fail(i, st.code(), st.message());
    }
  }
}

}  // namespace credo::serve
