#include "serve/server.h"

#include <chrono>
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

/// Warm-state fingerprint: engine slug + delta content hash, FNV-1a.
/// Options are deliberately NOT folded in — warm beliefs are a starting
/// point, never load-bearing, so a request with different thresholds can
/// still reuse them and simply re-converges under its own options. The
/// topology version is NOT here either: it lives in the graph key's
/// "#vN" suffix, so each version owns a whole fingerprint namespace.
std::uint64_t warm_fingerprint(bp::EngineKind kind,
                               std::uint64_t delta_fp) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix_byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (const char c : bp::engine_slug(kind)) {
    mix_byte(static_cast<std::uint8_t>(c));
  }
  for (int i = 0; i < 8; ++i) {
    mix_byte(static_cast<std::uint8_t>((delta_fp >> (8 * i)) & 0xffu));
  }
  return h;
}

/// The BpOptions knobs that must agree for two requests to share one
/// fused engine run. Scheduling/pool knobs follow the batch head.
bool fusable_options(const bp::BpOptions& a, const bp::BpOptions& b) noexcept {
  return a.convergence_threshold == b.convergence_threshold &&
         a.max_iterations == b.max_iterations &&
         a.work_queue == b.work_queue &&
         a.queue_threshold == b.queue_threshold &&
         a.damping == b.damping && a.syndrome_stop == b.syndrome_stop;
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
          "graph")) {
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

Response Server::finish_unrun(const Request& req, util::StatusCode status,
                              std::string reason) {
  Response r;
  r.status = status;
  r.error = std::move(reason);
  r.tag = req.tag;
  if (options_.spans != nullptr) {
    obs::Span span;
    span.id = obs::next_span_id();
    r.span_id = span.id;
    span.tag = req.tag;
    span.graph = req.graph.label();
    span.status = util::status_code_name(status);
    span.error = r.error;
    options_.spans->record(std::move(span));
  }
  return r;
}

std::future<Response> Server::submit(Request req) {
  std::promise<Response> promise;
  std::future<Response> fut = promise.get_future();

  // Validation failures resolve immediately with the shared status
  // vocabulary — they never consume queue capacity or a worker.
  if (const util::Status valid = req.validate(); !valid.is_ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.submitted;
    }
    m_submitted_.inc();
    count(valid.code());
    promise.set_value(finish_unrun(req, valid.code(), valid.message()));
    return fut;
  }

  std::string reject_reason;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      reject_reason = "server stopped";
    } else if (queue_.size() >= options_.queue_capacity) {
      reject_reason = "admission queue full (capacity " +
                      std::to_string(options_.queue_capacity) + ")";
    } else {
      Pending p;
      p.requests.push_back(std::move(req));
      p.promises.push_back(std::move(promise));
      p.resolved.push_back(0);
      p.enqueued = std::chrono::steady_clock::now();
      queue_.push_back(std::move(p));
      m_queue_depth_.set(static_cast<double>(queue_.size()));
    }
  }
  m_submitted_.inc();
  if (!reject_reason.empty()) {
    count(util::StatusCode::kRejected);
    promise.set_value(finish_unrun(req, util::StatusCode::kRejected,
                                   std::move(reject_reason)));
    return fut;
  }
  cv_.notify_one();
  return fut;
}

std::vector<std::future<Response>> Server::submit_batch(
    std::vector<Request> requests) {
  const std::size_t n = requests.size();
  std::vector<std::promise<Response>> promises(n);
  std::vector<std::future<Response>> futures;
  futures.reserve(n);
  for (auto& p : promises) futures.push_back(p.get_future());
  if (n == 0) return futures;

  // Every member counts in the accounting identity individually, exactly
  // as if it had been submitted alone.
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.submitted += n;
  }
  for (std::size_t i = 0; i < n; ++i) m_submitted_.inc();

  // Per-member validation resolves failed members now; the survivors stay
  // index-aligned (resolved[] marks the finished slots for the worker).
  std::vector<char> resolved(n, 0);
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (const util::Status valid = requests[i].validate(); !valid.is_ok()) {
      count(valid.code());
      promises[i].set_value(
          finish_unrun(requests[i], valid.code(), valid.message()));
      resolved[i] = 1;
    } else {
      ++live;
    }
  }

  // One admission decision for the whole batch: it occupies one slot.
  std::string reject_reason;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      reject_reason = "server stopped";
    } else if (live > 0 && queue_.size() >= options_.queue_capacity) {
      reject_reason = "admission queue full (capacity " +
                      std::to_string(options_.queue_capacity) + ")";
    } else if (live > 0) {
      Pending p;
      p.requests = std::move(requests);
      p.promises = std::move(promises);
      p.resolved = resolved;
      p.enqueued = std::chrono::steady_clock::now();
      p.batch = true;
      queue_.push_back(std::move(p));
      m_queue_depth_.set(static_cast<double>(queue_.size()));
    }
  }
  if (!reject_reason.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      if (resolved[i]) continue;
      count(util::StatusCode::kRejected);
      promises[i].set_value(finish_unrun(
          requests[i], util::StatusCode::kRejected, reject_reason));
    }
    return futures;
  }
  if (live > 0) cv_.notify_one();
  return futures;
}

Session Server::session() {
  static std::atomic<unsigned> next_id{0};
  return Session(*this, next_id.fetch_add(1, std::memory_order_relaxed));
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
      if (pending.resolved[i]) continue;
      count(util::StatusCode::kRejected);
      pending.promises[i].set_value(finish_unrun(
          pending.requests[i], util::StatusCode::kRejected,
          "server stopped"));
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
    if (pending.batch) {
      execute_batch(pending);
      continue;
    }
    Response resp = execute(pending.requests[0], pending.enqueued);
    count(resp.status);
    pending.promises[0].set_value(std::move(resp));
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

util::Status Server::apply_mutation(
    const Request& req, const std::shared_ptr<const CachedGraph>& parsed,
    bp::EngineKind kind, std::shared_ptr<const CachedGraph>& current_out,
    std::vector<graph::NodeId>& touched_out) {
  // Get or create the dynamic entry. Construction happens outside dyn_mu_
  // (folding a large graph into slotted CSRs is not map-lock work); if two
  // first mutations race, the emplace loser's entry is dropped and both
  // apply against the winner's.
  std::shared_ptr<DynamicEntry> entry;
  {
    std::lock_guard<std::mutex> lock(dyn_mu_);
    const auto it = dynamic_.find(parsed->key);
    if (it != dynamic_.end()) entry = it->second;
  }
  if (entry == nullptr) {
    graph::DynamicOptions dopts;
    dopts.reorder = parsed->reorder;
    auto fresh = std::make_shared<DynamicEntry>(
        graph::DynamicGraph::from_graph(parsed->graph, dopts));
    std::lock_guard<std::mutex> lock(dyn_mu_);
    entry = dynamic_.emplace(parsed->key, std::move(fresh)).first->second;
  }

  std::lock_guard<std::mutex> lock(entry->mu);
  const std::string old_key =
      entry->current != nullptr ? entry->current->key : parsed->key;
  if (const util::Status s = entry->dyn.apply(*req.delta); !s.is_ok()) {
    return s;
  }
  touched_out = entry->dyn.last_touched();

  auto snap = entry->dyn.snapshot();
  auto next = std::make_shared<CachedGraph>();
  next->graph = *snap;
  next->metadata = graph::compute_metadata(next->graph);
  next->content_hash = parsed->content_hash;
  next->reorder = parsed->reorder;
  next->version = entry->dyn.version();
  next->key = parsed->key + "#v" + std::to_string(next->version);

  // Migrate the engine's base warm state across the version bump: the old
  // fixed point with the touched region (and any new nodes) reset to
  // priors is a nearly-converged starting point for the new topology.
  // Entries left under the old key age out of the warm LRU — they can
  // never be overlaid onto the new topology because the fingerprint
  // namespace moved with the versioned key.
  const std::uint64_t base_fp = warm_fingerprint(kind, 0);
  if (auto old_warm = cache_.warm_lookup(old_key, base_fp);
      old_warm != nullptr) {
    cache_.warm_store(
        next->key, base_fp,
        std::make_shared<const std::vector<graph::BeliefVec>>(
            entry->dyn.patch_beliefs(*old_warm)));
  }
  entry->current = next;
  current_out = std::move(next);
  return util::Status::ok();
}

Response Server::execute(Request& req,
                         std::chrono::steady_clock::time_point enqueued) {
  Response resp;
  resp.tag = req.tag;
  resp.queue_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    enqueued)
          .count();
  m_queue_seconds_.observe(resp.queue_seconds);
  const util::Timer service_timer;

  obs::Span span;
  if (options_.spans != nullptr) {
    span.id = obs::next_span_id();
    resp.span_id = span.id;
  }
  span.tag = req.tag;
  span.graph = req.graph.label();
  span.queue_s = resp.queue_seconds;

  // A request cancelled while queued never starts.
  if (req.cancel.stop_requested()) {
    resp.status = util::StatusCode::kCancelled;
    resp.service_seconds = service_timer.seconds();
    m_run_seconds_.observe(resp.service_seconds);
    if (options_.spans != nullptr) {
      span.status = util::status_code_name(resp.status);
      options_.spans->record(std::move(span));
    }
    return resp;
  }

  try {
    // Resolve the graph key: cache for file keys, as-is for preloaded
    // graphs (reordered per-request when the key carries a mode — no
    // cache to amortize the pass, so preloaded callers are better off
    // reordering once upfront).
    const util::Timer parse_timer;
    std::shared_ptr<const CachedGraph> cached;
    std::shared_ptr<const CachedGraph> parsed;
    graph::FactorGraph reordered_inline;
    const graph::FactorGraph* g = nullptr;
    const graph::GraphMetadata* md = nullptr;
    std::string warm_key;  // empty = inline graph, no warm retention
    const bool has_delta = req.delta && !req.delta->empty();
    const bool mutates = has_delta && req.delta->has_topology();
    if (req.graph.inline_graph()) {
      if (mutates) {
        throw util::InvalidArgument(
            "topology mutations need a file-backed graph — inline graphs "
            "have no server-side dynamic state to mutate");
      }
      g = req.graph.graph.get();
      if (req.graph.reorder != graph::ReorderMode::kNone) {
        reordered_inline = graph::reordered(*g, req.graph.reorder);
        g = &reordered_inline;
      }
    } else {
      auto fetched = cache_.fetch(req.graph.nodes_path, req.graph.edges_path,
                                  req.graph.reorder);
      parsed = std::move(fetched.entry);
      resp.cache_hit = fetched.hit;
      // A mutated graph's dynamic snapshot supersedes the parsed bytes:
      // once topology changed server-side, every request naming these
      // files sees the current version, even after an LRU eviction
      // re-parsed the original (unchanged) files.
      cached = dynamic_current(parsed->key);
      if (cached == nullptr) cached = parsed;
      g = &cached->graph;
      md = &cached->metadata;
      warm_key = cached->key;
      resp.graph_version = cached->version;
    }
    span.parse_s = parse_timer.seconds();
    span.cache_hit = resp.cache_hit;

    const bp::EngineKind kind =
        req.engine ? *req.engine : choose_engine(*g, md);
    resp.engine = kind;
    span.engine = std::string(resp.engine_name());

    // Apply the delta. Topology ops mutate the persistent DynamicGraph
    // entry (version bump, snapshot publish, warm migration); evidence
    // ops rewrite priors/observations on a cheap structural copy visible
    // to this request alone — the edge lists, CSRs and joint tables stay
    // shared either way.
    graph::FactorGraph evidenced;
    std::vector<graph::NodeId> seed_nodes;
    if (mutates) {
      if (const util::Status s =
              apply_mutation(req, parsed, kind, cached, seed_nodes);
          !s.is_ok()) {
        throw util::InvalidArgument(s.message());
      }
      g = &cached->graph;
      md = &cached->metadata;
      warm_key = cached->key;
      resp.graph_version = cached->version;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.mutations;
      }
      m_mutations_.inc();
      m_delta_size_.observe(static_cast<double>(req.delta->size()));
    } else if (has_delta) {
      evidenced = graph::with_delta(*g, *req.delta);
      g = &evidenced;
      seed_nodes = req.delta->touched();
      m_delta_size_.observe(static_cast<double>(req.delta->size()));
    }

    bp::BpOptions opts = req.options;
    opts.with_stop(req.cancel);
    if (req.deadline.host_seconds > 0.0) {
      opts.with_host_deadline(req.deadline.host_seconds);
    }
    if (req.deadline.modelled_seconds > 0.0) {
      opts.with_modelled_deadline(req.deadline.modelled_seconds);
    }

    // Warm start (DESIGN.md §5h/§5j). Retained beliefs are filed under
    // (graph cache key, engine slug + delta hash). An evidence-delta
    // request first tries its exact fingerprint (repeat of the same
    // re-query), then the base state it perturbs; a topology mutation
    // looks up the base state apply_mutation just migrated to the new
    // versioned key — its converged result IS the new version's base, so
    // exact == base there. On a warm hit with a delta, the engine is
    // additionally seeded from the touched region so only the perturbed
    // neighbourhood re-converges. Any miss, or an engine without warm
    // support, falls back to a cold full run — warm state is an
    // accelerator, never a correctness dependency.
    const bool wants_warm = req.warm_start || has_delta;
    const std::uint64_t base_fp = warm_fingerprint(kind, 0);
    const std::uint64_t exact_fp =
        mutates ? base_fp
                : warm_fingerprint(kind,
                                   has_delta ? req.delta->fingerprint() : 0);
    std::shared_ptr<const std::vector<graph::BeliefVec>> warm;
    if (wants_warm && !warm_key.empty() &&
        bp::engine_supports_warm_start(kind, g->family())) {
      warm = cache_.warm_lookup(warm_key, exact_fp);
      if (warm == nullptr && has_delta && exact_fp != base_fp) {
        warm = cache_.warm_lookup(warm_key, base_fp);
      }
    }
    if (warm != nullptr && warm->size() == g->num_nodes()) {
      opts.with_init_beliefs(warm);
      resp.warm_start = true;
      if (has_delta && !seed_nodes.empty() &&
          bp::engine_supports_frontier_seed(kind, g->family())) {
        opts.with_frontier_seed(
            std::make_shared<const std::vector<graph::NodeId>>(
                std::move(seed_nodes)));
      }
    }

    const util::Timer run_timer;
    const auto engine = bp::make_default_engine(kind);
    bp::BpResult result;
    if (kind == bp::EngineKind::kOmpNode ||
        kind == bp::EngineKind::kOmpEdge ||
        kind == bp::EngineKind::kSharded) {
      // CPU-parallel engines share the server's one pool; the pool runs a
      // single team at a time, so these requests serialize here.
      std::lock_guard<std::mutex> pool_lock(pool_mu_);
      opts.with_shared_pool(&pool_);
      result = engine->run(*g, opts);
    } else {
      result = engine->run(*g, opts);
    }
    span.unpermute_s = result.stats.unpermute_seconds;
    span.run_s = run_timer.seconds() - span.unpermute_s;
    span.run_modelled_s = result.stats.modelled_seconds();
    span.iterations = result.stats.iterations;
    if (result.stats.frontier_seeded > 0 && g->num_nodes() > 0) {
      resp.frontier_fraction =
          static_cast<double>(result.stats.frontier_seeded) /
          static_cast<double>(g->num_nodes());
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

    // Retain converged beliefs for the next warm request. Stored under
    // the exact fingerprint: a no-delta run files the base state delta
    // requests later perturb; a delta run files the state its own exact
    // re-query would reuse. Non-converged or non-ok runs retain nothing —
    // a partial fixed point would poison later warm starts.
    if (wants_warm && !warm_key.empty() &&
        resp.status == util::StatusCode::kOk && result.stats.converged &&
        bp::engine_supports_warm_start(kind, g->family())) {
      cache_.warm_store(
          warm_key, exact_fp,
          std::make_shared<const std::vector<graph::BeliefVec>>(
              result.beliefs));
    }
    resp.result = std::move(result);
  } catch (const std::exception& e) {
    // Map through the shared vocabulary: parse/io/invalid-argument keep
    // their codes (all counted under `failed`), anything else is kError.
    const util::Status st = util::status_from_exception(e);
    resp.status = st.code();
    resp.error = st.message();
    span.error = resp.error;
  }
  resp.service_seconds = service_timer.seconds();
  m_run_seconds_.observe(resp.service_seconds);
  if (options_.spans != nullptr) {
    span.status = util::status_code_name(resp.status);
    options_.spans->record(std::move(span));
  }
  return resp;
}

void Server::execute_batch(Pending& pending) {
  const std::size_t n = pending.requests.size();
  const double queue_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pending.enqueued)
          .count();
  const util::Timer service_timer;

  // finish() is the single exit for every member: it stamps the shared
  // batch timings, records the member's span, counts its terminal status
  // and resolves its promise — so the accounting identity holds however
  // far into the fused flow the member got.
  const auto finish = [&](std::size_t i, Response resp) {
    resp.tag = pending.requests[i].tag;
    resp.queue_seconds = queue_seconds;
    resp.service_seconds = service_timer.seconds();
    m_queue_seconds_.observe(resp.queue_seconds);
    m_run_seconds_.observe(resp.service_seconds);
    if (options_.spans != nullptr) {
      obs::Span span;
      span.id = obs::next_span_id();
      resp.span_id = span.id;
      span.tag = resp.tag;
      span.graph = pending.requests[i].graph.label();
      span.queue_s = resp.queue_seconds;
      span.engine = std::string(resp.engine_name());
      span.status = util::status_code_name(resp.status);
      span.error = resp.error;
      options_.spans->record(std::move(span));
    }
    count(resp.status);
    pending.resolved[i] = 1;
    pending.promises[i].set_value(std::move(resp));
  };
  const auto fail = [&](std::size_t i, util::StatusCode code,
                        std::string reason) {
    Response resp;
    resp.status = code;
    resp.error = std::move(reason);
    finish(i, std::move(resp));
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
    live.push_back(i);
  }
  if (live.empty()) return;

  // Resolve every live member's graph. cached[] keeps shared_ptrs alive
  // across the fused run; a member whose load fails drops out alone.
  std::vector<std::shared_ptr<const CachedGraph>> cached(n);
  std::vector<const graph::FactorGraph*> parts;
  std::vector<std::size_t> fused_members;
  parts.reserve(live.size());
  fused_members.reserve(live.size());
  for (const std::size_t i : live) {
    Request& req = pending.requests[i];
    try {
      const graph::FactorGraph* g = nullptr;
      if (req.graph.inline_graph()) {
        g = req.graph.graph.get();
      } else {
        auto fetched = cache_.fetch(req.graph.nodes_path,
                                    req.graph.edges_path,
                                    graph::ReorderMode::kNone);
        cached[i] = std::move(fetched.entry);
        // A mutated graph's latest snapshot supersedes the parsed bytes
        // for batch members too.
        if (auto dyn = dynamic_current(cached[i]->key); dyn != nullptr) {
          cached[i] = std::move(dyn);
        }
        g = &cached[i]->graph;
      }
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

  // Fuse, run once, scatter. Per-member cancel tokens cannot stop a
  // shared run, so they are honoured at the boundaries: before the run
  // (above) and at scatter time below.
  try {
    const graph::GraphUnion fused = graph::disjoint_union(
        std::span<const graph::FactorGraph* const>(parts));
    const graph::FactorGraph& g = fused.graph();
    const Request& ref = pending.requests[fused_members[0]];
    const bp::EngineKind kind =
        ref.engine ? *ref.engine : choose_engine(g, nullptr);
    m_batch_occupancy_.observe(static_cast<double>(fused_members.size()));

    bp::BpOptions opts = ref.options;
    const auto engine = bp::make_default_engine(kind);
    bp::BpResult result;
    if (kind == bp::EngineKind::kOmpNode ||
        kind == bp::EngineKind::kOmpEdge ||
        kind == bp::EngineKind::kSharded) {
      std::lock_guard<std::mutex> pool_lock(pool_mu_);
      opts.with_shared_pool(&pool_);
      result = engine->run(g, opts);
    } else {
      result = engine->run(g, opts);
    }

    const bool is_ldpc = graph::is_ldpc(g.family());
    for (std::size_t k = 0; k < fused_members.size(); ++k) {
      const std::size_t i = fused_members[k];
      Response resp;
      resp.engine = kind;
      resp.cache_hit = cached[i] != nullptr;
      if (pending.requests[i].cancel.stop_requested()) {
        resp.status = util::StatusCode::kCancelled;
      } else {
        resp.status = util::StatusCode::kOk;
      }
      // Per-member view of the fused run: shared iteration/convergence
      // stats, own beliefs (original part-local ids), own parity check.
      resp.result.stats = result.stats;
      resp.result.beliefs = fused.scatter(result.beliefs, k);
      if (is_ldpc) {
        resp.result.stats.syndrome_satisfied =
            fused.part_syndrome_satisfied(result.beliefs, k);
      }
      finish(i, std::move(resp));
    }
  } catch (const std::exception& e) {
    const util::Status st = util::status_from_exception(e);
    for (const std::size_t i : fused_members) {
      if (!pending.resolved[i]) fail(i, st.code(), st.message());
    }
  }
}

}  // namespace credo::serve
