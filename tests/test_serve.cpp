// Tests for the serve layer (DESIGN.md §5c): GraphCache hit/miss/LRU and
// content-hash keying, Server admission control and accounting, cooperative
// cancellation and deadlines end to end, and the concurrency stress the
// issue demands — many sessions against one server, beliefs bit-identical
// to single-threaded runs, every request accounted for exactly once.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bp/engine.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/ldpc.h"
#include "io/mtx_belief.h"
#include "serve/graph_cache.h"
#include "serve/server.h"
#include "serve/stress.h"

namespace credo::serve {
namespace {

using graph::FactorGraph;

/// Writes `g` as an MTX-belief pair under the temp dir; returns the paths.
std::pair<std::string, std::string> write_graph(const FactorGraph& g,
                                                const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / "credo_serve_ut";
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / name).string();
  io::write_mtx_belief(g, prefix + "_nodes.mtx", prefix + "_edges.mtx");
  return {prefix + "_nodes.mtx", prefix + "_edges.mtx"};
}

FactorGraph small_grid() {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 11;
  cfg.observed_fraction = 0.1;
  return graph::grid(8, 8, cfg);
}

FactorGraph small_random() {
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 12;
  cfg.observed_fraction = 0.1;
  return graph::uniform_random(100, 300, cfg);
}

bp::BpOptions test_options() {
  return bp::BpOptions{}.with_max_iterations(30).with_convergence_threshold(
      1e-3f);
}

/// Bitwise equality of two belief tables — the determinism contract for the
/// sequential engines: same graph and options give identical floats
/// regardless of how many server workers ran alongside. (The OpenMP Node
/// engine's chaotic in-place updates are thread-interleaving-dependent by
/// design, so it gets a tolerance check instead.)
void expect_beliefs_identical(const FactorGraph& g,
                              const std::vector<graph::BeliefVec>& a,
                              const std::vector<graph::BeliefVec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::uint32_t s = 0; s < g.arity(v); ++s) {
      ASSERT_EQ(a[v][s], b[v][s]) << "node " << v << " state " << s;
    }
  }
}

void expect_beliefs_close(const FactorGraph& g,
                          const std::vector<graph::BeliefVec>& a,
                          const std::vector<graph::BeliefVec>& b,
                          float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LT(graph::l1_diff(a[v], b[v]), tol) << "node " << v;
  }
}

// ---------------------------------------------------------------------------
// GraphCache
// ---------------------------------------------------------------------------

TEST(GraphCache, MissThenHitReusesOneEntry) {
  const auto g = small_grid();
  const auto [nodes, edges] = write_graph(g, "cache_basic");
  GraphCache cache(2);

  const auto first = cache.fetch(nodes, edges);
  EXPECT_FALSE(first.hit);
  ASSERT_NE(first.entry, nullptr);
  EXPECT_EQ(first.entry->graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(first.entry->metadata.num_nodes, g.num_nodes());

  const auto second = cache.fetch(nodes, edges);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.entry.get(), second.entry.get());  // same parsed graph

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(GraphCache, EvictsLeastRecentlyUsedAndKeepsHandlesAlive) {
  const auto pa = write_graph(small_grid(), "cache_lru_a");
  const auto pb = write_graph(small_random(), "cache_lru_b");
  GraphCache cache(1);

  const auto a = cache.fetch(pa.first, pa.second);
  const auto b = cache.fetch(pb.first, pb.second);  // evicts a
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted entry stays valid for in-flight users.
  EXPECT_GT(a.entry->graph.num_nodes(), 0u);

  // a is gone from the cache: fetching it again is a miss (and evicts b).
  EXPECT_FALSE(cache.fetch(pa.first, pa.second).hit);
  EXPECT_FALSE(cache.fetch(pb.first, pb.second).hit);
  EXPECT_GT(b.entry->graph.num_nodes(), 0u);
}

TEST(GraphCache, ChangedFileContentsMissAndReparse) {
  const auto g1 = small_grid();
  const auto [nodes, edges] = write_graph(g1, "cache_content");
  GraphCache cache(4);

  const auto before = cache.fetch(nodes, edges);
  EXPECT_FALSE(before.hit);

  // Overwrite the pair with a different graph: same paths, new bytes.
  const auto g2 = small_random();
  io::write_mtx_belief(g2, nodes, edges);
  const auto after = cache.fetch(nodes, edges);
  EXPECT_FALSE(after.hit);  // content hash changed -> new key
  EXPECT_NE(before.entry->content_hash, after.entry->content_hash);
  EXPECT_EQ(after.entry->graph.num_nodes(), g2.num_nodes());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(GraphCache, MissingFileThrows) {
  GraphCache cache(1);
  EXPECT_THROW(cache.fetch("/nonexistent/a.mtx", "/nonexistent/b.mtx"),
               util::IoError);
}

TEST(GraphCache, WarmStateSurvivesGraphEviction) {
  const auto pa = write_graph(small_grid(), "warm_table_a");
  const auto pb = write_graph(small_random(), "warm_table_b");
  GraphCache cache(1);

  const auto a = cache.fetch(pa.first, pa.second);
  const std::string key = a.entry->key;
  EXPECT_FALSE(key.empty());

  const auto beliefs = std::make_shared<const std::vector<graph::BeliefVec>>(
      a.entry->graph.num_nodes(), graph::BeliefVec::uniform(2));
  cache.warm_store(key, 42, beliefs);
  EXPECT_EQ(cache.warm_size(), 1u);
  EXPECT_EQ(cache.warm_lookup(key, 42).get(), beliefs.get());
  EXPECT_EQ(cache.warm_lookup(key, 43), nullptr);  // fingerprint mismatch

  // Evicting the parsed graph must NOT drop the warm beliefs: a re-parse
  // after cache pressure still warm-starts (the §5h retention satellite).
  (void)cache.fetch(pb.first, pb.second);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.warm_lookup(key, 42).get(), beliefs.get());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.warm_hits, 2u);
  EXPECT_EQ(stats.warm_misses, 1u);
}

// ---------------------------------------------------------------------------
// Server: basic execution
// ---------------------------------------------------------------------------

ServerOptions plain_server(unsigned workers) {
  ServerOptions o;
  o.workers = workers;
  o.use_dispatcher = false;  // keep tests fast and deterministic
  o.queue_capacity = 256;
  return o;
}

TEST(Server, FileRequestMatchesDirectRunAndHitsCache) {
  const auto [nodes, edges] = write_graph(small_grid(), "server_basic");
  // Reference on the *parsed* graph: the MTX text round trip quantizes
  // floats, and bit-identity is defined against what the server loads.
  const auto g = io::read_mtx_belief(nodes, edges);
  const auto opts = test_options();
  const auto reference =
      bp::make_default_engine(bp::EngineKind::kCpuNode)->run(g, opts);

  Server server(plain_server(2));
  Request req;
  req.graph = GraphKey::files(nodes, edges);
  req.options = opts;
  req.engine = bp::EngineKind::kCpuNode;
  req.tag = "basic";

  Request repeat = req;
  auto f1 = server.submit(std::move(req));
  const Response r1 = f1.get();
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_EQ(r1.engine, bp::EngineKind::kCpuNode);
  EXPECT_EQ(r1.tag, "basic");
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.result.stats.iterations, reference.stats.iterations);
  expect_beliefs_identical(g, r1.result.beliefs, reference.beliefs);

  auto f2 = server.submit(std::move(repeat));
  const Response r2 = f2.get();
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_TRUE(r2.cache_hit);
  expect_beliefs_identical(g, r2.result.beliefs, reference.beliefs);

  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.submitted, stats.finished());
}

TEST(Server, PreloadedGraphBypassesCache) {
  const auto shared = std::make_shared<const FactorGraph>(small_grid());
  Server server(plain_server(1));
  Request req;
  req.graph = GraphKey::preloaded(shared);
  req.options = test_options();
  req.engine = bp::EngineKind::kCpuEdge;
  auto fut = server.submit(std::move(req));
  const Response resp = fut.get();
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_FALSE(resp.cache_hit);
  server.shutdown();
  EXPECT_EQ(server.stats().cache.misses, 0u);
}

TEST(Server, BadGraphPathReportsError) {
  Server server(plain_server(1));
  Request req;
  req.graph = GraphKey::files("/nonexistent/a.mtx", "/nonexistent/b.mtx");
  req.options = test_options();
  req.engine = bp::EngineKind::kCpuNode;
  auto fut = server.submit(std::move(req));
  const Response resp = fut.get();
  // The shared vocabulary keeps the precise code (an unreadable file is an
  // I/O error); accounting still collapses it onto the `failed` category.
  EXPECT_EQ(resp.status, util::StatusCode::kIo);
  EXPECT_EQ(terminal_category(resp.status), util::StatusCode::kError);
  EXPECT_FALSE(resp.error.empty());
  server.shutdown();
  EXPECT_EQ(server.stats().failed, 1u);
  EXPECT_EQ(server.stats().submitted, server.stats().finished());
}

// ---------------------------------------------------------------------------
// Request vocabulary: the GraphKey two-form invariant and fluent builders
// ---------------------------------------------------------------------------

TEST(RequestVocabulary, GraphKeyRejectsMixedAndPartialForms) {
  // Regression: a GraphKey naming both an inline graph and file paths used
  // to silently prefer the inline graph; now it is invalid-argument.
  const auto shared = std::make_shared<const FactorGraph>(small_grid());
  GraphKey mixed;
  mixed.graph = shared;
  mixed.nodes_path = "a.mtx";
  mixed.edges_path = "b.mtx";
  const auto mixed_status = mixed.validate();
  EXPECT_EQ(mixed_status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(mixed_status.message().find("mutually exclusive"),
            std::string::npos);

  EXPECT_EQ(GraphKey{}.validate().code(),
            util::StatusCode::kInvalidArgument);  // names no graph
  GraphKey half;
  half.nodes_path = "a.mtx";  // file form needs both paths
  EXPECT_EQ(half.validate().code(), util::StatusCode::kInvalidArgument);

  EXPECT_TRUE(GraphKey::files("a.mtx", "b.mtx").validate().is_ok());
  EXPECT_TRUE(GraphKey::preloaded(shared).validate().is_ok());
}

TEST(RequestVocabulary, InvalidRequestResolvesWithoutRunning) {
  const auto shared = std::make_shared<const FactorGraph>(small_grid());
  Server server(plain_server(1));
  Request req = Request{}
                    .with_preloaded(shared)
                    .with_options(test_options())
                    .with_engine(bp::EngineKind::kCpuNode);
  req.graph.nodes_path = "also/a/path.mtx";  // mixed form
  auto fut = server.submit(std::move(req));
  const Response resp = fut.get();
  EXPECT_EQ(resp.status, util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(resp.error.empty());
  EXPECT_EQ(resp.result.stats.iterations, 0u);
  server.shutdown();
  EXPECT_EQ(server.stats().failed, 1u);
  EXPECT_EQ(server.stats().submitted, server.stats().finished());
}

TEST(RequestVocabulary, FluentBuildersMatchFieldAssignment) {
  bp::runtime::StopSource source;
  graph::GraphDelta delta;
  delta.observe(3, 1);
  const Request built =
      Request{}
          .with_graph(GraphKey::files("n.mtx", "e.mtx")
                          .with_reorder(graph::ReorderMode::kBfs))
          .with_options(test_options())
          .with_engine(bp::EngineKind::kResidual)
          .with_evidence(delta)
          .with_warm_start()
          .with_deadline(
              Deadline{}.with_host_seconds(0.5).with_modelled_seconds(2.0))
          .with_cancel(source.token())
          .with_tag("built");
  EXPECT_EQ(built.graph.nodes_path, "n.mtx");
  EXPECT_EQ(built.graph.edges_path, "e.mtx");
  EXPECT_FALSE(built.graph.inline_graph());
  ASSERT_TRUE(built.engine.has_value());
  EXPECT_EQ(*built.engine, bp::EngineKind::kResidual);
  // The reorder mode lives on the GraphKey now — it is graph identity, not
  // a per-request execution knob.
  EXPECT_EQ(built.graph.reorder, graph::ReorderMode::kBfs);
  EXPECT_EQ(built.graph.label(), "n.mtx|e.mtx|bfs");
  ASSERT_TRUE(built.delta.has_value());
  EXPECT_EQ(built.delta->size(), 1u);
  EXPECT_TRUE(built.warm_start);
  EXPECT_DOUBLE_EQ(built.deadline.host_seconds, 0.5);
  EXPECT_DOUBLE_EQ(built.deadline.modelled_seconds, 2.0);
  EXPECT_FALSE(built.deadline.unlimited());
  EXPECT_TRUE(built.cancel.valid());
  EXPECT_EQ(built.tag, "built");
  EXPECT_TRUE(built.validate().is_ok());
}

// ---------------------------------------------------------------------------
// Server: admission control, cancellation, deadlines
// ---------------------------------------------------------------------------

TEST(Server, BackpressureRejectsBeyondCapacityAndShutdownDrains) {
  const auto shared = std::make_shared<const FactorGraph>(small_grid());
  ServerOptions o = plain_server(0);  // no workers: queue fills predictably
  o.queue_capacity = 3;
  Server server(o);

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 5; ++i) {
    Request req;
    req.graph = GraphKey::preloaded(shared);
    req.options = test_options();
    req.engine = bp::EngineKind::kCpuNode;
    futures.push_back(server.submit(std::move(req)));
  }

  // Requests 4 and 5 overflowed the bound: rejected immediately, with a
  // reason naming the capacity.
  const Response over = futures[3].get();
  EXPECT_EQ(over.status, util::StatusCode::kRejected);
  EXPECT_NE(over.error.find("capacity 3"), std::string::npos) << over.error;
  EXPECT_EQ(futures[4].get().status, util::StatusCode::kRejected);

  // Shutdown with zero workers rejects the queued three; the accounting
  // identity holds and no future is left dangling.
  server.shutdown();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().status,
              util::StatusCode::kRejected);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 5u);
  EXPECT_EQ(stats.rejected, 5u);
  EXPECT_EQ(stats.submitted, stats.finished());

  // Post-shutdown submits are rejected, still counted.
  Request late;
  late.graph = GraphKey::preloaded(shared);
  auto fut = server.submit(std::move(late));
  EXPECT_EQ(fut.get().status, util::StatusCode::kRejected);
  EXPECT_EQ(server.stats().submitted, server.stats().finished());
}

TEST(Server, PreCancelledRequestNeverRuns) {
  const auto shared = std::make_shared<const FactorGraph>(small_grid());
  bp::runtime::StopSource source;
  ASSERT_TRUE(source.request_stop());

  Server server(plain_server(1));
  Request req;
  req.graph = GraphKey::preloaded(shared);
  req.options = test_options();
  req.engine = bp::EngineKind::kCpuNode;
  req.cancel = source.token();
  auto fut = server.submit(std::move(req));
  const Response resp = fut.get();
  EXPECT_EQ(resp.status, util::StatusCode::kCancelled);
  EXPECT_EQ(resp.result.stats.iterations, 0u);
  server.shutdown();
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_EQ(server.stats().submitted, server.stats().finished());
}

TEST(Server, ModelledDeadlineExpiresDeterministically) {
  const auto shared = std::make_shared<const FactorGraph>(small_random());
  Server server(plain_server(1));
  Request req;
  req.graph = GraphKey::preloaded(shared);
  req.options = test_options()
                    .with_convergence_threshold(1e-9f)  // won't converge
                    .with_queue_threshold(1e-10f);      // in 30 iterations
  req.engine = bp::EngineKind::kCpuNode;
  req.deadline.modelled_seconds = 1e-12;  // below one iteration's cost
  auto fut = server.submit(std::move(req));
  const Response resp = fut.get();
  EXPECT_EQ(resp.status, util::StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(resp.result.stats.converged);
  EXPECT_EQ(resp.result.stats.stop_reason,
            bp::runtime::StopReason::kDeadline);
  EXPECT_LT(resp.result.stats.iterations, 30u);
  server.shutdown();
  EXPECT_EQ(server.stats().deadline_expired, 1u);
  EXPECT_EQ(server.stats().submitted, server.stats().finished());
}

// ---------------------------------------------------------------------------
// The issue's stress requirement: >= 4 sessions x >= 16 requests against one
// server; beliefs bit-identical to single-threaded runs; cache hits,
// rejections and completions account for every request. Run under
// CREDO_SANITIZE in CI.
// ---------------------------------------------------------------------------

TEST(ServeStress, ConcurrentSessionsMatchSingleThreadedRuns) {
  const std::vector<std::pair<std::string, std::string>> paths = {
      write_graph(small_grid(), "stress_a"),
      write_graph(small_random(), "stress_b")};
  // References run on the parsed graphs — the same bytes the server loads.
  const std::vector<FactorGraph> graphs = {
      io::read_mtx_belief(paths[0].first, paths[0].second),
      io::read_mtx_belief(paths[1].first, paths[1].second)};
  // kOmpNode exercises the shared-ThreadPool path under contention.
  const std::vector<bp::EngineKind> mix = {bp::EngineKind::kCpuNode,
                                           bp::EngineKind::kOmpNode,
                                           bp::EngineKind::kResidual};
  const auto opts = test_options();

  // Single-threaded references, one per (graph, engine).
  std::map<std::pair<std::size_t, bp::EngineKind>, bp::BpResult> reference;
  for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
    for (const auto kind : mix) {
      reference[{gi, kind}] =
          bp::make_default_engine(kind)->run(graphs[gi], opts);
    }
  }

  constexpr unsigned kSessions = 4;
  constexpr std::size_t kPerSession = 16;
  ServerOptions so = plain_server(3);
  so.cache_capacity = 2;
  Server server(so);

  std::vector<std::vector<Response>> responses(kSessions);
  std::vector<std::thread> clients;
  for (unsigned s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      Session session = server.session();
      std::vector<std::future<Response>> futures;
      for (std::size_t i = 0; i < kPerSession; ++i) {
        const std::size_t seq = s * kPerSession + i;
        Request req;
        req.graph = GraphKey::files(paths[seq % 2].first,
                                    paths[seq % 2].second);
        req.options = opts;
        req.engine = mix[seq % mix.size()];
        req.tag = std::to_string(seq);
        futures.push_back(session.submit(std::move(req)));
      }
      EXPECT_EQ(session.submitted(), kPerSession);
      for (auto& f : futures) responses[s].push_back(f.get());
    });
  }
  for (auto& c : clients) c.join();
  server.shutdown();

  // Every response ran and matches its single-threaded reference bitwise.
  for (unsigned s = 0; s < kSessions; ++s) {
    ASSERT_EQ(responses[s].size(), kPerSession);
    for (const auto& resp : responses[s]) {
      ASSERT_TRUE(resp.ok()) << resp.error;
      const std::size_t seq = std::stoul(resp.tag);
      const std::size_t gi = seq % 2;
      SCOPED_TRACE("request " + resp.tag + " engine " + std::string(resp.engine_name()) +
                   " graph " + std::to_string(gi));
      const auto kind = mix[seq % mix.size()];
      const auto& ref = reference.at({gi, kind});
      if (kind == bp::EngineKind::kOmpNode) {
        // Chaotic async updates: bits depend on thread interleaving, the
        // fixed point does not (verified nondeterministic even without the
        // serve layer).
        expect_beliefs_close(graphs[gi], resp.result.beliefs, ref.beliefs,
                             1e-3f);
      } else {
        EXPECT_EQ(resp.result.stats.iterations, ref.stats.iterations);
        expect_beliefs_identical(graphs[gi], resp.result.beliefs,
                                 ref.beliefs);
      }
    }
  }

  // Accounting: every request finished exactly once, the cache served
  // repeats, nothing was lost.
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, kSessions * kPerSession);
  EXPECT_EQ(stats.completed, kSessions * kPerSession);
  EXPECT_EQ(stats.submitted, stats.finished());
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_GE(stats.cache.misses, 2u);  // two distinct graphs
  EXPECT_GT(stats.cache.hit_rate(), 0.0);
}

TEST(ServeStress, RunStressReportAccountsEveryRequest) {
  const auto pa = write_graph(small_grid(), "report_a");
  const auto pb = write_graph(small_random(), "report_b");

  ServerOptions so = plain_server(2);
  Server server(so);
  StressConfig cfg;
  cfg.graphs = {pa, pb};
  cfg.requests = 24;
  cfg.sessions = 4;
  cfg.mix = {bp::EngineKind::kCpuNode, bp::EngineKind::kCpuEdge};
  cfg.options = test_options();

  const StressReport report = run_stress(server, cfg);
  server.shutdown();

  EXPECT_EQ(report.server.submitted, 24u);
  EXPECT_EQ(report.server.submitted, report.server.finished());
  EXPECT_EQ(report.server.completed, 24u);
  EXPECT_GT(report.server.cache.hit_rate(), 0.0);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_GE(report.service_p99, report.service_p50);
  EXPECT_GE(report.service_max, report.service_p99);
  const auto table = report.table();
  EXPECT_EQ(table.cols(), 2u);
  EXPECT_GT(table.rows(), 10u);
}

// ---------------------------------------------------------------------------
// Warm starts and evidence deltas (DESIGN.md §5h): repeat requests start
// from retained converged beliefs; delta requests re-converge only the
// perturbed region — both verified against cold full runs across the
// scheduling paradigms (sequential frontier, pooled fragmented frontier,
// relaxed multi-queue).
// ---------------------------------------------------------------------------

class WarmStartEquivalence
    : public ::testing::TestWithParam<bp::EngineKind> {};

TEST_P(WarmStartEquivalence, RepeatAndDeltaRequestsMatchColdRuns) {
  const bp::EngineKind kind = GetParam();
  std::string slug(bp::engine_slug(kind));
  for (char& c : slug) {
    if (c == '-') c = '_';
  }
  const auto [nodes, edges] = write_graph(small_random(), "warm_" + slug);
  const auto g = io::read_mtx_belief(nodes, edges);
  const auto opts = test_options().with_max_iterations(100);
  // The OpenMP Node engine's chaotic updates are interleaving-dependent;
  // everything here compares converged fixed points, so tolerances only.
  const float tol = kind == bp::EngineKind::kOmpNode ? 5e-2f : 2e-2f;

  Server server(plain_server(1));
  const auto submit = [&](Request req) {
    auto f = server.submit(std::move(req));
    return f.get();
  };

  // First warm-opt-in request: nothing is retained yet, so the server
  // falls back to an honest cold run and says so.
  Request base = Request{}
                     .with_files(nodes, edges)
                     .with_options(opts)
                     .with_engine(kind)
                     .with_warm_start();
  const Response cold = submit(base);
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.warm_start);
  EXPECT_DOUBLE_EQ(cold.frontier_fraction, 1.0);
  ASSERT_TRUE(cold.result.stats.converged);

  // Repeat request: starts from the retained fixed point and re-converges
  // to the same beliefs in no more iterations than the cold run took.
  const Response warm = submit(base);
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_TRUE(warm.warm_start);
  EXPECT_LE(warm.result.stats.iterations, cold.result.stats.iterations);
  expect_beliefs_close(g, warm.result.beliefs, cold.result.beliefs, tol);
  EXPECT_GT(server.stats().cache.warm_hits, 0u);
  EXPECT_GT(warm.total_seconds(), 0.0);

  // Evidence delta: re-pin one node, nudge another's prior. The
  // incremental result must match a cold full run on the delta'd graph.
  std::vector<graph::NodeId> unobs;
  for (graph::NodeId v = 0; v < g.num_nodes() && unobs.size() < 2; ++v) {
    if (!g.observed(v)) unobs.push_back(v);
  }
  ASSERT_EQ(unobs.size(), 2u);
  graph::BeliefVec prior = graph::BeliefVec::uniform(3);
  prior.v[0] = 0.7f;
  prior.v[1] = 0.2f;
  prior.v[2] = 0.1f;
  graph::GraphDelta delta;
  delta.observe(unobs[0], 1).set_prior(unobs[1], prior);
  const auto cold_delta = bp::make_default_engine(kind)->run(
      graph::with_delta(g, delta), opts);

  Request incremental_req = base;
  incremental_req.with_evidence(delta);
  const Response incremental = submit(incremental_req);
  ASSERT_TRUE(incremental.ok()) << incremental.error;
  EXPECT_TRUE(incremental.warm_start);
  if (bp::engine_supports_frontier_seed(kind, g.family())) {
    // The schedule was seeded from the touched region only.
    EXPECT_GT(incremental.frontier_fraction, 0.0);
    EXPECT_LT(incremental.frontier_fraction, 1.0);
  } else {
    EXPECT_DOUBLE_EQ(incremental.frontier_fraction, 1.0);
  }
  expect_beliefs_close(g, incremental.result.beliefs, cold_delta.beliefs,
                       tol);

  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.submitted, stats.finished());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, WarmStartEquivalence,
    ::testing::Values(bp::EngineKind::kCpuNode, bp::EngineKind::kOmpNode,
                      bp::EngineKind::kBulkResidual),
    [](const ::testing::TestParamInfo<bp::EngineKind>& info) {
      std::string name(bp::engine_slug(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Server, DeltaWithoutWarmStateFallsBackColdAndStaysExact) {
  // A delta request on a fresh server has no warm state to seed from: the
  // honest fallback is a cold full run on the delta'd graph — bit-identical
  // to running that graph directly (deterministic sequential engine).
  const auto [nodes, edges] = write_graph(small_grid(), "delta_cold");
  const auto g = io::read_mtx_belief(nodes, edges);
  const auto opts = test_options();

  graph::NodeId target = 0;
  while (g.observed(target)) ++target;
  graph::GraphDelta delta;
  delta.observe(target, 1);
  const auto reference = bp::make_default_engine(bp::EngineKind::kCpuNode)
                             ->run(graph::with_delta(g, delta), opts);

  Server server(plain_server(1));
  auto fut = server.submit(Request{}
                               .with_files(nodes, edges)
                               .with_options(opts)
                               .with_engine(bp::EngineKind::kCpuNode)
                               .with_evidence(delta));
  const Response resp = fut.get();
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_FALSE(resp.warm_start);
  EXPECT_DOUBLE_EQ(resp.frontier_fraction, 1.0);
  EXPECT_EQ(resp.result.stats.iterations, reference.stats.iterations);
  expect_beliefs_identical(g, resp.result.beliefs, reference.beliefs);
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Batched request fusion (DESIGN.md §5h)
// ---------------------------------------------------------------------------

TEST(ServerBatch, FusedBatchMatchesIndividualRunsBitwise) {
  // Fixed iteration count (threshold no run reaches) so solo and fused
  // runs do identical work; disjoint parts exchange no messages, so the
  // scattered per-member beliefs must equal the solo runs bit for bit.
  const auto opts = bp::BpOptions{}
                        .with_max_iterations(12)
                        .with_convergence_threshold(1e-30f)
                        .with_queue_threshold(1e-32f);
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 21;
  cfg.observed_fraction = 0.1;
  std::vector<std::shared_ptr<const FactorGraph>> graphs = {
      std::make_shared<const FactorGraph>(small_grid()),
      std::make_shared<const FactorGraph>(small_random()),
      std::make_shared<const FactorGraph>(graph::grid(6, 6, cfg))};

  Server server(plain_server(2));
  std::vector<bp::BpResult> solo;
  for (const auto& g : graphs) {
    solo.push_back(
        bp::make_default_engine(bp::EngineKind::kCpuNode)->run(*g, opts));
  }

  std::vector<Request> batch;
  for (const auto& g : graphs) {
    batch.push_back(Request{}
                        .with_preloaded(g)
                        .with_options(opts)
                        .with_engine(bp::EngineKind::kCpuNode));
  }
  auto futures = server.submit_batch(std::move(batch));
  ASSERT_EQ(futures.size(), graphs.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response resp = futures[i].get();
    SCOPED_TRACE("batch member " + std::to_string(i));
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_EQ(resp.engine, bp::EngineKind::kCpuNode);
    EXPECT_EQ(resp.result.stats.iterations, 12u);
    expect_beliefs_identical(*graphs[i], resp.result.beliefs,
                             solo[i].beliefs);
  }
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.submitted, stats.finished());
}

TEST(ServerBatch, MemberTriageRejectsUnfusableAndCancelled) {
  const auto shared = std::make_shared<const FactorGraph>(small_grid());
  bp::runtime::StopSource fired;
  ASSERT_TRUE(fired.request_stop());

  Server server(plain_server(1));
  std::vector<Request> batch;
  // [0] fusable head; [1] carries a delta (not fusable); [2] pre-cancelled;
  // [3] different options than the head (not fusable).
  graph::GraphDelta delta;
  delta.unobserve(0);
  batch.push_back(Request{}.with_preloaded(shared).with_options(
      test_options()).with_engine(bp::EngineKind::kCpuNode));
  batch.push_back(Request{}
                      .with_preloaded(shared)
                      .with_options(test_options())
                      .with_engine(bp::EngineKind::kCpuNode)
                      .with_evidence(delta));
  batch.push_back(Request{}
                      .with_preloaded(shared)
                      .with_options(test_options())
                      .with_engine(bp::EngineKind::kCpuNode)
                      .with_cancel(fired.token()));
  batch.push_back(Request{}
                      .with_preloaded(shared)
                      .with_options(test_options().with_max_iterations(7))
                      .with_engine(bp::EngineKind::kCpuNode));

  auto futures = server.submit_batch(std::move(batch));
  ASSERT_EQ(futures.size(), 4u);
  EXPECT_EQ(futures[0].get().status, util::StatusCode::kOk);
  const Response delta_resp = futures[1].get();
  EXPECT_EQ(delta_resp.status, util::StatusCode::kInvalidArgument);
  EXPECT_NE(delta_resp.error.find("evidence"), std::string::npos);
  EXPECT_EQ(futures[2].get().status, util::StatusCode::kCancelled);
  const Response opt_resp = futures[3].get();
  EXPECT_EQ(opt_resp.status, util::StatusCode::kInvalidArgument);
  EXPECT_NE(opt_resp.error.find("options"), std::string::npos);

  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.submitted, stats.finished());
}

TEST(ServerBatch, CancellationMidBatchKeepsAccountingIdentity) {
  // One worker, pinned by a long cancellable request, so the batch is
  // still queued when a member's token fires — the member resolves
  // kCancelled at batch-execution time and the identity still balances.
  const auto small = std::make_shared<const FactorGraph>(small_grid());
  const auto big = std::make_shared<const FactorGraph>(small_random());
  bp::runtime::StopSource long_stop;
  bp::runtime::StopSource member_stop;

  Server server(plain_server(1));
  auto long_fut = server.submit(
      Request{}
          .with_preloaded(big)
          .with_options(bp::BpOptions{}
                            .with_max_iterations(2000000)
                            .with_convergence_threshold(1e-30f)
                            .with_queue_threshold(1e-32f))
          .with_engine(bp::EngineKind::kCpuNode)
          .with_cancel(long_stop.token()));

  std::vector<Request> batch;
  for (int i = 0; i < 3; ++i) {
    Request req = Request{}
                      .with_preloaded(small)
                      .with_options(test_options())
                      .with_engine(bp::EngineKind::kCpuNode);
    if (i == 1) req.with_cancel(member_stop.token());
    batch.push_back(std::move(req));
  }
  auto futures = server.submit_batch(std::move(batch));

  // The worker is busy with the long run: cancel the batch member first,
  // then release the worker.
  ASSERT_TRUE(member_stop.request_stop());
  ASSERT_TRUE(long_stop.request_stop());

  EXPECT_EQ(long_fut.get().status, util::StatusCode::kCancelled);
  EXPECT_EQ(futures[0].get().status, util::StatusCode::kOk);
  EXPECT_EQ(futures[1].get().status, util::StatusCode::kCancelled);
  EXPECT_EQ(futures[2].get().status, util::StatusCode::kOk);

  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.submitted, stats.finished());
}

TEST(ServerBatch, LdpcBatchDecodesEveryPartAndChecksParityPerPart) {
  // Weight-1 error syndromes on small regular codes: every part must
  // decode, and the per-part parity re-check must agree with a solo run.
  std::vector<std::shared_ptr<const FactorGraph>> graphs;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto code = graph::ldpc::random_regular(24, 3, 6, seed);
    std::vector<std::uint8_t> error(code.bits, 0);
    error[(5 * seed) % code.bits] = 1;
    const auto syn = graph::ldpc::syndrome(code, error);
    graphs.push_back(std::make_shared<const FactorGraph>(graph::ldpc::build_graph(
        code, syn, 0.05f, graph::FactorFamily::kLdpcMinSum)));
  }
  const auto opts = bp::BpOptions{}
                        .with_max_iterations(60)
                        .with_syndrome_stop(true);

  Server server(plain_server(1));
  std::vector<Request> batch;
  for (const auto& g : graphs) {
    batch.push_back(Request{}
                        .with_preloaded(g)
                        .with_options(opts)
                        .with_engine(bp::EngineKind::kCpuNode));
  }
  auto futures = server.submit_batch(std::move(batch));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response resp = futures[i].get();
    SCOPED_TRACE("code " + std::to_string(i));
    ASSERT_TRUE(resp.ok()) << resp.error;
    EXPECT_TRUE(resp.result.stats.syndrome_satisfied);
    EXPECT_EQ(resp.result.beliefs.size(), graphs[i]->num_nodes());
    const auto solo = bp::make_default_engine(bp::EngineKind::kCpuNode)
                          ->run(*graphs[i], opts);
    EXPECT_EQ(resp.result.stats.syndrome_satisfied,
              solo.stats.syndrome_satisfied);
  }
  server.shutdown();
  EXPECT_EQ(server.stats().submitted, server.stats().finished());
}

TEST(ServeStress, WarmAndBatchedReplayAccountEveryRequest) {
  const auto pa = write_graph(small_grid(), "replay_warm_a");

  // Warm repeat replay: one graph, one engine — every request after the
  // first converged one should warm-start, so warm hits climb.
  {
    Server server(plain_server(2));
    StressConfig cfg;
    cfg.graphs = {pa};
    cfg.requests = 12;
    cfg.sessions = 2;
    cfg.mix = {bp::EngineKind::kCpuNode};
    cfg.warm = true;
    cfg.options = test_options();
    const StressReport report = run_stress(server, cfg);
    server.shutdown();
    EXPECT_EQ(report.server.submitted, 12u);
    EXPECT_EQ(report.server.submitted, report.server.finished());
    EXPECT_EQ(report.server.completed, 12u);
    EXPECT_GT(report.server.cache.warm_hits, 0u);
    EXPECT_GT(report.metrics.counter("credo_cache_warm_hits_total"), 0u);
  }

  // Batched replay: sessions fuse groups of 4; every member completes and
  // the accounting identity holds.
  {
    Server server(plain_server(2));
    StressConfig cfg;
    cfg.graphs = {pa};
    cfg.requests = 16;
    cfg.sessions = 2;
    cfg.mix = {bp::EngineKind::kCpuNode};
    cfg.batch = 4;
    cfg.options = test_options();
    const StressReport report = run_stress(server, cfg);
    server.shutdown();
    EXPECT_EQ(report.server.submitted, 16u);
    EXPECT_EQ(report.server.submitted, report.server.finished());
    EXPECT_EQ(report.server.completed, 16u);
  }
}

// ---------------------------------------------------------------------------
// Header hygiene: the pre-§5e compatibility names removed in §5g
// ---------------------------------------------------------------------------

// Regression: the one-release aliases serve::Status / serve::status_name
// and the throwing BpOptions::validate() wrapper must stay gone from the
// public headers. Scans the header text so a reintroduction fails even if
// no test happens to reference the old spelling.
TEST(HeaderHygiene, DeprecatedStatusAliasesStayRemoved) {
  const auto read_header = [](const char* rel) {
    const std::filesystem::path path =
        std::filesystem::path(CREDO_SOURCE_DIR) / rel;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << "missing public header: " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  const std::string request_h = read_header("src/serve/request.h");
  EXPECT_EQ(request_h.find("using Status ="), std::string::npos)
      << "serve::Status alias is back in request.h";
  EXPECT_EQ(request_h.find("status_name("), std::string::npos)
      << "serve::status_name is back in request.h";
  // §5h redesign: GraphKey replaced the GraphRef two-form (no deprecation
  // alias), and Response derives engine_name() from bp::engine_slug
  // instead of carrying a hand-set string member.
  EXPECT_EQ(request_h.find("GraphRef"), std::string::npos)
      << "the pre-§5h GraphRef name is back in request.h";
  EXPECT_NE(request_h.find("struct GraphKey"), std::string::npos)
      << "GraphKey is the request vocabulary's graph identity";
  EXPECT_EQ(request_h.find("std::string engine_name"), std::string::npos)
      << "Response::engine_name must stay an accessor, not a string member";

  const std::string options_h = read_header("src/bp/options.h");
  EXPECT_EQ(options_h.find("void validate()"), std::string::npos)
      << "the throwing BpOptions::validate() wrapper is back in options.h";
  EXPECT_NE(options_h.find("validate_status()"), std::string::npos)
      << "BpOptions::validate_status() is the supported validator";
}

}  // namespace
}  // namespace credo::serve
