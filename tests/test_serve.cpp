// Tests for the serve layer (DESIGN.md §5c): GraphCache hit/miss/LRU,
// content-hash keys, and hits served from the files' identities (fresh,
// rewritten, renamed, touched and deleted files against the 2-s guard),
// warm repeats that resume the stored run's open frontier (DESIGN.md
// §5h), Server admission control and accounting, cooperative cancellation
// and deadlines end to end, and the concurrency stress the layer must
// survive — many concurrent clients against one server, beliefs
// bit-identical to single-threaded runs, every request accounted for
// exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <stop_token>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bp/engine.h"
#include "graph/builder.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/ldpc.h"
#include "graph/reorder.h"
#include "io/mtx_belief.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/graph_cache.h"
#include "serve/server.h"
#include "serve/stress.h"

namespace credo::serve {
namespace {

using graph::FactorGraph;

/// A per-process temp dir, so concurrent copies of this suite do not
/// overwrite each other's files; returns `name`'s pair paths in it.
std::pair<std::string, std::string> pair_paths(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("credo_serve_ut_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / name).string();
  return {prefix + "_nodes.mtx", prefix + "_edges.mtx"};
}

/// Writes `g` as an MTX-belief pair; returns the paths.
std::pair<std::string, std::string> write_graph(const FactorGraph& g,
                                                const std::string& name) {
  auto paths = pair_paths(name);
  io::write_mtx_belief(g, paths.first, paths.second);
  return paths;
}

/// Writes `text` to `path`, in place when the file exists (same inode).
void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.flush()) << path;
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
  EXPECT_EQ(first.entry->graph->num_nodes(), g.num_nodes());
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
  EXPECT_GT(a.entry->graph->num_nodes(), 0u);

  // a is gone from the cache: fetching it again is a miss (and evicts b).
  EXPECT_FALSE(cache.fetch(pa.first, pa.second).hit);
  EXPECT_FALSE(cache.fetch(pb.first, pb.second).hit);
  EXPECT_GT(b.entry->graph->num_nodes(), 0u);
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
  EXPECT_NE(before.entry->key, after.entry->key);
  EXPECT_EQ(after.entry->graph->num_nodes(), g2.num_nodes());
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
      a.entry->graph->num_nodes(), graph::BeliefVec::uniform(2));
  WarmState state;
  state.beliefs = beliefs;
  cache.warm_store(key, bp::EngineKind::kCpuNode, state);
  EXPECT_EQ(cache.warm_size(), 1u);
  EXPECT_EQ(cache.warm_lookup(key, bp::EngineKind::kCpuNode).beliefs,
            beliefs);
  // Another engine's state is another entry.
  EXPECT_EQ(cache.warm_lookup(key, bp::EngineKind::kResidual).beliefs,
            nullptr);

  // Evicting the parsed graph must NOT drop the warm beliefs: a re-parse
  // after cache pressure still warm-starts (the §5h retention satellite).
  (void)cache.fetch(pb.first, pb.second);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.warm_lookup(key, bp::EngineKind::kCpuNode).beliefs,
            beliefs);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.warm_hits, 2u);
  EXPECT_EQ(stats.warm_misses, 1u);
}

TEST(GraphCache, WarmBytesCountBeliefsAndFrontiers) {
  obs::MetricsRegistry registry;
  GraphCache cache(1, &registry);
  const auto warm_bytes = [&] {
    return registry.snapshot().gauges.at("credo_cache_warm_bytes");
  };
  WarmState state;
  state.beliefs = std::make_shared<const std::vector<graph::BeliefVec>>(
      10, graph::BeliefVec::uniform(2));
  state.frontier = std::make_shared<const std::vector<graph::NodeId>>(
      std::initializer_list<graph::NodeId>{1, 4, 7});
  cache.warm_store("g#v0", bp::EngineKind::kCpuNode, state);
  EXPECT_EQ(warm_bytes(), 10 * sizeof(graph::BeliefVec) +
                              3 * sizeof(graph::NodeId));
  state.frontier = nullptr;  // a dense run's state: beliefs only
  cache.warm_store("g#v0", bp::EngineKind::kResidual, state);
  EXPECT_EQ(warm_bytes(), 20 * sizeof(graph::BeliefVec) +
                              3 * sizeof(graph::NodeId));
  (void)cache.warm_take("g#v0", bp::EngineKind::kCpuNode);
  EXPECT_EQ(warm_bytes(), 10 * sizeof(graph::BeliefVec));
}

// ---------------------------------------------------------------------------
// GraphCache: hits served from the files' identities
// ---------------------------------------------------------------------------

// Two node files of the same size that differ in node 1's prior, and an
// edge file that fits both.
constexpr const char* kNodesA =
    "%%MatrixMarket credo beliefs\n3 3 3\n1 1 0.25 0.75\n2 2 0.50 0.50\n"
    "3 3 0.40 0.60\n";
constexpr const char* kNodesB =
    "%%MatrixMarket credo beliefs\n3 3 3\n1 1 0.75 0.25\n2 2 0.50 0.50\n"
    "3 3 0.40 0.60\n";
constexpr const char* kEdges =
    "%%MatrixMarket credo joints\n%%shared-joint 2 0.9 0.1 0.1 0.9\n"
    "3 3 4\n1 2\n2 1\n2 3\n3 2\n";

/// Each case but the first fetches its own pair, written once per suite
/// run and then left alone for longer than the cache's 2-s guard, so its
/// identities are settled from the first fetch on. (The Server case is
/// further down, after plain_server.)
class GraphCacheIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    for (const char* name : {"id_settled", "id_same_size", "id_renamed",
                             "id_touched", "id_deleted", "id_server"}) {
      const auto [nodes, edges] = pair_paths(name);
      write_text(nodes, kNodesA);
      write_text(edges, kEdges);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  }

  /// Fetches a settled pair into `cache` for the first time: a miss that
  /// hashes once.
  static GraphCache::Fetched first_fetch(GraphCache& cache,
                                         const std::pair<std::string,
                                                         std::string>& p) {
    auto f = cache.fetch(p.first, p.second);
    EXPECT_FALSE(f.hit);
    EXPECT_EQ(cache.stats().content_hashes, 1u);
    return f;
  }

  static float first_prior(const GraphCache::Fetched& f) {
    return f.entry->graph->prior(0)[0];
  }
};

TEST_F(GraphCacheIdentity, FreshFilesAreHashedOnEveryFetch) {
  // Written just now: the identities are too fresh to trust, so a same-
  // size rewrite within the same timestamp tick could hide behind them.
  const auto [nodes, edges] = pair_paths("id_fresh");
  write_text(nodes, kNodesA);
  write_text(edges, kEdges);
  GraphCache cache(2);
  const auto first = cache.fetch(nodes, edges);
  const auto second = cache.fetch(nodes, edges);
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.entry.get(), second.entry.get());
  EXPECT_EQ(cache.stats().content_hashes, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(GraphCacheIdentity, SettledFilesHitWithoutReading) {
  const auto p = pair_paths("id_settled");
  GraphCache cache(2);
  const auto first = first_fetch(cache, p);
  for (int i = 0; i < 10; ++i) {
    const auto again = cache.fetch(p.first, p.second);
    EXPECT_TRUE(again.hit);
    EXPECT_EQ(again.entry.get(), first.entry.get());
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.content_hashes, 1u);
  EXPECT_EQ(stats.hits, 10u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(GraphCacheIdentity, SameSizeRewriteWithTheOldMtimeMisses) {
  // Same inode, same size, mtime restored: only the ctime tells.
  const auto p = pair_paths("id_same_size");
  GraphCache cache(2);
  const auto before = first_fetch(cache, p);
  EXPECT_FLOAT_EQ(first_prior(before), 0.25f);
  const auto mtime = std::filesystem::last_write_time(p.first);
  write_text(p.first, kNodesB);
  std::filesystem::last_write_time(p.first, mtime);
  ASSERT_EQ(std::filesystem::last_write_time(p.first), mtime);
  ASSERT_EQ(std::filesystem::file_size(p.first),
            std::string(kNodesA).size());

  const auto after = cache.fetch(p.first, p.second);
  EXPECT_FALSE(after.hit);
  EXPECT_FLOAT_EQ(first_prior(after), 0.75f);
  EXPECT_NE(after.entry->key, before.entry->key);
  EXPECT_EQ(cache.stats().content_hashes, 2u);
  EXPECT_EQ(cache.size(), 1u);  // the rewrite replaced its entry
}

TEST_F(GraphCacheIdentity, RenameOverTheFileMisses) {
  const auto p = pair_paths("id_renamed");
  GraphCache cache(2);
  const auto before = first_fetch(cache, p);
  const std::string staged = p.first + ".new";
  write_text(staged, kNodesB);
  std::filesystem::rename(staged, p.first);  // a new inode at the path

  const auto after = cache.fetch(p.first, p.second);
  EXPECT_FALSE(after.hit);
  EXPECT_FLOAT_EQ(first_prior(after), 0.75f);
  EXPECT_NE(after.entry->key, before.entry->key);
}

TEST_F(GraphCacheIdentity, TouchRehashesAndKeepsTheEntry) {
  const auto p = pair_paths("id_touched");
  GraphCache cache(2);
  const auto before = first_fetch(cache, p);
  EXPECT_TRUE(cache.fetch(p.first, p.second).hit);
  EXPECT_EQ(cache.stats().content_hashes, 1u);
  std::filesystem::last_write_time(
      p.first, std::filesystem::file_time_type::clock::now());

  const auto after = cache.fetch(p.first, p.second);
  EXPECT_TRUE(after.hit);  // same bytes: the content key still matches
  EXPECT_EQ(after.entry.get(), before.entry.get());
  EXPECT_EQ(after.entry->key, before.entry->key);
  EXPECT_EQ(cache.stats().content_hashes, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(GraphCacheIdentity, DeletedFileThrowsInsteadOfServingTheEntry) {
  const auto p = pair_paths("id_deleted");
  GraphCache cache(2);
  (void)first_fetch(cache, p);
  std::filesystem::remove(p.first);
  EXPECT_THROW((void)cache.fetch(p.first, p.second), util::IoError);
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

TEST_F(GraphCacheIdentity, ServerFailsOnAMalformedRewriteAndRecovers) {
  const auto p = pair_paths("id_server");
  Server server(plain_server(1));
  const auto send = [&] {
    return server
        .submit(Request{}
                    .with_graph(GraphKey::files(p.first, p.second))
                    .with_options(test_options())
                    .with_engine(bp::EngineKind::kCpuNode))
        .get();
  };
  const Response cached = send();
  ASSERT_TRUE(cached.ok()) << cached.error;

  write_text(p.second, "%%MatrixMarket credo joints\n3 3 1\n1 99\n");
  const Response malformed = send();
  EXPECT_EQ(malformed.status, util::StatusCode::kParse) << malformed.error;

  write_text(p.second, kEdges);
  const Response restored = send();
  EXPECT_EQ(restored.status, util::StatusCode::kOk) << restored.error;
  EXPECT_TRUE(restored.cache_hit);  // the entry's bytes again
  server.shutdown();
  const auto stats = server.stats().cache;
  EXPECT_EQ(stats.content_hashes, 3u);
  EXPECT_EQ(stats.misses, 1u);  // the malformed bytes never loaded
  EXPECT_EQ(stats.hits, 1u);
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

TEST(RequestVocabulary, GraphKeyRejectsAReorderedInlineGraph) {
  // An inline graph is reordered once by its owner, never per request:
  // the key rejects a mode instead of reordering on every run.
  const auto shared = std::make_shared<const FactorGraph>(small_grid());
  const auto status =
      GraphKey::preloaded(shared).with_reorder(graph::ReorderMode::kBfs)
          .validate();
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("reorder"), std::string::npos)
      << status.message();
  // The file form keeps its mode: the cache reorders once per entry.
  EXPECT_TRUE(GraphKey::files("a.mtx", "b.mtx")
                  .with_reorder(graph::ReorderMode::kBfs)
                  .validate()
                  .is_ok());

  Server server(plain_server(1));
  const Response resp =
      server
          .submit(Request{}
                      .with_graph(GraphKey::preloaded(shared).with_reorder(
                          graph::ReorderMode::kRcm))
                      .with_options(test_options())
                      .with_engine(bp::EngineKind::kCpuNode))
          .get();
  EXPECT_EQ(resp.status, util::StatusCode::kInvalidArgument);
  EXPECT_EQ(resp.result.stats.iterations, 0u);
  server.shutdown();
  EXPECT_EQ(server.stats().failed, 1u);
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
  std::stop_source source;
  graph::GraphDelta delta;
  delta.observe(3, 1);
  const Request built =
      Request{}
          .with_graph(GraphKey::files("n.mtx", "e.mtx")
                          .with_reorder(graph::ReorderMode::kBfs))
          .with_options(test_options())
          .with_engine(bp::EngineKind::kResidual)
          .with_delta(delta)
          .with_warm_start()
          .with_deadline(
              Deadline{}.with_host_seconds(0.5).with_modelled_seconds(2.0))
          .with_cancel(source.get_token())
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
  EXPECT_TRUE(built.cancel.stop_possible());
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
  std::stop_source source;
  ASSERT_TRUE(source.request_stop());

  Server server(plain_server(1));
  Request req;
  req.graph = GraphKey::preloaded(shared);
  req.options = test_options();
  req.engine = bp::EngineKind::kCpuNode;
  req.cancel = source.get_token();
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
      std::vector<std::future<Response>> futures;
      for (std::size_t i = 0; i < kPerSession; ++i) {
        const std::size_t seq = s * kPerSession + i;
        Request req;
        req.graph = GraphKey::files(paths[seq % 2].first,
                                    paths[seq % 2].second);
        req.options = opts;
        req.engine = mix[seq % mix.size()];
        req.tag = std::to_string(seq);
        futures.push_back(server.submit(std::move(req)));
      }
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
// bulk residual rounds).
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
  incremental_req.with_delta(delta);
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
                               .with_delta(delta));
  const Response resp = fut.get();
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_FALSE(resp.warm_start);
  EXPECT_DOUBLE_EQ(resp.frontier_fraction, 1.0);
  EXPECT_EQ(resp.result.stats.iterations, reference.stats.iterations);
  expect_beliefs_identical(g, resp.result.beliefs, reference.beliefs);
  server.shutdown();
}

TEST(Server, DeltaRequestReadsTheVersionStateAndStoresNothing) {
  // One warm state per (graph version, engine): an evidence delta starts
  // from it but does not file its own fixed point, so the table does not
  // grow per delta and a later warm repeat still starts from the state
  // the last plain run left.
  const auto [nodes, edges] = write_graph(small_random(), "delta_store");
  const auto g = io::read_mtx_belief(nodes, edges);
  const auto opts = test_options().with_max_iterations(100);
  Server server(plain_server(1));
  const Request base = Request{}
                           .with_files(nodes, edges)
                           .with_options(opts)
                           .with_engine(bp::EngineKind::kCpuNode)
                           .with_warm_start();

  const Response cold = server.submit(base).get();
  ASSERT_TRUE(cold.ok()) << cold.error;
  ASSERT_TRUE(cold.result.stats.converged);
  EXPECT_EQ(server.cache().warm_size(), 1u);

  graph::NodeId target = 0;
  while (g.observed(target)) ++target;
  graph::GraphDelta delta;
  delta.observe(target, 1);
  const Response incremental =
      server.submit(Request(base).with_delta(delta)).get();
  ASSERT_TRUE(incremental.ok()) << incremental.error;
  EXPECT_TRUE(incremental.warm_start);
  EXPECT_LT(incremental.frontier_fraction, 1.0);
  EXPECT_EQ(server.cache().warm_size(), 1u);

  // The repeat starts from the cold run's state, exactly as a direct run
  // initialized with those beliefs does.
  const Response repeat = server.submit(base).get();
  ASSERT_TRUE(repeat.ok()) << repeat.error;
  EXPECT_TRUE(repeat.warm_start);
  const auto reference =
      bp::make_default_engine(bp::EngineKind::kCpuNode)
          ->run(g, bp::BpOptions(opts).with_init_beliefs(
                       std::make_shared<const std::vector<graph::BeliefVec>>(
                           cold.result.beliefs)));
  EXPECT_EQ(repeat.result.stats.iterations, reference.stats.iterations);
  expect_beliefs_identical(g, repeat.result.beliefs, reference.beliefs);
  server.shutdown();
}

// ---------------------------------------------------------------------------
// Resuming the stored run's work queue (DESIGN.md §5h): a queued warm
// request under a bar no tighter than the stored one seeds its run with the
// stored open frontier. Without one it sweeps every node as a seed, which
// leaves a frontier the next repeat resumes; unqueued requests and engines
// without seed support sweep every node unseeded.
// ---------------------------------------------------------------------------

/// A direct run from `beliefs`, seeded with `seed` when one is given —
/// what the server must reproduce bit for bit.
bp::BpResult direct_run(const FactorGraph& g, bp::EngineKind kind,
                        bp::BpOptions opts,
                        const std::vector<graph::BeliefVec>& beliefs,
                        const std::vector<graph::NodeId>* seed = nullptr) {
  opts.with_init_beliefs(
      std::make_shared<const std::vector<graph::BeliefVec>>(beliefs));
  if (seed != nullptr) {
    opts.with_frontier_seed(
        std::make_shared<const std::vector<graph::NodeId>>(*seed));
  }
  return bp::make_default_engine(kind)->run(g, opts);
}

/// Every node of `g`: the seed of a full sweep that leaves a frontier.
std::vector<graph::NodeId> every_node(const FactorGraph& g) {
  std::vector<graph::NodeId> all(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
  return all;
}

/// Server options reporting into `registry` (and `spans`, when given).
ServerOptions observed_server(obs::MetricsRegistry& registry,
                              obs::SpanLog* spans = nullptr) {
  ServerOptions o = plain_server(1);
  o.metrics = &registry;
  o.spans = spans;
  return o;
}

std::uint64_t warm_runs(obs::MetricsRegistry& registry, const char* start) {
  return registry.snapshot().counter(
      std::string("credo_warm_runs_total{start=\"") + start + "\"}");
}

void expect_same_run(const FactorGraph& g, const Response& got,
                     const bp::BpResult& want) {
  expect_beliefs_identical(g, got.result.beliefs, want.beliefs);
  EXPECT_EQ(got.result.stats.iterations, want.stats.iterations);
  EXPECT_EQ(got.result.stats.elements_processed,
            want.stats.elements_processed);
  EXPECT_EQ(got.result.stats.frontier_seeded, want.stats.frontier_seeded);
}

double max_abs_diff(const std::vector<graph::BeliefVec>& a,
                    const std::vector<graph::BeliefVec>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t v = 0; v < a.size() && v < b.size(); ++v) {
    for (std::uint32_t s = 0; s < a[v].size; ++s) {
      worst = std::max(worst, static_cast<double>(std::abs(a[v].v[s] -
                                                           b[v].v[s])));
    }
  }
  return worst;
}

TEST(Server, QueuedWarmRepeatResumesTheStoredFrontier) {
  const auto [nodes, edges] = write_graph(small_random(), "resume_frontier");
  const auto g = io::read_mtx_belief(nodes, edges);
  const auto kind = bp::EngineKind::kCpuNode;
  const auto opts = test_options().with_max_iterations(100).with_work_queue();
  const auto every = every_node(g);
  obs::MetricsRegistry registry;
  obs::SpanLog spans(16);
  Server server(observed_server(registry, &spans));
  const Request base = Request{}
                           .with_files(nodes, edges)
                           .with_options(opts)
                           .with_engine(kind)
                           .with_warm_start();

  // No state yet: a cold queued run. Its unseeded queue leaves no
  // frontier, so only its beliefs are stored.
  const Response cold = server.submit(base).get();
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_FALSE(cold.warm_start);
  EXPECT_FALSE(cold.result.frontier.has_value());
  expect_beliefs_identical(g, cold.result.beliefs,
                           bp::make_default_engine(kind)->run(g, opts).beliefs);

  // The first repeat sweeps every node as a seed; its frontier moves into
  // the warm table instead of staying in the response.
  bp::BpResult want = direct_run(g, kind, opts, cold.result.beliefs, &every);
  const Response sweep = server.submit(base).get();
  ASSERT_TRUE(sweep.ok()) << sweep.error;
  EXPECT_TRUE(sweep.warm_start);
  expect_same_run(g, sweep, want);
  EXPECT_FALSE(sweep.result.frontier.has_value());
  EXPECT_DOUBLE_EQ(sweep.frontier_fraction, 1.0);

  // Each later repeat resumes the state the previous run left: bit for bit
  // a direct run from its beliefs seeded with its frontier, and less work
  // than sweeping every node from them.
  for (int repeat = 0; repeat < 2; ++repeat) {
    ASSERT_TRUE(want.frontier.has_value());
    const auto full = direct_run(g, kind, opts, want.beliefs, &every);
    want = direct_run(g, kind, opts, want.beliefs, &*want.frontier);
    const Response warm = server.submit(base).get();
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_TRUE(warm.warm_start);
    ASSERT_TRUE(warm.result.stats.converged);
    expect_same_run(g, warm, want);
    EXPECT_LT(warm.result.stats.elements_processed,
              full.stats.elements_processed);
    EXPECT_DOUBLE_EQ(warm.frontier_fraction,
                     static_cast<double>(want.stats.frontier_seeded) /
                         static_cast<double>(g.num_nodes()));
  }
  server.shutdown();
  EXPECT_EQ(warm_runs(registry, "resumed"), 2u);
  EXPECT_EQ(warm_runs(registry, "full_sweep"), 1u);
  EXPECT_EQ(registry.snapshot().histogram("credo_warm_seed_nodes").count, 2u);
  const auto recorded = spans.snapshot();
  ASSERT_EQ(recorded.size(), 4u);
  EXPECT_EQ(recorded[0].warm, "");
  EXPECT_EQ(recorded[1].warm, "full_sweep");
  EXPECT_EQ(recorded[1].seed_nodes, 0u);
  EXPECT_EQ(recorded[3].warm, "resumed");
  EXPECT_EQ(recorded[3].seed_nodes, want.stats.frontier_seeded);
}

TEST(Server, ResumingADrainedQueueDoesNoWork) {
  // Under a coarse queue bar the stored frontier drains; once it has, a
  // repeat has nothing to resume.
  const auto [nodes, edges] = write_graph(small_random(), "resume_drained");
  const auto g = io::read_mtx_belief(nodes, edges);
  const auto kind = bp::EngineKind::kCpuNode;
  const auto opts = test_options()
                        .with_max_iterations(100)
                        .with_work_queue()
                        .with_queue_threshold(1e-4f);
  const auto every = every_node(g);
  Server server(plain_server(1));
  const Request base = Request{}
                           .with_files(nodes, edges)
                           .with_options(opts)
                           .with_engine(kind)
                           .with_warm_start();
  const Response cold = server.submit(base).get();
  ASSERT_TRUE(cold.ok()) << cold.error;
  bp::BpResult want = direct_run(g, kind, opts, cold.result.beliefs, &every);
  ASSERT_TRUE(server.submit(base).get().ok());  // the full sweep
  for (int repeat = 0; !want.frontier->empty(); ++repeat) {
    ASSERT_LT(repeat, 20) << "the queue never drained";
    want = direct_run(g, kind, opts, want.beliefs, &*want.frontier);
    ASSERT_TRUE(server.submit(base).get().ok());
  }
  const Response idle = server.submit(base).get();
  ASSERT_TRUE(idle.ok()) << idle.error;
  EXPECT_TRUE(idle.warm_start);
  EXPECT_TRUE(idle.result.stats.converged);
  EXPECT_EQ(idle.result.stats.elements_processed, 0u);
  EXPECT_EQ(idle.frontier_fraction, 0.0);
  expect_beliefs_identical(g, idle.result.beliefs, want.beliefs);
  server.shutdown();
}

TEST(Server, RepeatsAfterAnEarlyFrozenColdRunMatchAFullSweep) {
  // A directed chain 29 -> 28 -> ... -> 0 from an observed head, every
  // prior uniform. The cold queued run visits node v before its parent
  // v + 1 has moved, finds it unchanged and drops it for good: the run
  // drains with all but the head's child at their priors. Resuming what
  // that queue held would return those beliefs forever; the repeats must
  // instead end where a full sweep from the stored state ends.
  graph::GraphBuilder b;
  const graph::NodeId n = 30;
  for (graph::NodeId v = 0; v < n; ++v) {
    b.add_node(graph::BeliefVec::uniform(2));
  }
  b.observe(n - 1, 0);
  for (graph::NodeId v = 1; v < n; ++v) {
    b.add_edge(v, v - 1, graph::JointMatrix::diffusion(2, 0.9f));
  }
  const auto [nodes, edges] = write_graph(b.finalize(), "resume_frozen");
  const auto g = io::read_mtx_belief(nodes, edges);
  const auto kind = bp::EngineKind::kCpuNode;
  const auto opts = test_options()
                        .with_max_iterations(100)
                        .with_convergence_threshold(1e-6f)
                        .with_queue_threshold(1e-9f)
                        .with_work_queue();
  obs::MetricsRegistry registry;
  Server server(observed_server(registry));
  const Request base = Request{}
                           .with_files(nodes, edges)
                           .with_options(opts)
                           .with_engine(kind)
                           .with_warm_start();
  const Response cold = server.submit(base).get();
  ASSERT_TRUE(cold.ok()) << cold.error;
  const auto dense = bp::BpOptions(opts).with_work_queue(false);
  const auto full = direct_run(g, kind, dense, cold.result.beliefs);
  ASSERT_TRUE(full.stats.converged);
  EXPECT_GT(max_abs_diff(cold.result.beliefs, full.beliefs), 0.1);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const Response warm = server.submit(base).get();
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_TRUE(warm.warm_start);
    EXPECT_LT(max_abs_diff(warm.result.beliefs, full.beliefs), 1e-5)
        << "repeat " << repeat;
  }
  server.shutdown();
  EXPECT_EQ(warm_runs(registry, "full_sweep"), 1u);
  EXPECT_EQ(warm_runs(registry, "resumed"), 2u);
}

TEST(Server, WarmRequestsThatCannotResumeSweepEveryNode) {
  // A tighter queue bar sweeps every node from the stored beliefs as a
  // seed; dense options and an engine without seed support sweep them
  // unseeded — each exactly as a direct run from those beliefs.
  const auto [nodes, edges] = write_graph(small_random(), "resume_refused");
  const auto g = io::read_mtx_belief(nodes, edges);
  const auto queued =
      test_options().with_max_iterations(100).with_work_queue();
  const auto every = every_node(g);
  obs::MetricsRegistry registry;
  Server server(observed_server(registry));
  const auto request = [&](bp::EngineKind kind, const bp::BpOptions& o) {
    return Request{}
        .with_files(nodes, edges)
        .with_options(o)
        .with_engine(kind)
        .with_warm_start();
  };
  const auto expect_full_sweep =
      [&](bp::EngineKind kind, const bp::BpOptions& o,
          const std::vector<graph::BeliefVec>& from,
          const std::vector<graph::NodeId>* seed) {
        const Response r = server.submit(request(kind, o)).get();
        EXPECT_TRUE(r.ok()) << r.error;
        EXPECT_TRUE(r.warm_start);
        EXPECT_DOUBLE_EQ(r.frontier_fraction, 1.0);
        expect_same_run(g, r, direct_run(g, kind, o, from, seed));
        return r;
      };

  const auto node = bp::EngineKind::kCpuNode;
  const Response cold = server.submit(request(node, queued)).get();
  ASSERT_TRUE(cold.ok()) << cold.error;
  const Response sweep = expect_full_sweep(node, queued, cold.result.beliefs,
                                           &every);
  const Response tighter = expect_full_sweep(
      node, bp::BpOptions(queued).with_queue_threshold(1e-8f),
      sweep.result.beliefs, &every);
  (void)expect_full_sweep(node, bp::BpOptions(queued).with_work_queue(false),
                          tighter.result.beliefs, nullptr);

  // c-edge takes warm starts but not seeds: its queued repeat sweeps.
  const auto edge = bp::EngineKind::kCpuEdge;
  const Response edge_cold = server.submit(request(edge, queued)).get();
  ASSERT_TRUE(edge_cold.ok()) << edge_cold.error;
  EXPECT_FALSE(edge_cold.warm_start);
  (void)expect_full_sweep(edge, queued, edge_cold.result.beliefs, nullptr);

  server.shutdown();
  EXPECT_EQ(warm_runs(registry, "full_sweep"), 4u);
  EXPECT_EQ(warm_runs(registry, "resumed"), 0u);
  EXPECT_EQ(registry.snapshot().histogram("credo_warm_seed_nodes").count, 0u);
}

TEST(Server, WarmRepeatsRunAtTheCallersDamping) {
  // frontier_damping floors the damping of runs a delta seeded (§5j). The
  // repeats the server seeds itself, to sweep or to resume, run at the
  // caller's damping; a delta still gets the floor.
  const auto [nodes, edges] = write_graph(small_random(), "resume_damping");
  const auto g = io::read_mtx_belief(nodes, edges);
  const auto kind = bp::EngineKind::kCpuNode;
  const auto floored = test_options()
                           .with_max_iterations(100)
                           .with_work_queue()
                           .with_frontier_damping(0.5f);
  const auto own = bp::BpOptions(floored).with_frontier_damping(0.0f);
  const auto every = every_node(g);
  Server server(plain_server(1));
  const Request base = Request{}
                           .with_files(nodes, edges)
                           .with_options(floored)
                           .with_engine(kind)
                           .with_warm_start();
  const Response cold = server.submit(base).get();
  ASSERT_TRUE(cold.ok()) << cold.error;

  const auto sweep = direct_run(g, kind, own, cold.result.beliefs, &every);
  EXPECT_GT(max_abs_diff(
                sweep.beliefs,
                direct_run(g, kind, floored, cold.result.beliefs, &every)
                    .beliefs),
            0.0);
  expect_same_run(g, server.submit(base).get(), sweep);
  ASSERT_TRUE(sweep.frontier.has_value());
  const auto resumed =
      direct_run(g, kind, own, sweep.beliefs, &*sweep.frontier);
  expect_same_run(g, server.submit(base).get(), resumed);

  graph::NodeId target = 1;
  while (g.observed(target)) ++target;
  graph::GraphDelta delta;
  delta.observe(target, 2);
  std::vector<graph::NodeId> seed;
  const auto evidenced = graph::with_delta(g, delta, &seed);
  ASSERT_TRUE(resumed.frontier.has_value());
  seed.insert(seed.end(), resumed.frontier->begin(), resumed.frontier->end());
  expect_same_run(g, server.submit(Request(base).with_delta(delta)).get(),
                  direct_run(evidenced, kind, floored, resumed.beliefs, &seed));
  server.shutdown();
}

class DeltaResume : public ::testing::TestWithParam<graph::ReorderMode> {};

TEST_P(DeltaResume, EvidenceDeltaSeedsTouchedNodesAndTheStoredFrontier) {
  const graph::ReorderMode mode = GetParam();
  const auto [nodes, edges] = write_graph(
      small_random(),
      "delta_resume_" + std::string(graph::reorder_mode_name(mode)));
  const auto g = graph::reordered(io::read_mtx_belief(nodes, edges), mode);
  const auto kind = bp::EngineKind::kCpuNode;
  const auto opts = test_options().with_max_iterations(100).with_work_queue();
  obs::MetricsRegistry registry;
  Server server(observed_server(registry));
  const Request base =
      Request{}
          .with_graph(GraphKey::files(nodes, edges).with_reorder(mode))
          .with_options(opts)
          .with_engine(kind)
          .with_warm_start();

  // A cold run, then a full sweep whose frontier the delta will resume.
  const Response cold = server.submit(base).get();
  ASSERT_TRUE(cold.ok()) << cold.error;
  const Response sweep = server.submit(base).get();
  ASSERT_TRUE(sweep.ok()) << sweep.error;
  const auto every = every_node(g);
  const auto stored = direct_run(g, kind, opts, cold.result.beliefs, &every);
  expect_same_run(g, sweep, stored);
  ASSERT_TRUE(stored.frontier.has_value());
  ASSERT_FALSE(stored.frontier->empty());

  // Caller ids throughout: the touched nodes, the frontier, the beliefs.
  graph::NodeId target = 1;
  while (g.observed(target)) ++target;
  graph::GraphDelta delta;
  delta.observe(target, 2);
  std::vector<graph::NodeId> seed;
  const auto evidenced = graph::with_delta(g, delta, &seed);
  seed.insert(seed.end(), stored.frontier->begin(), stored.frontier->end());
  const auto want = direct_run(evidenced, kind, opts, stored.beliefs, &seed);

  const Response got = server.submit(Request(base).with_delta(delta)).get();
  ASSERT_TRUE(got.ok()) << got.error;
  EXPECT_TRUE(got.warm_start);
  expect_same_run(g, got, want);
  server.shutdown();
  EXPECT_EQ(warm_runs(registry, "resumed"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Orders, DeltaResume,
                         ::testing::Values(graph::ReorderMode::kNone,
                                           graph::ReorderMode::kBfs),
                         [](const auto& info) {
                           return std::string(
                               graph::reorder_mode_name(info.param));
                         });

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
  std::stop_source fired;
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
                      .with_delta(delta));
  batch.push_back(Request{}
                      .with_preloaded(shared)
                      .with_options(test_options())
                      .with_engine(bp::EngineKind::kCpuNode)
                      .with_cancel(fired.get_token()));
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
  std::stop_source long_stop;
  std::stop_source member_stop;

  Server server(plain_server(1));
  auto long_fut = server.submit(
      Request{}
          .with_preloaded(big)
          .with_options(bp::BpOptions{}
                            .with_max_iterations(2000000)
                            .with_convergence_threshold(1e-30f)
                            .with_queue_threshold(1e-32f))
          .with_engine(bp::EngineKind::kCpuNode)
          .with_cancel(long_stop.get_token()));

  std::vector<Request> batch;
  for (int i = 0; i < 3; ++i) {
    Request req = Request{}
                      .with_preloaded(small)
                      .with_options(test_options())
                      .with_engine(bp::EngineKind::kCpuNode);
    if (i == 1) req.with_cancel(member_stop.get_token());
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

TEST(ServerBatch, FusedRunHonoursTheMembersDeadline) {
  // Without its budget the fused run would take 20,000 sweeps (about a
  // second); a 1 ms host budget stops it after a few, and every fused
  // member reports the expiry. A member with another deadline is not
  // fusable.
  const auto g = std::make_shared<const FactorGraph>(small_random());
  const auto opts = bp::BpOptions{}
                        .with_max_iterations(20000)
                        .with_convergence_threshold(1e-30f)
                        .with_queue_threshold(1e-32f);
  const auto member = [&](double host_seconds) {
    return Request{}
        .with_preloaded(g)
        .with_options(opts)
        .with_engine(bp::EngineKind::kCpuNode)
        .with_deadline(Deadline{}.with_host_seconds(host_seconds));
  };
  Server server(plain_server(1));
  std::vector<Request> batch;
  batch.push_back(member(1e-3));
  batch.push_back(member(1e-3));
  batch.push_back(member(0.0));
  auto futures = server.submit_batch(std::move(batch));
  ASSERT_EQ(futures.size(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("batch member " + std::to_string(i));
    const Response resp = futures[i].get();
    EXPECT_EQ(resp.status, util::StatusCode::kDeadlineExceeded);
    EXPECT_EQ(resp.result.stats.stop_reason,
              bp::runtime::StopReason::kDeadline);
    EXPECT_LT(resp.result.stats.iterations, 20000u);
    EXPECT_EQ(resp.result.beliefs.size(), g->num_nodes());
  }
  const Response other = futures[2].get();
  EXPECT_EQ(other.status, util::StatusCode::kInvalidArgument);
  EXPECT_NE(other.error.find("deadline"), std::string::npos) << other.error;

  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.deadline_expired, 2u);
  EXPECT_EQ(stats.failed, 1u);
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
