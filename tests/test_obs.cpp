// Tests for the observability layer (DESIGN.md §5e): registry correctness
// under concurrent increments (run under CREDO_SANITIZE in CI), histogram
// bucket boundaries and quantiles, golden Prometheus/JSON output, snapshot
// differencing, the SpanLog ring, and span lifecycle end to end — one span
// per request for each of the four terminal statuses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "credo/api.h"
#include "graph/generators.h"

namespace credo::obs {
namespace {

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

TEST(Metrics, CounterSumsConcurrentIncrements) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test_total", "concurrent increments");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(reg.snapshot().counter("test_total"), kThreads * kPerThread);
}

TEST(Metrics, CounterSeriesAreDistinctByLabels) {
  MetricsRegistry reg;
  Counter& ok = reg.counter("req_total", "by status", {{"status", "ok"}});
  Counter& err = reg.counter("req_total", "by status", {{"status", "err"}});
  EXPECT_NE(&ok, &err);
  ok.inc(3);
  err.inc();
  // Re-registering the same series returns the same instance.
  EXPECT_EQ(&reg.counter("req_total", "by status", {{"status", "ok"}}), &ok);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("req_total{status=\"ok\"}"), 3u);
  EXPECT_EQ(snap.counter("req_total{status=\"err\"}"), 1u);
  EXPECT_EQ(snap.counter("req_total{status=\"absent\"}"), 0u);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("depth", "queue depth");
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.add(2.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 6.0);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpper) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("sizes", "test", {1.0, 10.0, 100.0});
  // Prometheus buckets are `le` (less-or-equal): a value exactly on a bound
  // lands in that bound's bucket.
  h.observe(0.5);    // bucket le=1
  h.observe(1.0);    // bucket le=1 (inclusive upper)
  h.observe(1.001);  // bucket le=10
  h.observe(10.0);   // bucket le=10
  h.observe(99.0);   // bucket le=100
  h.observe(250.0);  // +Inf
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);  // +Inf
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.max, 250.0);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.001 + 10.0 + 99.0 + 250.0);
}

TEST(Metrics, HistogramQuantilesInterpolateAndClampToMax) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", "test", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.observe(1.5);  // all in (1, 2]
  const auto snap = h.snapshot();
  // Every observation is in the (1,2] bucket: quantiles interpolate inside
  // it and can never exceed the exact max (1.5, not the bucket bound 2).
  EXPECT_GE(snap.quantile(0.5), 1.0);
  EXPECT_LE(snap.quantile(0.5), 1.5);
  EXPECT_LE(snap.quantile(0.99), 1.5);
  EXPECT_GE(snap.quantile(0.99), snap.quantile(0.5));
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 1.5);
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);  // empty
}

TEST(Metrics, HistogramConcurrentObservationsLoseNothing) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("conc", "test", pow2_buckets(8));
  constexpr unsigned kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
  // Sum of t+1 over threads, kPerThread each: (1+..+8) * 5000.
  EXPECT_DOUBLE_EQ(snap.sum, 36.0 * kPerThread);
}

TEST(Metrics, BucketHelpers) {
  EXPECT_EQ(pow2_buckets(4), (std::vector<double>{1, 2, 4, 8}));
  EXPECT_EQ(decade_buckets(3), (std::vector<double>{1, 10, 100}));
  const auto lat = default_latency_buckets();
  ASSERT_GE(lat.size(), 2u);
  for (std::size_t i = 1; i < lat.size(); ++i) EXPECT_LT(lat[i - 1], lat[i]);
}

// ---------------------------------------------------------------------------
// Golden scrape output
// ---------------------------------------------------------------------------

TEST(Metrics, PrometheusGoldenOutput) {
  MetricsRegistry reg;
  reg.counter("app_requests_total", "Requests", {{"status", "ok"}}).inc(7);
  reg.gauge("app_depth", "Depth").set(3.0);
  Histogram& h = reg.histogram("app_lat_seconds", "Latency", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(0.5);
  h.observe(2.0);

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string expected =
      "# HELP app_depth Depth\n"
      "# TYPE app_depth gauge\n"
      "app_depth 3\n"
      "# HELP app_lat_seconds Latency\n"
      "# TYPE app_lat_seconds histogram\n"
      "app_lat_seconds_bucket{le=\"0.1\"} 1\n"
      "app_lat_seconds_bucket{le=\"1\"} 3\n"
      "app_lat_seconds_bucket{le=\"+Inf\"} 4\n"
      "app_lat_seconds_sum 3.05\n"
      "app_lat_seconds_count 4\n"
      "# HELP app_requests_total Requests\n"
      "# TYPE app_requests_total counter\n"
      "app_requests_total{status=\"ok\"} 7\n";
  EXPECT_EQ(os.str(), expected);
}

TEST(Metrics, JsonGoldenOutput) {
  MetricsRegistry reg;
  reg.counter("c_total", "help").inc(2);
  reg.gauge("g", "help").set(1.5);
  reg.histogram("h", "help", {1.0}).observe(0.5);

  std::ostringstream os;
  reg.write_json(os);
  const std::string expected =
      "{\"counters\":{\"c_total\":2},"
      "\"gauges\":{\"g\":1.5},"
      "\"histograms\":{\"h\":{\"buckets\":[{\"le\":1,\"count\":1},"
      "{\"le\":\"+Inf\",\"count\":0}],\"sum\":0.5,\"count\":1,"
      "\"max\":0.5}}}";
  EXPECT_EQ(os.str(), expected);
}

TEST(Metrics, SnapshotSinceDiffsCountersAndHistograms) {
  MetricsRegistry reg;
  Counter& c = reg.counter("d_total", "help");
  Histogram& h = reg.histogram("d_lat", "help", {1.0, 2.0});
  c.inc(5);
  h.observe(0.5);
  const MetricsSnapshot before = reg.snapshot();
  c.inc(3);
  h.observe(1.5);
  h.observe(1.5);
  const MetricsSnapshot delta = reg.snapshot().since(before);
  EXPECT_EQ(delta.counter("d_total"), 3u);
  const auto hd = delta.histogram("d_lat");
  EXPECT_EQ(hd.count, 2u);
  ASSERT_EQ(hd.counts.size(), 3u);
  EXPECT_EQ(hd.counts[0], 0u);  // the pre-window 0.5 is differenced away
  EXPECT_EQ(hd.counts[1], 2u);
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

TEST(Spans, IdsAreUniqueAndMonotonic) {
  const auto a = next_span_id();
  const auto b = next_span_id();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, a);
}

TEST(Spans, RingDropsOldestBeyondCapacity) {
  SpanLog log(3);
  for (int i = 1; i <= 5; ++i) {
    Span s;
    s.id = static_cast<std::uint64_t>(i);
    s.tag = "r" + std::to_string(i);
    log.record(std::move(s));
  }
  EXPECT_EQ(log.recorded(), 5u);
  EXPECT_EQ(log.dropped(), 2u);
  const auto spans = log.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, 3u);  // oldest retained first
  EXPECT_EQ(spans[2].id, 5u);
}

TEST(Spans, JsonlHasOneObjectPerLine) {
  SpanLog log(8);
  Span s;
  s.id = 42;
  s.tag = "with \"quotes\"";
  s.graph = "a|b";
  s.engine = "C Node";
  s.status = "ok";
  s.queue_s = 0.25;
  s.iterations = 7;
  s.warm = "resumed";
  s.seed_nodes = 12;
  log.record(std::move(s));
  std::ostringstream os;
  log.write_jsonl(os);
  const std::string line = os.str();
  EXPECT_NE(line.find("\"id\":42"), std::string::npos) << line;
  EXPECT_NE(line.find("\\\"quotes\\\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"iterations\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"warm\":\"resumed\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"seed_nodes\":12"), std::string::npos) << line;
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
}

// ---------------------------------------------------------------------------
// Span lifecycle end to end: one span per request, all four terminal
// statuses, against a Server with its own registry and span log.
// ---------------------------------------------------------------------------

std::pair<std::string, std::string> write_graph() {
  // Per-process directory: concurrent copies of this suite must not
  // overwrite each other's fixtures.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("credo_obs_ut_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 21;
  cfg.observed_fraction = 0.1;
  const auto g = graph::grid(8, 8, cfg);
  const std::string prefix = (dir / "span_g").string();
  io::write_mtx_belief(g, prefix + "_nodes.mtx", prefix + "_edges.mtx");
  return {prefix + "_nodes.mtx", prefix + "_edges.mtx"};
}

TEST(Spans, ServerRecordsAllFourTerminalStatuses) {
  const auto [nodes, edges] = write_graph();
  MetricsRegistry reg;
  SpanLog spans(64);
  serve::ServerOptions so;
  so.workers = 1;
  so.use_dispatcher = false;
  so.queue_capacity = 64;
  so.metrics = &reg;
  so.spans = &spans;
  serve::Server server(so);

  const auto opts =
      bp::BpOptions{}.with_max_iterations(30).with_convergence_threshold(
          1e-3f);
  const auto request = [&](const char* tag) {
    return serve::Request{}
        .with_files(nodes, edges)
        .with_options(opts)
        .with_engine(bp::EngineKind::kCpuNode)
        .with_tag(tag);
  };
  std::vector<serve::Response> responses;  // every request's, in order

  // ok
  const auto ok_resp = server.submit(request("ok")).get();
  ASSERT_TRUE(ok_resp.ok()) << ok_resp.error;
  EXPECT_GT(ok_resp.span_id, 0u);
  responses.push_back(ok_resp);

  // cancelled (token fired before the worker dequeues it)
  std::stop_source source;
  source.request_stop();
  const auto cancel_resp =
      server.submit(request("cancelled").with_cancel(source.get_token()))
          .get();
  EXPECT_EQ(cancel_resp.status, util::StatusCode::kCancelled);
  responses.push_back(cancel_resp);

  // deadline (modelled budget below one iteration, deterministic)
  const auto dl_resp =
      server
          .submit(request("deadline")
                      .with_options(bp::BpOptions(opts)
                                        .with_convergence_threshold(1e-9f)
                                        .with_queue_threshold(1e-10f))
                      .with_deadline(
                          serve::Deadline{}.with_modelled_seconds(1e-12)))
          .get();
  EXPECT_EQ(dl_resp.status, util::StatusCode::kDeadlineExceeded);
  responses.push_back(dl_resp);

  // Queue and run histograms observe dequeued requests only.
  EXPECT_EQ(reg.snapshot().histogram("credo_request_run_seconds").count, 3u);

  // validation failure (an inline graph named with file paths too):
  // resolved at submit, never queued
  serve::Request mixed = request("invalid").with_preloaded(
      std::make_shared<const graph::FactorGraph>(
          io::read_mtx_belief(nodes, edges)));
  mixed.graph.nodes_path = nodes;
  const auto invalid_resp = server.submit(std::move(mixed)).get();
  EXPECT_EQ(invalid_resp.status, util::StatusCode::kInvalidArgument);
  responses.push_back(invalid_resp);

  // A batch of three: one runs, one is unfusable with the head (other
  // options), one was cancelled before the worker took the batch.
  std::vector<serve::Request> batch;
  batch.push_back(request("batch-run"));
  batch.push_back(request("batch-unfusable")
                      .with_options(bp::BpOptions(opts).with_max_iterations(7)));
  batch.push_back(request("batch-cancelled").with_cancel(source.get_token()));
  auto batch_futures = server.submit_batch(std::move(batch));
  ASSERT_EQ(batch_futures.size(), 3u);
  for (auto& f : batch_futures) responses.push_back(f.get());
  EXPECT_EQ(responses[4].status, util::StatusCode::kOk);
  EXPECT_EQ(responses[5].status, util::StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[6].status, util::StatusCode::kCancelled);
  EXPECT_EQ(reg.snapshot().histogram("credo_request_run_seconds").count, 6u);

  // rejected (post-shutdown submit)
  server.shutdown();
  const auto rej_resp = server.submit(request("rejected")).get();
  EXPECT_EQ(rej_resp.status, util::StatusCode::kRejected);
  EXPECT_GT(rej_resp.span_id, 0u);
  responses.push_back(rej_resp);

  // rejected at shutdown: a zero-worker server's queued orphan
  serve::ServerOptions idle_options = so;
  idle_options.workers = 0;
  serve::Server idle(idle_options);
  auto orphan = idle.submit(request("orphan"));
  idle.shutdown();
  const auto orphan_resp = orphan.get();
  EXPECT_EQ(orphan_resp.status, util::StatusCode::kRejected);
  EXPECT_EQ(orphan_resp.error, "server stopped");
  responses.push_back(orphan_resp);

  // One span per request, carrying its response's id, tag and status.
  const auto recorded = spans.snapshot();
  ASSERT_EQ(recorded.size(), responses.size());
  std::map<std::uint64_t, const Span*> by_id;
  for (const auto& s : recorded) by_id[s.id] = &s;
  ASSERT_EQ(by_id.size(), recorded.size());
  for (const auto& r : responses) {
    SCOPED_TRACE(r.tag);
    ASSERT_TRUE(by_id.count(r.span_id));
    EXPECT_EQ(by_id[r.span_id]->tag, r.tag);
    EXPECT_EQ(by_id[r.span_id]->status, util::status_code_name(r.status));
  }

  const Span& ok_span = *by_id[ok_resp.span_id];
  EXPECT_EQ(ok_span.graph, nodes + "|" + edges);
  // Spans record the same stable slug Response::engine_name() exposes.
  EXPECT_EQ(ok_span.engine, "c-node");
  EXPECT_GT(ok_span.run_s, 0.0);
  EXPECT_GT(ok_span.run_modelled_s, 0.0);
  EXPECT_GT(ok_span.iterations, 0u);
  EXPECT_GE(ok_span.total_wall_s(), ok_span.run_s);

  EXPECT_GT(by_id[dl_resp.span_id]->iterations, 0u);  // ran, then expired
  EXPECT_EQ(by_id[cancel_resp.span_id]->iterations, 0u);  // never ran
  EXPECT_EQ(by_id[responses[4].span_id]->engine, "c-node");  // fused run
  // cancelled, invalid, batch-unfusable, batch-cancelled, rejected and
  // orphan never chose an engine.
  for (const std::size_t i : {1, 3, 5, 6, 7, 8}) {
    EXPECT_EQ(by_id[responses[i].span_id]->engine, "") << responses[i].tag;
  }

  // The registry tells the same story: one count per request.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("credo_requests_submitted_total"), 9u);
  EXPECT_EQ(snap.counter("credo_requests_total{status=\"ok\"}"), 2u);
  EXPECT_EQ(snap.counter("credo_requests_total{status=\"cancelled\"}"), 2u);
  EXPECT_EQ(snap.counter("credo_requests_total{status=\"deadline\"}"), 1u);
  EXPECT_EQ(snap.counter("credo_requests_total{status=\"rejected\"}"), 2u);
  EXPECT_EQ(snap.counter("credo_requests_total{status=\"error\"}"), 2u);
  EXPECT_EQ(snap.histogram("credo_request_run_seconds").count, 6u);
  EXPECT_EQ(snap.histogram("credo_request_queue_seconds").count, 6u);
  // The ok request parsed (miss); the deadline request and the fused
  // member reused it (hits); no other request touched the cache.
  EXPECT_EQ(snap.counter("credo_graph_cache_misses_total"), 1u);
  EXPECT_EQ(snap.counter("credo_graph_cache_hits_total"), 2u);
}

// ---------------------------------------------------------------------------
// Status vocabulary (util/error.h)
// ---------------------------------------------------------------------------

TEST(StatusVocabulary, CodesAndNames) {
  EXPECT_TRUE(util::Status::ok().is_ok());
  const auto bad = util::Status::invalid_argument("nope");
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.message(), "nope");
  EXPECT_STREQ(util::status_code_name(util::StatusCode::kOk), "ok");
  EXPECT_STREQ(util::status_code_name(util::StatusCode::kDeadlineExceeded),
               "deadline");
  EXPECT_STREQ(util::status_code_name(util::StatusCode::kParse),
               "parse-error");
}

TEST(StatusVocabulary, ExceptionsMapToTheirCodes) {
  EXPECT_EQ(util::status_from_exception(util::IoError("x")).code(),
            util::StatusCode::kIo);
  EXPECT_EQ(util::status_from_exception(util::ParseError("f.mtx", 3, "x"))
                .code(),
            util::StatusCode::kParse);
  EXPECT_EQ(util::status_from_exception(util::InvalidArgument("x")).code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(util::status_from_exception(std::runtime_error("x")).code(),
            util::StatusCode::kError);
}

TEST(StatusVocabulary, StatusOrHoldsValueOrStatus) {
  util::StatusOr<int> good(42);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(*good, 42);
  util::StatusOr<int> bad(util::Status::invalid_argument("no"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(StatusVocabulary, BpOptionsValidateStatus) {
  EXPECT_TRUE(bp::BpOptions{}.validate_status().is_ok());
  bp::BpOptions bad;
  bad.max_iterations = 0;
  const auto st = bad.validate_status();
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(st.message().empty());
}

}  // namespace
}  // namespace credo::obs
