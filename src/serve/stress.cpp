#include "serve/stress.h"

#include <algorithm>
#include <filesystem>
#include <future>
#include <stop_token>
#include <thread>

#include "graph/ldpc.h"
#include "io/mtx_belief.h"
#include "util/error.h"
#include "util/timer.h"

namespace credo::serve {
namespace {

/// Series key of one credo_requests_total terminal-status counter.
std::string status_series(const char* status) {
  return std::string("credo_requests_total{status=\"") + status + "\"}";
}

/// splitmix64 — deterministic per-request churn targets with no shared
/// RNG state between session threads.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

util::Table StressReport::table() const {
  // Every count below is read from the registry delta — the table and a
  // Prometheus scrape of the same window reconcile by construction.
  const auto counter = [&](const std::string& series) {
    return static_cast<double>(metrics.counter(series));
  };
  const double hits = counter("credo_graph_cache_hits_total");
  const double misses = counter("credo_graph_cache_misses_total");
  const double fetches = hits + misses;

  util::Table t({"metric", "value"});
  t.add_row({"sessions", util::Table::num(sessions, 6)});
  t.add_row({"requests", util::Table::num(
                             static_cast<double>(requests), 9)});
  t.add_row({"wall s", util::Table::num(wall_seconds, 4)});
  t.add_row({"throughput req/s", util::Table::num(throughput_rps, 5)});
  t.add_row({"submitted",
             util::Table::num(counter("credo_requests_submitted_total"), 9)});
  t.add_row({"completed", util::Table::num(counter(status_series("ok")), 9)});
  t.add_row({"rejected",
             util::Table::num(counter(status_series("rejected")), 9)});
  t.add_row({"cancelled",
             util::Table::num(counter(status_series("cancelled")), 9)});
  t.add_row({"deadline expired",
             util::Table::num(counter(status_series("deadline")), 9)});
  t.add_row({"failed", util::Table::num(counter(status_series("error")), 9)});
  t.add_row({"cache hits", util::Table::num(hits, 9)});
  t.add_row({"cache misses", util::Table::num(misses, 9)});
  t.add_row({"cache hit rate",
             util::Table::num(fetches > 0.0 ? hits / fetches : 0.0, 4)});
  t.add_row({"cache content hashes",
             util::Table::num(
                 counter("credo_graph_cache_content_hashes_total"), 9)});
  t.add_row({"warm hits",
             util::Table::num(counter("credo_cache_warm_hits_total"), 9)});
  t.add_row({"run p50 s", util::Table::num(service_p50, 4)});
  t.add_row({"run p90 s", util::Table::num(service_p90, 4)});
  t.add_row({"run p99 s", util::Table::num(service_p99, 4)});
  t.add_row({"run max s", util::Table::num(service_max, 4)});
  t.add_row({"queue p50 s", util::Table::num(queue_p50, 4)});
  t.add_row({"queue p90 s", util::Table::num(queue_p90, 4)});
  t.add_row({"queue p99 s", util::Table::num(queue_p99, 4)});
  t.add_row({"queue max s", util::Table::num(queue_max, 4)});
  return t;
}

StressReport run_stress(Server& server, const StressConfig& config) {
  CREDO_CHECK_MSG(!config.graphs.empty(),
                  "stress config needs at least one graph");
  const unsigned sessions = std::max(1u, config.sessions);

  // Churn aims its new edges at existing nodes, so it needs each graph's
  // base node count, per-node arities, and joint-store form up front —
  // shared-joint graphs take the matrix-free add_edge, per-edge graphs
  // need an explicit matrix. A preflight parse of each file pair (before
  // the metrics baseline, so the report's delta covers only the replay)
  // learns all three from the same bytes the server's cache will load.
  struct Shape {
    graph::NodeId nodes = 0;
    bool shared = false;
    std::vector<std::uint32_t> arity;
  };
  std::vector<Shape> shapes;
  if (config.churn_every > 0) {
    CREDO_CHECK_MSG(config.batch <= 1,
                    "churn requires batch <= 1 (fused batch members cannot "
                    "carry deltas)");
    for (const auto& gp : config.graphs) {
      const graph::FactorGraph g = io::read_mtx_belief(gp.first, gp.second);
      CREDO_CHECK_MSG(g.num_nodes() > 0, "churn preflight saw an empty graph");
      Shape shape;
      shape.nodes = g.num_nodes();
      shape.shared = g.joints().is_shared();
      shape.arity.reserve(g.num_nodes());
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        shape.arity.push_back(g.arity(v));
      }
      shapes.push_back(std::move(shape));
    }
  }

  // The registry may be process-wide and shared with other servers or
  // earlier runs; differencing two snapshots isolates this replay.
  const obs::MetricsSnapshot before = server.metrics().snapshot();

  // One pre-fired token shared by every cancel_every-th request.
  std::stop_source cancelled_source;
  cancelled_source.request_stop();

  const util::Timer wall;
  std::vector<std::thread> clients;
  clients.reserve(sessions);
  for (unsigned s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      std::vector<std::future<Response>> futures;
      const std::size_t batch = config.batch;
      std::vector<Request> group;  // pending members when batching
      std::size_t batch_index = 0;
      const auto flush = [&] {
        if (group.empty()) return;
        // One fused run needs one engine: the mix cycles per batch.
        if (!config.mix.empty()) {
          const bp::EngineKind kind =
              config.mix[batch_index % config.mix.size()];
          for (Request& r : group) r.with_engine(kind);
        }
        ++batch_index;
        auto fs = server.submit_batch(std::move(group));
        for (auto& f : fs) futures.push_back(std::move(f));
        group.clear();
      };
      // Client s takes requests s, s+sessions, s+2*sessions, ...
      for (std::size_t i = s; i < config.requests; i += sessions) {
        const auto& gp = config.graphs[i % config.graphs.size()];
        Request req = Request{}
                          .with_graph(GraphKey::files(gp.first, gp.second)
                                          .with_reorder(config.reorder))
                          .with_options(config.options)
                          .with_warm_start(config.warm)
                          .with_tag("s" + std::to_string(s) + "r" +
                                    std::to_string(i));
        if (config.deadline_every > 0 &&
            i % config.deadline_every == config.deadline_every - 1) {
          req.with_deadline(config.deadline);
        }
        if (config.cancel_every > 0 &&
            i % config.cancel_every == config.cancel_every - 1) {
          req.with_cancel(cancelled_source.get_token());
        }
        if (config.churn_every > 0 &&
            i % config.churn_every == config.churn_every - 1) {
          // Grow fresh nodes wired to deterministic pseudo-random existing
          // targets. Fresh endpoints mean two concurrent churn batches can
          // never race on the same edge, whatever order the workers apply
          // them in.
          const Shape& shape = shapes[i % config.graphs.size()];
          graph::GraphDelta delta;
          const std::size_t edges = std::max<std::size_t>(
              std::size_t{1}, config.churn_edges);
          for (std::size_t e = 0; e < edges; ++e) {
            const graph::NodeId target = static_cast<graph::NodeId>(
                mix64(config.churn_seed + i * 131 + e) % shape.nodes);
            const std::uint32_t arity = shape.arity[target];
            delta.add_node(graph::BeliefVec::uniform(arity));
            const graph::NodeId fresh =
                graph::GraphDelta::new_node(static_cast<graph::NodeId>(e));
            if (shape.shared) {
              delta.add_edge(fresh, target);
            } else {
              delta.add_edge(fresh, target,
                             graph::JointMatrix::diffusion(arity, 0.8f));
            }
          }
          req.with_delta(std::move(delta));
        }
        if (batch > 1) {
          group.push_back(std::move(req));
          if (group.size() >= batch) flush();
        } else {
          if (!config.mix.empty()) {
            req.with_engine(config.mix[i % config.mix.size()]);
          }
          futures.push_back(server.submit(std::move(req)));
        }
      }
      flush();
      for (auto& f : futures) f.get();
    });
  }
  for (auto& c : clients) c.join();

  StressReport report;
  report.wall_seconds = wall.seconds();
  report.requests = config.requests;
  report.sessions = sessions;
  report.server = server.stats();
  report.metrics = server.metrics().snapshot().since(before);
  report.throughput_rps =
      report.wall_seconds > 0.0
          ? static_cast<double>(
                report.metrics.counter(status_series("ok"))) /
                report.wall_seconds
          : 0.0;

  // Percentiles from the registry's two latency histograms — run time and
  // queue wait are separate series, so the table reports them separately.
  const obs::HistogramSnapshot run =
      report.metrics.histogram("credo_request_run_seconds");
  const obs::HistogramSnapshot queue =
      report.metrics.histogram("credo_request_queue_seconds");
  report.service_p50 = run.quantile(0.50);
  report.service_p90 = run.quantile(0.90);
  report.service_p99 = run.quantile(0.99);
  report.service_max = run.max;
  report.queue_p50 = queue.quantile(0.50);
  report.queue_p90 = queue.quantile(0.90);
  report.queue_p99 = queue.quantile(0.99);
  report.queue_max = queue.max;
  return report;
}

StressReport run_decode_under_load(Server& server,
                                   const DecodeLoadConfig& config) {
  CREDO_CHECK_MSG(graph::is_ldpc(config.family),
                  "decode-under-load runs an LDPC family");
  CREDO_CHECK_MSG(config.codes >= 1, "decode-under-load needs >= 1 code");
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path();
  std::vector<std::pair<std::string, std::string>> graphs;
  graphs.reserve(config.codes);
  for (std::uint32_t i = 0; i < config.codes; ++i) {
    const auto code = graph::ldpc::random_regular(
        config.bits, config.dv, config.dc, config.seed + i);
    std::vector<std::uint8_t> error(code.bits, 0);
    error[(config.seed + 7 * i) % code.bits] = 1;
    const auto syn = graph::ldpc::syndrome(code, error);
    const auto g =
        graph::ldpc::build_graph(code, syn, config.crossover, config.family);
    const std::string stem = "credo_decode_load_" +
                             std::to_string(config.seed) + "_" +
                             std::to_string(i);
    auto npath = (dir / (stem + "_nodes.mtx")).string();
    auto epath = (dir / (stem + "_edges.mtx")).string();
    io::write_mtx_belief(g, npath, epath);
    graphs.emplace_back(std::move(npath), std::move(epath));
  }

  StressConfig sc;
  sc.graphs = graphs;
  sc.requests = config.requests;
  sc.sessions = config.sessions;
  // LDPC-capable mix spanning the paradigms: sequential sweep, pooled
  // CPU-parallel, bulk residual.
  sc.mix = {bp::EngineKind::kCpuNode, bp::EngineKind::kOmpNode,
            bp::EngineKind::kBulkResidual};
  sc.batch = config.batch;
  sc.options.max_iterations = config.max_iterations;
  sc.options.syndrome_stop = true;
  StressReport report = run_stress(server, sc);
  for (const auto& [npath, epath] : graphs) {
    std::error_code ec;
    fs::remove(npath, ec);
    fs::remove(epath, ec);
  }
  return report;
}

}  // namespace credo::serve
