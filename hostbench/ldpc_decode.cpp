// ldpc-decode: a syndrome-decoding service.
//
// Set-up generates the (3,6)-regular 2,048-bit code and starts the same
// server configuration as serve-churn. Each op decodes one BSC frame at
// crossover 0.04: the caller builds the frame's Tanner graph and submits it
// as a preloaded request (sum-product, syndrome stop, cap 60). The time
// sits in the closed-form LDPC runners and the inline-graph serve path; no
// parse, cache, tabular matvec or pool is on it. Crossover 0.04 is well
// left of the ~0.08 waterfall, yet now and then a frame stays undecoded:
// BP settles on a fixed point a few bits off (see README.md). Such a frame
// counts as a failed op; a decode verdict its beliefs contradict fails the
// output check.
#include <algorithm>
#include <memory>
#include <unordered_map>

#include "bench.h"
#include "bp/engine.h"

namespace hostbench {

namespace bp = credo::bp;
namespace graph = credo::graph;
namespace serve = credo::serve;

namespace {

// Frames per second of `--seconds` (about 330 frames/s on a 4-core Xeon).
constexpr double kFramesPerSecond = 300.0;

struct Outcome {
  double latency_s = 0.0, build_s = 0.0, service_s = 0.0;
  bool traced = false, ok = false;
  std::uint64_t span_id = 0;
  bp::BpStats stats;
};

std::uint64_t frame_seed(std::uint64_t seed, unsigned caller, std::size_t i,
                         bool warmup) {
  return (seed * 0x9e3779b97f4a7c15ULL) ^ (std::uint64_t{caller} << 48) ^
         (warmup ? 1ULL << 47 : 0) ^ i;
}

}  // namespace

WorkloadResult run_ldpc_decode(const RunConfig& cfg, SpanRecorder& spans) {
  const bool full = cfg.scale == Scale::kFull;
  const LdpcSpec spec = ldpc_spec(cfg.scale);
  const std::size_t per_caller =
      full ? static_cast<std::size_t>(cfg.seconds * kFramesPerSecond) / kCallers
           : 40;
  const std::size_t warmup = full ? 40 : 5;
  const std::size_t blocks = cfg.trace ? 6 : (full ? 10 : 2);
  const bp::BpOptions plain_opts = bp::BpOptions{}
                                       .with_max_iterations(spec.max_iterations)
                                       .with_syndrome_stop(true)
                                       .with_threads(1);
  bp::BpOptions traced_opts = plain_opts;
  traced_opts.with_collect_trace(true);

  graph::ldpc::Code code;
  // One decode: build the frame's Tanner graph, submit it, wait. A traced
  // decode records its build and submit spans under one op span.
  const auto decode = [&](ServeInstance& in, const bp::BpOptions& opts,
                          std::uint64_t fseed, std::uint64_t op, bool traced,
                          Outcome& o, std::vector<std::uint8_t>& syndrome,
                          serve::Response& resp) {
    syndrome = graph::ldpc::syndrome(code, make_error(spec, fseed));
    const auto b0 = Clock::now();
    auto g = std::make_shared<const graph::FactorGraph>(
        graph::ldpc::build_graph(code, syndrome, spec.crossover,
                                 graph::FactorFamily::kLdpcSumProduct));
    const auto t0 = Clock::now();
    std::future<serve::Response> f = in.server->submit(
        serve::Request{}.with_preloaded(std::move(g)).with_options(opts));
    resp = f.get();
    const auto t1 = Clock::now();
    o.build_s = std::chrono::duration<double>(t0 - b0).count();
    o.latency_s = std::chrono::duration<double>(t1 - t0).count();
    if (traced) {
      const std::uint64_t root = spans.record("ldpc.decode", b0, t1, 0, op);
      spans.record("graph.ldpc::build_graph", b0, t0, root, op);
      spans.record("serve.Server::submit", t0, t1, root, op);
    }
  };

  WorkloadResult r;
  std::unique_ptr<ServeInstance> plain, traced;
  const auto warm_up = [&](ServeInstance& in, const bp::BpOptions& opts) {
    closed_loop(kCallers, warmup, 1, [&](unsigned c, std::size_t i,
                                         std::size_t) {
      Outcome o;
      std::vector<std::uint8_t> syn;
      serve::Response resp;
      decode(in, opts, frame_seed(cfg.seed, c, i, true), 0, false, o, syn,
             resp);
    });
  };
  const auto t0 = Clock::now();
  code = graph::ldpc::random_regular(spec.bits, spec.dv, spec.dc,
                                     spec.code_seed);
  plain = start_server(0);
  warm_up(*plain, plain_opts);
  r.setup_s = seconds_since(t0);
  if (cfg.setup_only) return r;
  if (cfg.trace) {
    traced = start_server(kCallers * (per_caller + warmup) + 64);
    warm_up(*traced, traced_opts);
  }

  std::vector<std::vector<Outcome>> out(kCallers,
                                        std::vector<Outcome>(per_caller));
  std::vector<std::vector<std::string>> errors(kCallers);
  const std::vector<double> walls = closed_loop(
      kCallers, per_caller, blocks,
      [&](unsigned c, std::size_t i, std::size_t b) {
        Outcome& o = out[c][i];
        o.traced = cfg.trace && b % 2 == 1;
        std::vector<std::uint8_t> syndrome;
        serve::Response resp;
        decode(o.traced ? *traced : *plain,
               o.traced ? traced_opts : plain_opts,
               frame_seed(cfg.seed, c, i, false), c * per_caller + i + 1,
               o.traced, o, syndrome, resp);
        const auto fail = [&](const std::string& why) {
          errors[c].push_back("frame " + std::to_string(i) + " of caller " +
                              std::to_string(c) + ": " + why);
        };
        if (!resp.ok()) {
          fail("status " +
               std::string(credo::util::status_code_name(resp.status)) + " " +
               resp.error);
          return;
        }
        const bool decoded = resp.result.stats.syndrome_satisfied;
        if (auto e = check_decode_verdict(code, resp.result.beliefs, syndrome,
                                          decoded);
            !e.empty()) {
          fail(e);
        }
        o.ok = decoded;
        o.service_s = resp.service_seconds;
        o.span_id = resp.span_id;
        o.stats = std::move(resp.result.stats);
      });

  std::uint64_t iterations = 0, updates = 0, decoded = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    if (cfg.trace && b % 2 == 1) continue;  // traced blocks feed layers only
    const auto [lo, hi] = block_range(per_caller, blocks, b);
    std::vector<double> lat;
    for (unsigned c = 0; c < kCallers; ++c) {
      for (std::size_t i = lo; i < hi; ++i) lat.push_back(out[c][i].latency_s);
    }
    r.latency_s.insert(r.latency_s.end(), lat.begin(), lat.end());
    r.block_throughput.push_back(static_cast<double>(lat.size()) / walls[b]);
    r.block_latency_s.push_back(std::move(lat));
  }
  for (unsigned c = 0; c < kCallers; ++c) {
    for (const Outcome& o : out[c]) {
      ++r.attempted;
      if (o.ok) ++decoded; else ++r.failed;
      iterations += o.stats.iterations;
      updates += o.stats.elements_processed;
    }
    for (auto& e : errors[c]) r.check_errors.push_back(std::move(e));
  }
  r.work = {{"work.frames", static_cast<double>(r.attempted), "count"},
            {"work.frames_decoded", static_cast<double>(decoded), "count"},
            {"work.frames_undecoded", static_cast<double>(r.failed), "count"},
            {"work.iterations", static_cast<double>(iterations), "count"},
            {"work.updates", static_cast<double>(updates), "count"}};

  if (cfg.trace) {
    std::unordered_map<std::uint64_t, credo::obs::Span> by_id;
    for (auto& s : traced->log->snapshot()) by_id.emplace(s.id, std::move(s));
    std::vector<double> build, queue, other;
    EngineSamples runs;
    for (unsigned c = 0; c < kCallers; ++c) {
      for (const Outcome& o : out[c]) {
        (o.traced ? r.traced_latency_s : r.untraced_latency_s)
            .push_back(o.latency_s);
        if (!o.traced) continue;
        build.push_back(o.build_s);
        const auto it = by_id.find(o.span_id);
        if (it == by_id.end()) continue;
        const credo::obs::Span& sp = it->second;
        const double engine_run = sp.run_s + sp.unpermute_s;
        queue.push_back(sp.queue_s);
        other.push_back(o.service_s - sp.parse_s - engine_run);
        runs.add(o.stats, engine_run);
      }
    }
    // Inline Tanner graphs carry no permutation and skip the cache, so the
    // serve rows this workload owns are queue wait and the rest of service
    // time; the unpermute and parse rows come from the workloads that have
    // them.
    for (Metric& m : runs.metrics()) {
      if (m.name != "bp.unpermute_s") r.layers.push_back(std::move(m));
    }
    const auto tstats = traced->server->stats();
    const std::vector<Metric> rows = {
        {"graph.ldpc_build_s", median(build), "s"},
        {"bp.ldpc.iterations", median(runs.iterations), "count"},
        {"bp.ldpc.ns_per_update", median(runs.ns_per_update), "ns"},
        {"serve.queue_s.p50", median(queue), "s"},
        {"serve.other_s.p50", median(other), "s"},
        {"serve.rejected", static_cast<double>(tstats.rejected), "count"},
        {"obs.spans_dropped", static_cast<double>(traced->log->dropped()),
         "count"},
    };
    r.layers.insert(r.layers.end(), rows.begin(), rows.end());
    r.bench_rows = {
        {"ldpc-decode frame (submit to ready)", r.traced_latency_s, 0.0},
        {"ldpc-decode engine run", runs.run_s, median(runs.modelled_s)},
        {"ldpc-decode build_graph", build, 0.0}};
  }
  return r;
}

}  // namespace hostbench
