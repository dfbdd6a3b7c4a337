// hostbench: runs one workload of the host-time benchmark.
//
//   hostbench gen --workload W --seed N --data DIR [--smoke]
//   hostbench setup --workload W --seed N --data DIR [--smoke]
//   hostbench run --workload W --seed N --seconds S --trace 0|1 --data DIR
//                 [--smoke]
//
// `gen` writes the workload's input files; it runs in its own process so
// the measured process starts with a clean heap and its peak RSS is the
// program's own. `setup` runs only the workload's set-up and prints its
// time as a JSON object; run.py takes `setup_s` as the median of several
// such fresh processes and the run's own set-up. `run` prints
// human-readable lines and, as its last line, one JSON object: end-to-end
// metrics when --trace 0, per-layer metrics when --trace 1. A traced run
// also times the workload untraced (in interleaved blocks) to report
// obs.trace_overhead_frac. The result must name every per-layer metric, so
// a traced run adds the rows of layers its workload never calls from
// smoke-size runs of the workloads that call them, and names each row's
// source in its table.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE "unknown"
#endif

namespace hostbench {
namespace {

const std::vector<std::string> kWorkloads = {"grid-solve", "serve-churn",
                                             "ldpc-decode"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "hostbench: " << why
            << "\nusage: hostbench gen|setup|run --workload W --seed N "
               "[--seconds S] [--trace 0|1] --data DIR [--smoke]\n";
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        cfg.workload = value();
      } else if (a == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (a == "--trace") {
        cfg.trace = value() == "1";
      } else if (a == "--data") {
        cfg.data_dir = value();
      } else if (a == "--smoke") {
        cfg.scale = Scale::kSmoke;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (std::find(kWorkloads.begin(), kWorkloads.end(), cfg.workload) ==
      kWorkloads.end()) {
    usage("unknown workload '" + cfg.workload + "'");
  }
  if (cfg.data_dir.empty()) usage("--data is required");
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return cfg;
}

WorkloadResult run_workload(const RunConfig& cfg, SpanRecorder& spans) {
  if (cfg.workload == "grid-solve") return run_grid_solve(cfg, spans);
  if (cfg.workload == "serve-churn") return run_serve_churn(cfg, spans);
  return run_ldpc_decode(cfg, spans);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string isa_flags() {
  std::string s;
  __builtin_cpu_init();
  const auto add = [&](bool has, const char* name) {
    if (has) s += (s.empty() ? "" : ",") + std::string(name);
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  return s.empty() ? "baseline" : s;
}

std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_bench_table(const std::string& title,
                       const std::vector<BenchRow>& rows) {
  std::printf("\n== BENCH rows: %s ==\n", title.c_str());
  std::printf("%-40s %8s %12s %12s %12s %12s\n", "row", "samples",
              "host_med_s", "host_min_s", "host_max_s", "modelled_s");
  for (const BenchRow& row : rows) {
    if (row.host_s.empty()) continue;
    std::printf("%-40s %8zu %12.6g %12.6g %12.6g %12.6g\n", row.name.c_str(),
                row.host_s.size(), median(row.host_s),
                *std::min_element(row.host_s.begin(), row.host_s.end()),
                *std::max_element(row.host_s.begin(), row.host_s.end()),
                row.modelled_s);
  }
}

int cmd_run(const RunConfig& cfg) {
  const double calib_start = calibrate();
  SpanRecorder spans;
  WorkloadResult r = run_workload(cfg, spans);
  const double calib_end = calibrate();
  const double rss = peak_rss_mb();

  std::vector<std::string> errors = r.check_errors;
  std::printf("workload %s seed %llu scale %s trace %d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.scale == Scale::kFull ? "full" : "smoke", cfg.trace ? 1 : 0);
  for (const Metric& m : r.work) {
    std::printf("%-28s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %.6f s\n%-28s %.6f s\n", "env.calib_s.start", calib_start,
              "env.calib_s.end", calib_end);

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    // p90 per block where every block holds >= 100 samples (>= 10 above
    // p90), else over all samples; p50 and throughput are block medians.
    bool per_block_p90 = r.block_latency_s.size() > 1;
    std::vector<double> p50s, p90s;
    for (const auto& block : r.block_latency_s) {
      per_block_p90 = per_block_p90 && block.size() >= 100;
      p50s.push_back(quantile(block, 0.5));
      p90s.push_back(quantile(block, 0.9));
    }
    const double all_p90 = quantile(r.latency_s, 0.9);
    const double p90 = per_block_p90 ? median(p90s) : all_p90;
    std::size_t above = 0;
    for (double v : r.latency_s) above += v > all_p90;
    std::printf("%-28s %zu (blocks %zu, above p90 %zu, p90 %s)\n",
                "latency.samples", r.latency_s.size(),
                r.block_latency_s.size(), above,
                per_block_p90 ? "block median" : "all samples");
    for (std::size_t b = 0; b < r.block_latency_s.size(); ++b) {
      std::printf("block %zu: %zu ops, p50 %.6g s, p90 %.6g s, %.6g ops/s\n",
                  b, r.block_latency_s[b].size(), p50s[b], p90s[b],
                  r.block_throughput[b]);
    }
    if (cfg.scale == Scale::kFull && above < 10) {
      errors.push_back("fewer than 10 latency samples above p90");
    }
    metrics = {
        {"latency_p50_s", median(p50s), "s"},
        {"latency_p90_s", p90, "s"},
        {"throughput_per_s", median(r.block_throughput), "1/s"},
        {"setup_s", r.setup_s, "s"},
        {"peak_rss_mb", rss, "MB"},
    };
  } else {
    std::vector<Metric> layers = r.layers;
    for (Metric& k : kernel_metrics(cfg.seed)) layers.push_back(std::move(k));
    const double untraced = median(r.untraced_latency_s);
    layers.push_back({"obs.trace_overhead_frac",
                      untraced > 0 ? median(r.traced_latency_s) / untraced - 1
                                   : 0.0,
                      "ratio"});
    layers.push_back({"env.calib_s.start", calib_start, "s"});
    layers.push_back({"env.calib_s.end", calib_end, "s"});
    std::vector<std::string> source(layers.size(), cfg.workload);

    std::printf("\n== machine ==\nnproc %u\nisa %s\nbuild %s\ncompiler %s\n",
                std::thread::hardware_concurrency(), isa_flags().c_str(),
                HOSTBENCH_BUILD_TYPE, __VERSION__);
    print_bench_table(cfg.workload, r.bench_rows);

    for (const std::string& other : kWorkloads) {
      if (other == cfg.workload) continue;
      RunConfig sc = cfg;
      sc.workload = other;
      sc.scale = Scale::kSmoke;
      sc.data_dir = cfg.data_dir + "/smoke-" + other;
      generate_inputs(sc);
      SpanRecorder smoke_spans;
      const WorkloadResult sr = run_workload(sc, smoke_spans);
      for (const auto& e : sr.check_errors) {
        errors.push_back("smoke " + other + ": " + e);
      }
      print_bench_table(other + " (smoke)", sr.bench_rows);
      for (const Metric& m : sr.layers) {
        const bool have = std::any_of(
            layers.begin(), layers.end(),
            [&](const Metric& l) { return l.name == m.name; });
        if (have) continue;
        layers.push_back(m);
        source.push_back(other + " (smoke)");
      }
    }

    std::printf("\n== per-layer metrics ==\n");
    for (std::size_t i = 0; i < layers.size(); ++i) {
      std::printf("%-30s %16.8g %-6s %s\n", layers[i].name.c_str(),
                  layers[i].value, layers[i].unit.c_str(), source[i].c_str());
    }
    metrics = layers;
    spans.write_jsonl(cfg.data_dir + "/spans.jsonl");
    std::printf("spans %zu written to %s/spans.jsonl\n", spans.spans().size(),
                cfg.data_dir.c_str());
  }

  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      errors.push_back("metric " + m.name + " is not finite");
      m.value = -1.0;
    }
  }
  for (const auto& e : errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::printf("checks %s (%zu errors), attempted %llu, failed %llu\n",
              errors.empty() ? "passed" : "FAILED", errors.size(),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  if (argc < 2) usage("missing command");
  const std::string cmd = argv[1];
  if (cmd != "gen" && cmd != "setup" && cmd != "run") {
    usage("unknown command " + cmd);
  }
  RunConfig cfg = parse_args(argc, argv);
  try {
    if (cmd == "gen") {
      generate_inputs(cfg);
      return 0;
    }
    if (cmd == "setup") {
      cfg.setup_only = true;
      SpanRecorder spans;
      const WorkloadResult r = run_workload(cfg, spans);
      std::printf("{\"setup_s\": %s}\n", json_number(r.setup_s).c_str());
      return 0;
    }
    return cmd_run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "hostbench: " << e.what() << "\n";
    return 1;
  }
}
