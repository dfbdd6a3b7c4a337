// Process-wide metrics registry (DESIGN.md §5e).
//
// The serve layer, the graph cache and the BP runtime all emit operational
// numbers; before this layer each kept private accounting that could not be
// observed from a live process or reconciled across layers. The registry is
// the one source of truth: monotonic Counters, last-value Gauges and
// fixed-bucket latency/size Histograms, all registered by name (+ optional
// Prometheus-style labels) and scraped as Prometheus text exposition or a
// JSON dump.
//
// Hot-path cost model: every metric is sharded into cache-line-sized cells,
// one per hardware-thread slot, and an increment is a single relaxed atomic
// RMW on the calling thread's own cell — no locks, no shared line
// ping-pong. Aggregation happens only on scrape (sum over shards), so a
// scrape sees a consistent-enough view (each cell individually atomic,
// counters monotonic) without ever stalling writers. Registration takes a
// mutex once; call sites keep the returned reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace credo::obs {

/// Prometheus-style labels: ordered key/value pairs, part of the metric's
/// identity ({} and {status="ok"} are distinct time series of one family).
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/// Shard count: power of two, enough slots that a typical worker team maps
/// one thread per cell.
inline constexpr unsigned kShards = 16;

/// Stable per-thread shard slot (first-come numbering, wrapped).
[[nodiscard]] unsigned shard_index() noexcept;

/// One cache line per cell so concurrent writers never share a line.
struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

}  // namespace detail

/// Monotonic counter. Increments are relaxed adds on the caller's shard.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) noexcept {
    cells_[detail::shard_index()].value.fetch_add(n,
                                                  std::memory_order_relaxed);
  }

  /// Sum over shards (scrape-time only).
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& c : cells_) {
      total += c.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  detail::CounterCell cells_[detail::kShards];
};

/// Last-value gauge (queue depth, cache size). Set wins; not sharded —
/// gauges are written at queue transitions, not in kernel loops.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Read-only aggregate of a histogram at scrape time.
struct HistogramSnapshot {
  /// Finite upper bounds; the implicit +Inf bucket is counts.back().
  std::vector<double> bounds;
  /// Per-bucket (non-cumulative) counts; size() == bounds.size() + 1.
  std::vector<std::uint64_t> counts;
  double sum = 0.0;
  std::uint64_t count = 0;
  double max = 0.0;  // largest observed value (exact, not bucketed)

  /// Interpolated quantile (q in [0,1]) from the bucket counts: linear
  /// within the owning bucket, clamped by the exact max for the tail. 0 on
  /// an empty histogram.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Bucket-wise difference against an earlier snapshot of the same
  /// histogram (for before/after reporting over a shared registry).
  [[nodiscard]] HistogramSnapshot since(const HistogramSnapshot& earlier)
      const;
};

/// Fixed-bucket histogram. An observation is two relaxed RMWs (bucket count
/// + sum) and a shard-local max update on the caller's shard.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept;

  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
  };

  std::vector<double> bounds_;  // sorted, strictly increasing, finite
  std::vector<Shard> shards_;
};

/// Default exponential-ish latency buckets in seconds (100µs .. 10s).
[[nodiscard]] std::vector<double> default_latency_buckets();

/// Power-of-two buckets 1..2^(n-1) (iteration counts and similar).
[[nodiscard]] std::vector<double> pow2_buckets(unsigned n);

/// Decade buckets 1, 10, ... 10^(n-1) (frontier/queue sizes).
[[nodiscard]] std::vector<double> decade_buckets(unsigned n);

/// Point-in-time view of a whole registry, keyed by the full series name
/// (`name{label="v",...}`). Supports before/after differencing so several
/// reports can share one process-wide registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value (0 when the series has never been registered).
  [[nodiscard]] std::uint64_t counter(const std::string& series) const;
  /// Histogram snapshot (empty when absent).
  [[nodiscard]] HistogramSnapshot histogram(const std::string& series) const;

  /// Series-wise difference for counters and histograms; gauges keep their
  /// later value (they are not monotonic).
  [[nodiscard]] MetricsSnapshot since(const MetricsSnapshot& earlier) const;
};

/// The registry. Metrics are created on first use and live as long as the
/// registry; returned references stay valid forever (call sites cache
/// them). Re-registering the same series returns the same instance and
/// checks that the kind (and histogram buckets) agree.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name,
                                 const std::string& help,
                                 const Labels& labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name,
                             const std::string& help,
                             const Labels& labels = {});
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     const std::string& help,
                                     std::vector<double> bounds,
                                     const Labels& labels = {});

  /// Prometheus text exposition (families sorted by name, series by label
  /// string, histograms with cumulative `_bucket{le=...}` + `_sum` +
  /// `_count`). Deterministic given the same metric values.
  void write_prometheus(std::ostream& os) const;

  /// The same data as one JSON object (counters/gauges/histograms maps).
  void write_json(std::ostream& os) const;

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The process-wide registry (what every layer uses unless a caller
  /// injects its own — tests isolate by constructing their own).
  [[nodiscard]] static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    std::string label_key;  // rendered `{k="v",...}` or empty
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::map<std::string, Series> series;  // by label_key
  };

  Series& resolve(const std::string& name, const std::string& help,
                  Kind kind, const Labels& labels);

  mutable std::mutex mu_;  // registration + scrape; never on the inc path
  std::map<std::string, Family> families_;
};

}  // namespace credo::obs
