#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "util/error.h"

namespace credo::obs {
namespace detail {

unsigned shard_index() noexcept {
  static std::atomic<unsigned> next{0};
  static thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot & (kShards - 1);
}

}  // namespace detail

namespace {

/// Shortest round-trip-ish rendering: integers print bare, everything else
/// through %g — deterministic for the golden-output tests.
std::string format_value(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) && v > -1e15 &&
      v < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

/// `name{le="x",...}` with the le label spliced in front of the existing
/// ones, Prometheus-style (order inside the braces is not significant; a
/// fixed order keeps output deterministic).
std::string bucket_series(const std::string& name,
                          const std::string& label_key,
                          const std::string& le) {
  std::string out = name;
  out += "_bucket{le=\"";
  out += le;
  out.push_back('"');
  if (!label_key.empty()) {
    out.push_back(',');
    out.append(label_key, 1, label_key.size() - 2);  // strip outer {}
  }
  out.push_back('}');
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), shards_(detail::kShards) {
  CREDO_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  CREDO_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                  "histogram bounds must be sorted ascending");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    CREDO_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                    "histogram bounds must be strictly increasing");
  }
  for (auto& shard : shards_) {
    shard.counts = std::vector<std::atomic<std::uint64_t>>(bounds_.size() +
                                                           1);
  }
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // +Inf = size()
  Shard& shard = shards_[detail::shard_index()];
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(v, std::memory_order_relaxed);
  double mx = shard.max.load(std::memory_order_relaxed);
  while (v > mx && !shard.max.compare_exchange_weak(
                       mx, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < shard.counts.size(); ++b) {
      snap.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, shard.max.load(std::memory_order_relaxed));
  }
  for (const auto c : snap.counts) snap.count += c;
  return snap;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t prev = cum;
    cum += counts[b];
    if (static_cast<double>(cum) >= rank && counts[b] > 0) {
      const double lo = b == 0 ? 0.0 : bounds[b - 1];
      // The exact max upper-bounds every bucket, not just +Inf: without the
      // clamp an interpolated p99 could exceed the reported max.
      const double hi =
          b < bounds.size() ? std::min(bounds[b], max) : max;
      if (hi <= lo) return hi;
      const double frac = (rank - static_cast<double>(prev)) /
                          static_cast<double>(counts[b]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
  }
  return max;
}

HistogramSnapshot HistogramSnapshot::since(
    const HistogramSnapshot& earlier) const {
  HistogramSnapshot out = *this;
  if (earlier.counts.size() != counts.size()) return out;  // shape changed
  for (std::size_t b = 0; b < counts.size(); ++b) {
    out.counts[b] -= std::min(earlier.counts[b], counts[b]);
  }
  out.count = 0;
  for (const auto c : out.counts) out.count += c;
  out.sum -= std::min(earlier.sum, sum);
  // max cannot be differenced; keep the later (upper-bounds the window).
  return out;
}

std::vector<double> default_latency_buckets() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
          5e-2, 0.1,    0.25, 0.5,  1.0,    2.5,  5.0,  10.0};
}

std::vector<double> pow2_buckets(unsigned n) {
  std::vector<double> b;
  b.reserve(n);
  double v = 1.0;
  for (unsigned i = 0; i < n; ++i, v *= 2.0) b.push_back(v);
  return b;
}

std::vector<double> decade_buckets(unsigned n) {
  std::vector<double> b;
  b.reserve(n);
  double v = 1.0;
  for (unsigned i = 0; i < n; ++i, v *= 10.0) b.push_back(v);
  return b;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

std::uint64_t MetricsSnapshot::counter(const std::string& series) const {
  const auto it = counters.find(series);
  return it == counters.end() ? 0 : it->second;
}

HistogramSnapshot MetricsSnapshot::histogram(
    const std::string& series) const {
  const auto it = histograms.find(series);
  return it == histograms.end() ? HistogramSnapshot{} : it->second;
}

MetricsSnapshot MetricsSnapshot::since(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot out = *this;
  for (auto& [name, value] : out.counters) {
    const auto it = earlier.counters.find(name);
    if (it != earlier.counters.end()) value -= std::min(it->second, value);
  }
  for (auto& [name, hist] : out.histograms) {
    const auto it = earlier.histograms.find(name);
    if (it != earlier.histograms.end()) hist = hist.since(it->second);
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry::Series& MetricsRegistry::resolve(const std::string& name,
                                                  const std::string& help,
                                                  Kind kind,
                                                  const Labels& labels) {
  // Caller holds mu_.
  const std::string label_key = render_labels(labels);
  auto [fit, inserted] = families_.try_emplace(name);
  Family& family = fit->second;
  if (inserted) {
    family.kind = kind;
    family.help = help;
  } else {
    CREDO_CHECK_MSG(family.kind == kind,
                    "metric family re-registered as a different kind: " +
                        name);
  }
  auto [sit, series_inserted] = family.series.try_emplace(label_key);
  if (series_inserted) sit->second.label_key = label_key;
  return sit->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = resolve(name, help, Kind::kCounter, labels);
  if (!s.counter) s.counter = std::make_unique<Counter>();
  return *s.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help,
                              const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = resolve(name, help, Kind::kGauge, labels);
  if (!s.gauge) s.gauge = std::make_unique<Gauge>();
  return *s.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = resolve(name, help, Kind::kHistogram, labels);
  if (!s.histogram) {
    s.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else {
    CREDO_CHECK_MSG(s.histogram->bounds() == bounds,
                    "histogram re-registered with different buckets: " +
                        name);
  }
  return *s.histogram;
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      os << "# HELP " << name << ' ' << family.help << '\n';
    }
    os << "# TYPE " << name << ' '
       << (family.kind == Kind::kCounter
               ? "counter"
               : family.kind == Kind::kGauge ? "gauge" : "histogram")
       << '\n';
    for (const auto& [label_key, series] : family.series) {
      if (series.counter) {
        os << name << label_key << ' '
           << format_value(static_cast<double>(series.counter->value()))
           << '\n';
      } else if (series.gauge) {
        os << name << label_key << ' '
           << format_value(series.gauge->value()) << '\n';
      } else if (series.histogram) {
        const auto snap = series.histogram->snapshot();
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
          cum += snap.counts[b];
          os << bucket_series(name, label_key,
                              format_value(snap.bounds[b]))
             << ' ' << cum << '\n';
        }
        cum += snap.counts.back();
        os << bucket_series(name, label_key, "+Inf") << ' ' << cum << '\n';
        os << name << "_sum" << label_key << ' ' << format_value(snap.sum)
           << '\n';
        os << name << "_count" << label_key << ' ' << snap.count << '\n';
      }
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, family] : families_) {
    if (family.kind != Kind::kCounter) continue;
    for (const auto& [label_key, series] : family.series) {
      if (!series.counter) continue;
      if (!first) os << ',';
      first = false;
      os << '"' << json_escape(name + label_key)
         << "\":" << series.counter->value();
    }
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, family] : families_) {
    if (family.kind != Kind::kGauge) continue;
    for (const auto& [label_key, series] : family.series) {
      if (!series.gauge) continue;
      if (!first) os << ',';
      first = false;
      os << '"' << json_escape(name + label_key)
         << "\":" << format_value(series.gauge->value());
    }
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, family] : families_) {
    if (family.kind != Kind::kHistogram) continue;
    for (const auto& [label_key, series] : family.series) {
      if (!series.histogram) continue;
      if (!first) os << ',';
      first = false;
      const auto snap = series.histogram->snapshot();
      os << '"' << json_escape(name + label_key) << "\":{\"buckets\":[";
      for (std::size_t b = 0; b < snap.counts.size(); ++b) {
        if (b > 0) os << ',';
        os << "{\"le\":"
           << (b < snap.bounds.size()
                   ? format_value(snap.bounds[b])
                   : std::string("\"+Inf\""))
           << ",\"count\":" << snap.counts[b] << '}';
      }
      os << "],\"sum\":" << format_value(snap.sum)
         << ",\"count\":" << snap.count
         << ",\"max\":" << format_value(snap.max) << '}';
    }
  }
  os << "}}";
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, family] : families_) {
    for (const auto& [label_key, series] : family.series) {
      const std::string full = name + label_key;
      if (series.counter) {
        snap.counters[full] = series.counter->value();
      } else if (series.gauge) {
        snap.gauges[full] = series.gauge->value();
      } else if (series.histogram) {
        snap.histograms[full] = series.histogram->snapshot();
      }
    }
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dtor'd
  return *registry;
}

}  // namespace credo::obs
