#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ostream>

namespace credo::obs {
namespace {

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

std::string seconds(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::uint64_t next_span_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void write_span_json(std::ostream& os, const Span& span) {
  os << "{\"id\":" << span.id                              //
     << ",\"tag\":\"" << json_escape(span.tag) << '"'      //
     << ",\"graph\":\"" << json_escape(span.graph) << '"'  //
     << ",\"engine\":\"" << json_escape(span.engine) << '"'
     << ",\"status\":\"" << json_escape(span.status) << '"'
     << ",\"error\":\"" << json_escape(span.error) << '"'
     << ",\"cache_hit\":" << (span.cache_hit ? "true" : "false")
     << ",\"iterations\":" << span.iterations             //
     << ",\"warm\":\"" << json_escape(span.warm) << '"'    //
     << ",\"seed_nodes\":" << span.seed_nodes             //
     << ",\"queue_s\":" << seconds(span.queue_s)          //
     << ",\"parse_s\":" << seconds(span.parse_s)          //
     << ",\"run_s\":" << seconds(span.run_s)              //
     << ",\"unpermute_s\":" << seconds(span.unpermute_s)  //
     << ",\"run_modelled_s\":" << seconds(span.run_modelled_s)
     << ",\"total_wall_s\":" << seconds(span.total_wall_s()) << "}";
}

SpanLog::SpanLog(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void SpanLog::record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
    return;
  }
  ring_[next_] = std::move(span);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  out.reserve(ring_.size());
  // Oldest first: the cursor points at the oldest entry once wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

void SpanLog::write_jsonl(std::ostream& os) const {
  for (const auto& span : snapshot()) {
    write_span_json(os, span);
    os << '\n';
  }
}

std::uint64_t SpanLog::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace credo::obs
