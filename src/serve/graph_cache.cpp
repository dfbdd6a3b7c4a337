#include "serve/graph_cache.h"

#include <fstream>
#include <utility>

#include "graph/reorder.h"
#include "io/mtx_belief.h"
#include "util/error.h"

namespace credo::serve {
namespace {

/// Streaming FNV-1a over a file's raw bytes — one sequential read, no
/// parsing. Orders of magnitude cheaper than the MTX parse it gates.
std::uint64_t hash_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::IoError("cannot open for hashing: " + path);
  std::uint64_t h = 14695981039346656037ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
    if (!in) break;
  }
  return h;
}

/// The warm table's key: one state per (graph version, engine).
std::string warm_key(const std::string& graph_key, bp::EngineKind engine) {
  return graph_key + '#' + std::string(bp::engine_slug(engine));
}

}  // namespace

GraphCache::GraphCache(std::size_t capacity,
                       obs::MetricsRegistry* registry)
    : capacity_(capacity == 0 ? 1 : capacity),
      hits_((registry != nullptr ? *registry
                                 : obs::MetricsRegistry::global())
                .counter("credo_graph_cache_hits_total",
                         "Graph cache fetches served without parsing")),
      misses_((registry != nullptr ? *registry
                                   : obs::MetricsRegistry::global())
                  .counter("credo_graph_cache_misses_total",
                           "Graph cache fetches that parsed the files")),
      evictions_((registry != nullptr ? *registry
                                      : obs::MetricsRegistry::global())
                     .counter("credo_graph_cache_evictions_total",
                              "Graph cache LRU evictions")),
      warm_hits_((registry != nullptr ? *registry
                                      : obs::MetricsRegistry::global())
                     .counter("credo_cache_warm_hits_total",
                              "Warm-state lookups that found retained "
                              "converged beliefs")),
      warm_bytes_((registry != nullptr ? *registry
                                       : obs::MetricsRegistry::global())
                      .gauge("credo_cache_warm_bytes",
                             "Bytes of converged beliefs resident in the "
                             "warm-state table")) {}

GraphCache::Fetched GraphCache::fetch(const std::string& nodes_path,
                                      const std::string& edges_path,
                                      graph::ReorderMode mode) {
  // Content hash outside the lock: file I/O must not serialize the cache.
  const std::uint64_t h = hash_file(nodes_path) ^
                          (hash_file(edges_path) * 1099511628211ull);
  const std::string key = nodes_path + '|' + edges_path + '|' +
                          std::to_string(h) + '|' +
                          std::string(graph::reorder_mode_name(mode));

  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to front
      ++stats_.hits;
      hits_.inc();
      return {it->second->value, true};
    }
  }

  // Miss: parse outside the lock so loads of distinct graphs overlap.
  auto loaded = std::make_shared<CachedGraph>();
  loaded->graph = std::make_shared<const graph::FactorGraph>(
      graph::reordered(io::read_mtx_belief(nodes_path, edges_path), mode));
  loaded->metadata = graph::compute_metadata(*loaded->graph);
  loaded->key = key;

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
  misses_.inc();
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // A concurrent fetch inserted the same key first; reuse its entry (the
    // two parses of identical bytes are interchangeable).
    lru_.splice(lru_.begin(), lru_, it->second);
    return {it->second->value, false};
  }
  lru_.push_front(Entry{key, std::move(loaded)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();  // shared_ptr keeps in-flight users safe
    ++stats_.evictions;
    evictions_.inc();
  }
  return {lru_.front().value, false};
}

std::shared_ptr<const std::vector<graph::BeliefVec>> GraphCache::warm_lookup(
    const std::string& graph_key, bp::EngineKind engine) {
  const std::string key = warm_key(graph_key, engine);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = warm_index_.find(key);
  if (it == warm_index_.end()) {
    ++stats_.warm_misses;
    return nullptr;
  }
  warm_lru_.splice(warm_lru_.begin(), warm_lru_, it->second);
  ++stats_.warm_hits;
  warm_hits_.inc();
  return it->second->beliefs;
}

void GraphCache::warm_store(
    const std::string& graph_key, bp::EngineKind engine,
    std::shared_ptr<const std::vector<graph::BeliefVec>> beliefs) {
  if (beliefs == nullptr) return;
  const std::string key = warm_key(graph_key, engine);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = warm_index_.find(key);
  if (it != warm_index_.end()) {
    it->second->beliefs = std::move(beliefs);
    warm_lru_.splice(warm_lru_.begin(), warm_lru_, it->second);
  } else {
    warm_lru_.push_front(WarmEntry{key, std::move(beliefs)});
    warm_index_[key] = warm_lru_.begin();
    // Twice the graph capacity: warm states are per (graph version,
    // engine), so a graph commonly owns more than one.
    while (warm_lru_.size() > 2 * capacity_) {
      warm_index_.erase(warm_lru_.back().key);
      warm_lru_.pop_back();
    }
  }
  warm_bytes_update_locked();
}

std::shared_ptr<const std::vector<graph::BeliefVec>> GraphCache::warm_take(
    const std::string& graph_key, bp::EngineKind engine) {
  const std::string key = warm_key(graph_key, engine);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = warm_index_.find(key);
  if (it == warm_index_.end()) {
    ++stats_.warm_misses;
    return nullptr;
  }
  auto beliefs = std::move(it->second->beliefs);
  warm_lru_.erase(it->second);
  warm_index_.erase(it);
  ++stats_.warm_hits;
  warm_hits_.inc();
  warm_bytes_update_locked();
  return beliefs;
}

void GraphCache::warm_bytes_update_locked() {
  std::size_t bytes = 0;
  for (const WarmEntry& e : warm_lru_) {
    bytes += e.beliefs->size() * sizeof(graph::BeliefVec);
  }
  warm_bytes_.set(static_cast<double>(bytes));
}

CacheStats GraphCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::size_t GraphCache::warm_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warm_lru_.size();
}

}  // namespace credo::serve
