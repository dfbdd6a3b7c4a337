#include "serve/graph_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>
#include <utility>

#include "graph/reorder.h"
#include "io/mtx_belief.h"
#include "util/error.h"
#include "util/prng.h"

namespace credo::serve {
namespace {

/// How much older than the clock both files' mtime and ctime must be
/// before their identities are trusted (git's racy-clean rule). Two
/// seconds covers coarse kernel timestamp ticks and FAT's 2-s mtime: a
/// write after the identities were taken lands on a later timestamp.
constexpr std::int64_t kSettleNs = 2'000'000'000;

/// A read-only descriptor, closed when it goes out of scope.
class OpenFile {
 public:
  explicit OpenFile(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) {
      throw util::IoError("cannot open graph file: " + path + " (" +
                          std::generic_category().message(errno) + ")");
    }
  }
  OpenFile(const OpenFile&) = delete;
  OpenFile& operator=(const OpenFile&) = delete;
  ~OpenFile() { ::close(fd_); }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_;
};

/// Reads until `buf` is full or the file ends; returns the bytes read.
std::size_t read_full(int fd, unsigned char* buf, std::size_t size,
                      const std::string& path) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, buf + got, size - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      throw util::IoError("cannot read graph file: " + path);
    }
    got += static_cast<std::size_t>(n);
  }
  return got;
}

// xxHash64's PRIME64_1, _2 and _4.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;

std::uint64_t word_at(const unsigned char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

std::uint64_t mix_word(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kP2, 31) * kP1;
}

/// xxHash64-style digest of an open file's bytes, chained through `seed`:
/// four independent lanes each take one 8-byte word per 32-byte stripe,
/// so the loop is four multiply chains instead of FNV-1a's one multiply
/// per byte. It runs on misses and on identities it cannot trust. Read
/// from the page cache, hostbench's uniform2 pair (0.86 MB) hashes in
/// 0.14 ms against 1.3 ms for FNV-1a and 7–8 ms for the MTX parse (4-core
/// Xeon, -O2): a byte-wise hash is not negligible beside a parse.
std::uint64_t hash_file(int fd, const std::string& path,
                        std::uint64_t seed) {
  constexpr std::size_t kStripe = 32;
  unsigned char buf[1 << 16];
  std::uint64_t lane[4] = {seed + kP1 + kP2, seed + kP2, seed, seed - kP1};
  std::uint64_t total = 0;
  std::size_t got = 0;
  do {
    got = read_full(fd, buf, sizeof(buf), path);
    total += got;
    // Zero-pad the last stripe: starting the merge from `total` tells the
    // padding apart from zero bytes in the file.
    const std::size_t end = (got + kStripe - 1) / kStripe * kStripe;
    std::fill(buf + got, buf + end, 0);
    for (std::size_t i = 0; i < end; i += kStripe) {
      for (std::size_t l = 0; l < 4; ++l) {
        lane[l] = mix_word(lane[l], word_at(buf + i + 8 * l));
      }
    }
  } while (got == sizeof(buf));

  std::uint64_t h = total;
  for (const std::uint64_t v : lane) {
    h = (std::rotl(h, 27) ^ mix_word(0, v)) * kP1 + kP4;
  }
  return util::splitmix64(h);
}

/// The warm table's key: one state per (graph version, engine).
std::string warm_key(const std::string& graph_key, bp::EngineKind engine) {
  return graph_key + '#' + std::string(bp::engine_slug(engine));
}

/// Resident bytes of a retained state: its beliefs plus its frontier.
std::size_t resident_bytes(const WarmState& s) {
  std::size_t bytes = s.beliefs->size() * sizeof(graph::BeliefVec);
  if (s.frontier != nullptr) {
    bytes += s.frontier->size() * sizeof(graph::NodeId);
  }
  return bytes;
}

obs::MetricsRegistry& or_global(obs::MetricsRegistry* registry) {
  return registry != nullptr ? *registry : obs::MetricsRegistry::global();
}

std::int64_t nanoseconds(const struct timespec& t) {
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

}  // namespace

GraphCache::GraphCache(std::size_t capacity,
                       obs::MetricsRegistry* registry)
    : capacity_(capacity == 0 ? 1 : capacity),
      hits_(or_global(registry).counter(
          "credo_graph_cache_hits_total",
          "Graph cache fetches served without parsing")),
      misses_(or_global(registry).counter(
          "credo_graph_cache_misses_total",
          "Graph cache fetches that parsed the files")),
      content_hashes_(or_global(registry).counter(
          "credo_graph_cache_content_hashes_total",
          "Graph cache fetches that read and hashed both files")),
      evictions_(or_global(registry).counter(
          "credo_graph_cache_evictions_total", "Graph cache LRU evictions")),
      warm_hits_(or_global(registry).counter(
          "credo_cache_warm_hits_total",
          "Warm-state lookups that found retained converged beliefs")),
      warm_bytes_(or_global(registry).gauge(
          "credo_cache_warm_bytes",
          "Bytes of converged beliefs and open frontiers resident in the "
          "warm-state table")) {}

GraphCache::FileIdentity GraphCache::identify(int fd,
                                              const std::string& path) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    throw util::IoError("cannot stat graph file: " + path);
  }
  return {static_cast<std::uint64_t>(st.st_dev),
          static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::int64_t>(st.st_size), nanoseconds(st.st_mtim),
          nanoseconds(st.st_ctim)};
}

GraphCache::Fetched GraphCache::fetch(const std::string& nodes_path,
                                      const std::string& edges_path,
                                      graph::ReorderMode mode) {
  const std::string mode_name(graph::reorder_mode_name(mode));
  const std::string paths = nodes_path + '|' + edges_path + '|';
  const std::string slot = paths + mode_name;

  // The clock first, then fstat on the descriptors the hash would read
  // (fstat rather than stat keeps NFS close-to-open semantics): a write
  // that lands after this point gets a newer timestamp than any identity
  // settled enough to trust.
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const OpenFile nodes_file(nodes_path);
  const OpenFile edges_file(edges_path);
  const FileIdentity nodes = identify(nodes_file.fd(), nodes_path);
  const FileIdentity edges = identify(edges_file.fd(), edges_path);
  const bool settled =
      now - std::max({nodes.mtime_ns, nodes.ctime_ns, edges.mtime_ns,
                      edges.ctime_ns}) >=
      kSettleNs;

  std::shared_ptr<const CachedGraph> seen;  // the slot's entry, if any
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(slot);
    if (it != index_.end()) {
      const Entry& e = *it->second;
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to front
      if (e.settled && e.nodes == nodes && e.edges == edges) {
        ++stats_.hits;
        hits_.inc();
        return {e.value, true};
      }
      seen = e.value;
    }
  }

  // New entry, changed identity or one too fresh to trust: hash both
  // files outside the lock, so file I/O does not serialize the cache.
  const std::uint64_t h =
      hash_file(edges_file.fd(), edges_path,
                hash_file(nodes_file.fd(), nodes_path, 0));
  const std::string key = paths + std::to_string(h) + '|' + mode_name;

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.content_hashes;
    content_hashes_.inc();
    // Only the entry seen before hashing can make this a hit: a fetch
    // that found the slot empty loads the files, so on settled files
    // content hashes equal misses however fetches interleave.
    if (seen != nullptr && seen->key == key) {
      // Same bytes as the entry (a touch, or files written under 2 s
      // ago): keep it, under the identities just taken.
      ++stats_.hits;
      hits_.inc();
      const auto it = index_.find(slot);
      if (it != index_.end() && it->second->value == seen) {
        it->second->nodes = nodes;
        it->second->edges = edges;
        it->second->settled = settled;
      }
      return {std::move(seen), true};
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
  const auto it = index_.find(slot);
  if (it != index_.end()) {
    Entry& e = *it->second;
    lru_.splice(lru_.begin(), lru_, it->second);
    // A concurrent fetch of the same bytes may have filled the slot first:
    // the two parses are interchangeable, so reuse its entry. Otherwise
    // the pair was rewritten, and the new contents replace the old entry.
    if (e.value->key != key) {
      e.nodes = nodes;
      e.edges = edges;
      e.settled = settled;
      e.value = std::move(loaded);
    }
    return {e.value, false};
  }
  lru_.push_front(Entry{slot, nodes, edges, settled, std::move(loaded)});
  index_[slot] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().slot);
    lru_.pop_back();  // shared_ptr keeps in-flight users safe
    ++stats_.evictions;
    evictions_.inc();
  }
  return {lru_.front().value, false};
}

WarmState GraphCache::warm_lookup(const std::string& graph_key,
                                  bp::EngineKind engine) {
  const std::string key = warm_key(graph_key, engine);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = warm_index_.find(key);
  if (it == warm_index_.end()) {
    ++stats_.warm_misses;
    return {};
  }
  warm_lru_.splice(warm_lru_.begin(), warm_lru_, it->second);
  ++stats_.warm_hits;
  warm_hits_.inc();
  return it->second->state;
}

void GraphCache::warm_store(const std::string& graph_key,
                            bp::EngineKind engine, WarmState state) {
  if (state.beliefs == nullptr) return;
  const std::string key = warm_key(graph_key, engine);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = warm_index_.find(key);
  if (it != warm_index_.end()) {
    it->second->state = std::move(state);
    warm_lru_.splice(warm_lru_.begin(), warm_lru_, it->second);
  } else {
    warm_lru_.push_front(WarmEntry{key, std::move(state)});
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

WarmState GraphCache::warm_take(const std::string& graph_key,
                                bp::EngineKind engine) {
  const std::string key = warm_key(graph_key, engine);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = warm_index_.find(key);
  if (it == warm_index_.end()) {
    ++stats_.warm_misses;
    return {};
  }
  WarmState state = std::move(it->second->state);
  warm_lru_.erase(it->second);
  warm_index_.erase(it);
  ++stats_.warm_hits;
  warm_hits_.inc();
  warm_bytes_update_locked();
  return state;
}

void GraphCache::warm_bytes_update_locked() {
  std::size_t bytes = 0;
  for (const WarmEntry& e : warm_lru_) bytes += resident_bytes(e.state);
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
