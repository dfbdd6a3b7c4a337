// LRU cache of parsed factor graphs (DESIGN.md §5c).
//
// The §3.2 study made MTX parsing cheap, but it is still the dominant cost
// of a small inference request — and a serving workload hits the same
// handful of graphs over and over. An entry is addressed by its file
// pair's paths and reorder mode, and it records the identity of both files
// (device, inode, size, mtime and ctime, read with open + fstat). A fetch
// that sees the recorded identities again is a hit and reads no byte of
// either file. Both files are read and hashed only when the entry is new,
// an identity changed, or the recorded identities are too fresh to trust:
// git's racy-clean rule, which trusts them only when both files' mtime and
// ctime were at least 2 s older than the clock when they were taken, so a
// same-size rewrite within one timestamp tick is still re-hashed. Keys
// stay content-based (CachedGraph::key = paths + content hash + reorder
// mode): a `touch` that changes no byte re-hashes and keeps its entry,
// and a rewritten pair replaces it. Entries are handed out as shared_ptrs
// so an eviction never invalidates an in-flight run.
//
// Alongside the parsed graphs the cache keeps a *warm-state* side table
// (DESIGN.md §5h): one converged run's state per (graph version key,
// engine) — its beliefs, its open frontier and the queue bar that
// frontier was produced under — so a repeat request can start from the
// previous fixed point instead of the priors, and a queued one can resume
// the stored run's work queue instead of sweeping every node. The side
// table is independent of the graph LRU — evicting a parsed graph does
// NOT drop its warm state, so a re-parse after eviction still
// warm-starts. Warm hits and resident bytes (beliefs and frontiers) are
// exported as credo_cache_warm_hits_total / credo_cache_warm_bytes.
//
// Thread-safe. Concurrent first fetches of the same files may parse twice
// (both count as misses, one insert wins); correctness is unaffected.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bp/engine.h"
#include "graph/belief.h"
#include "graph/factor_graph.h"
#include "graph/metadata.h"
#include "obs/metrics.h"

namespace credo::serve {

/// One parsed graph plus everything a request needs alongside it. Under a
/// reorder mode the graph went through the locality pass at load time
/// (graph/reorder.h) and carries its permutation; engines un-permute
/// result beliefs, so responses are in the file's original node ids either
/// way. `key` is the entry's content key (paths + content hash + reorder
/// mode) — the stable address warm state and mutated versions are filed
/// under, whether a fetch hit on the files' identities or re-hashed them.
struct CachedGraph {
  /// Shared with the DynamicGraph that produced it, for mutated versions:
  /// publishing a version copies no graph.
  std::shared_ptr<const graph::FactorGraph> graph;
  graph::GraphMetadata metadata;
  std::string key;

  /// Topology version: 0 for entries parsed from disk; N for snapshots
  /// published by a server-side DynamicGraph after N mutation batches.
  /// Mutated snapshots carry "#vN" in `key`, so their warm state never
  /// collides with the as-parsed entry's (the content hash alone cannot
  /// tell them apart — the files on disk did not change).
  std::uint64_t version = 0;
};

/// One converged run's state, retained per (graph version, engine)
/// (DESIGN.md §5h). Null `beliefs` means no state is retained.
struct WarmState {
  /// Converged beliefs, in the graph's original node ids.
  std::shared_ptr<const std::vector<graph::BeliefVec>> beliefs;

  /// The run's open frontier (bp::BpResult::frontier) in original ids:
  /// every node not yet settled under `queue_threshold`. Null when the run
  /// left no such account — a dense or unseeded-queue run, an engine
  /// without a child-waking schedule, or a run seeded from a delta's
  /// touched nodes alone, which never visited the rest. Empty when the
  /// run's queue drained.
  std::shared_ptr<const std::vector<graph::NodeId>> frontier;

  /// The BpOptions::queue_threshold the frontier was produced under: a
  /// node outside it has seen every move of its parents above this.
  float queue_threshold = 0.0f;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t content_hashes = 0;  // fetches that read and hashed both files
  std::uint64_t evictions = 0;
  std::uint64_t warm_hits = 0;    // warm_lookup found retained beliefs
  std::uint64_t warm_misses = 0;  // warm_lookup came back empty

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
};

class GraphCache {
 public:
  /// Holds at most `capacity` parsed graphs (>= 1). Hit, miss, content
  /// hash and eviction counters are mirrored into `registry` (the
  /// process-wide obs::MetricsRegistry::global() when null) as
  /// credo_graph_cache_{hits,misses,content_hashes,evictions}_total, so a
  /// live scrape sees cache behaviour without polling CacheStats.
  explicit GraphCache(std::size_t capacity,
                      obs::MetricsRegistry* registry = nullptr);

  struct Fetched {
    std::shared_ptr<const CachedGraph> entry;
    bool hit = false;
  };

  /// Returns the parsed graph for the file pair, loading (and, when `mode`
  /// is not kNone, reordering) it on a miss. Every fetch opens both files;
  /// a hit on settled identities reads neither. The reorder mode is part
  /// of the entry's address: the same files fetched under different modes
  /// are distinct entries, since their in-memory layouts differ.
  /// Throws util::IoError / util::ParseError like io::read_mtx_belief.
  [[nodiscard]] Fetched fetch(
      const std::string& nodes_path, const std::string& edges_path,
      graph::ReorderMode mode = graph::ReorderMode::kNone);

  /// Retained state of `engine` on the graph version `graph_key` (a
  /// CachedGraph::key), or an empty WarmState. A hit bumps the entry in
  /// the warm LRU and counts in warm_hits / credo_cache_warm_hits_total; a
  /// miss counts in warm_misses.
  [[nodiscard]] WarmState warm_lookup(const std::string& graph_key,
                                      bp::EngineKind engine);

  /// Retains `state` for (graph key, engine), replacing any previous state
  /// under the same pair; a state without beliefs is ignored. The warm
  /// table is its own LRU with 2x the graph capacity, deliberately NOT
  /// tied to graph entries: a graph eviction must not cost the warm
  /// state, or a re-parse after cache pressure would also pay a cold
  /// re-converge.
  void warm_store(const std::string& graph_key, bp::EngineKind engine,
                  WarmState state);

  /// warm_lookup that also drops the entry: a mutation moves its version's
  /// state to the next version, since no request resolves a superseded
  /// version again.
  [[nodiscard]] WarmState warm_take(const std::string& graph_key,
                                    bp::EngineKind engine);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t warm_size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// What fstat reports for one open file. A write changes its ctime even
  /// when it keeps the size and the mtime is set back; a rename over the
  /// path changes the inode.
  struct FileIdentity {
    std::uint64_t device = 0;
    std::uint64_t inode = 0;
    std::int64_t size = 0;
    std::int64_t mtime_ns = 0;
    std::int64_t ctime_ns = 0;
    bool operator==(const FileIdentity&) const = default;
  };
  /// One LRU slot per (paths, reorder mode). The identities are those the
  /// value's bytes were hashed under; `settled` says they were old enough
  /// to trust when taken.
  struct Entry {
    std::string slot;
    FileIdentity nodes;
    FileIdentity edges;
    bool settled = false;
    std::shared_ptr<const CachedGraph> value;
  };
  struct WarmEntry {
    std::string key;
    WarmState state;
  };

  static FileIdentity identify(int fd, const std::string& path);
  void warm_bytes_update_locked();

  std::size_t capacity_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& content_hashes_;
  obs::Counter& evictions_;
  obs::Counter& warm_hits_;
  obs::Gauge& warm_bytes_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;  // by slot
  std::list<WarmEntry> warm_lru_;
  std::unordered_map<std::string, std::list<WarmEntry>::iterator> warm_index_;
  CacheStats stats_;
};

}  // namespace credo::serve
