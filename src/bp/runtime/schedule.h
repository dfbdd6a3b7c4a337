// Host-side schedule policies (DESIGN.md §5b).
//
// A schedule owns *which* node/edge indices run each round; the engines own
// what happens to each index. Three families reproduce the paper's
// schedules plus the residual extension:
//  * DenseSweep           — every element, every iteration (Algorithm 1);
//  * NodeFrontier /       — §3.5 work queues: elements whose delta stayed
//    FragmentedNodeFrontier / EdgeFrontier
//                           above the per-element threshold re-enqueue for
//                           the next round, everything else freezes;
//  * ResidualSchedule     — residual-prioritized selection (cf. §5.1,
//                           Gonzalez et al.): the node that moved most
//                           runs next;
//  * BulkResidualSchedule — its parallel form (§5f): each round runs the
//                           highest-residual quarter of the active set as
//                           one dense frontier.
//
// Queue traffic is metered here (entry reads on fetch, entry writes on
// re-enqueue, the shared-cursor atomic for the fragmented form) exactly as
// the engines metered it before the refactor, so modelled costs are
// unchanged. TreeLevels is the schedule of the non-loopy §2.1.1 baseline:
// a by-level edge ordering for the two Pearl sweeps.
#pragma once

#include <atomic>
#include <cstdint>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "bp/runtime/convergence.h"
#include "graph/csr.h"
#include "graph/factor_graph.h"
#include "perf/counters.h"

namespace credo::bp::runtime {

/// Dense sweep over a fixed element count — Algorithm 1 with no queue.
class DenseSweep {
 public:
  explicit DenseSweep(std::uint64_t count) noexcept : count_(count) {}

  std::uint64_t begin_iteration(std::uint32_t /*iter*/) const noexcept {
    return count_;
  }
  [[nodiscard]] std::uint64_t size() const noexcept { return count_; }
  bool advance(std::uint32_t /*iter*/) const noexcept { return true; }

 private:
  std::uint64_t count_;
};

/// §3.5 node work queue (sequential form): a double-buffered index list.
/// With `use_queue` false it degrades to a dense [0, n) sweep so one engine
/// body serves both modes.
///
/// Seeded form (DESIGN.md §5h): when `seed` is non-null the first frontier
/// is that node list instead of every unobserved node, queue mode is
/// forced, and `keep` becomes propagating — a still-active node re-enqueues
/// itself AND its out-neighbors (per-round stamp-deduplicated), because a
/// node outside the seed was never in the queue and must be woken when a
/// perturbation reaches it. Unseeded behavior and metering are unchanged.
class NodeFrontier {
 public:
  NodeFrontier(const graph::FactorGraph& g, bool use_queue,
               const std::vector<graph::NodeId>* seed = nullptr);

  [[nodiscard]] bool queued() const noexcept { return use_queue_; }

  std::uint64_t begin_iteration(std::uint32_t /*iter*/) {
    if (use_queue_) {
      next_.clear();
      ++round_;
    }
    return size();
  }
  [[nodiscard]] std::uint64_t size() const noexcept {
    return use_queue_ ? queue_.size() : n_;
  }

  /// Fetches the qi-th scheduled node. Queue mode meters the entry read;
  /// dense mode is the loop index itself.
  graph::NodeId at(perf::Meter& meter, std::uint64_t qi) const {
    if (!use_queue_) return static_cast<graph::NodeId>(qi);
    meter.seq_read(sizeof(graph::NodeId));
    return queue_[qi];
  }

  /// Re-enqueues a still-active node for the next round (plus its
  /// out-neighbors in seeded mode — the change flows to its children).
  void keep(perf::Meter& meter, graph::NodeId v);

  /// Swaps in the next frontier; false when it is empty (all remaining
  /// elements individually converged).
  bool advance(std::uint32_t /*iter*/) {
    if (!use_queue_) return true;
    queue_.swap(next_);
    return !queue_.empty();
  }

 private:
  void push_next(perf::Meter& meter, graph::NodeId v);

  bool use_queue_;
  std::uint64_t n_;
  const graph::FactorGraph* g_ = nullptr;  // set iff seeded
  std::uint32_t round_ = 0;
  std::vector<std::uint32_t> stamp_;  // round v was last enqueued for
  std::vector<graph::NodeId> queue_;
  std::vector<graph::NodeId> next_;
};

/// §3.5 node work queue, thread-team form: appends go to per-worker
/// fragments (the real implementation appends through one shared cursor,
/// hence the atomic charge per keep), merged into one frontier at advance.
///
/// Seeded form mirrors NodeFrontier's: propagating keep with an atomic
/// per-round stamp CAS so exactly one worker enqueues a woken node per
/// round (duplicates across fragments would otherwise grow unboundedly).
class FragmentedNodeFrontier {
 public:
  FragmentedNodeFrontier(const graph::FactorGraph& g, bool use_queue,
                         unsigned workers,
                         const std::vector<graph::NodeId>* seed = nullptr);

  [[nodiscard]] bool queued() const noexcept { return use_queue_; }

  std::uint64_t begin_iteration(std::uint32_t /*iter*/) noexcept {
    if (use_queue_ && g_ != nullptr) ++round_;
    return size();
  }
  [[nodiscard]] std::uint64_t size() const noexcept {
    return use_queue_ ? queue_.size() : n_;
  }

  graph::NodeId at(perf::Meter& meter, std::uint64_t qi) const {
    if (!use_queue_) return static_cast<graph::NodeId>(qi);
    meter.seq_read(sizeof(graph::NodeId));
    return queue_[qi];
  }

  /// Worker-local re-enqueue; the metered atomic is the shared cursor
  /// bump a real lock-free append would pay. Seeded mode also wakes v's
  /// out-neighbors (stamp-deduplicated across the team).
  void keep(perf::Meter& meter, unsigned worker, graph::NodeId v);

  bool advance(std::uint32_t /*iter*/) {
    if (!use_queue_) return true;
    queue_.clear();
    for (auto& f : frags_) {
      queue_.insert(queue_.end(), f.begin(), f.end());
      f.clear();
    }
    return !queue_.empty();
  }

 private:
  void push_next(perf::Meter& meter, unsigned worker, graph::NodeId v);

  bool use_queue_;
  std::uint64_t n_;
  const graph::FactorGraph* g_ = nullptr;  // set iff seeded
  std::uint32_t round_ = 0;
  std::vector<std::atomic<std::uint32_t>> stamp_;
  std::vector<graph::NodeId> queue_;
  std::vector<std::vector<graph::NodeId>> frags_;
};

/// §3.5 edge work queue: starts with every edge into an unobserved
/// destination; the engine re-enqueues the out-edges of nodes that moved.
class EdgeFrontier {
 public:
  explicit EdgeFrontier(const graph::FactorGraph& g);

  std::uint64_t begin_iteration(std::uint32_t /*iter*/) {
    next_.clear();
    return queue_.size();
  }
  [[nodiscard]] std::uint64_t size() const noexcept { return queue_.size(); }

  graph::EdgeId at(perf::Meter& meter, std::uint64_t qi) const {
    meter.seq_read(sizeof(graph::EdgeId));
    return queue_[qi];
  }

  /// Unmetered re-read of an entry already fetched this iteration (the
  /// second access hits the same cache line the metered `at` paid for).
  [[nodiscard]] graph::EdgeId peek(std::uint64_t qi) const noexcept {
    return queue_[qi];
  }

  void keep(perf::Meter& meter, graph::EdgeId e) {
    next_.push_back(e);
    meter.seq_write(sizeof(graph::EdgeId));
  }

  bool advance(std::uint32_t /*iter*/) {
    queue_.swap(next_);
    return !queue_.empty();
  }

 private:
  std::vector<graph::EdgeId> queue_;
  std::vector<graph::EdgeId> next_;
};

/// Residual-prioritized schedule: a max-heap of (residual, node, version)
/// with lazy deletion — every reprioritization bumps the node's version, so
/// a popped entry is live iff its version matches the table. Superseded
/// duplicates are discarded on pop, and when they outnumber live entries
/// the heap is compacted in place, so its size stays O(nodes) no matter how
/// often nodes are reprioritized. Heap traffic (near reads per pop, near
/// writes per push, the CSR walk of reprioritization) is metered through
/// the meter bound at construction.
class ResidualSchedule {
 public:
  /// Ordered by (priority, node id) exactly as the former
  /// std::pair<float, NodeId> entries were; the version is payload.
  struct Entry {
    float prio;
    graph::NodeId node;
    std::uint32_t ver;
    bool operator<(const Entry& o) const noexcept {
      if (prio != o.prio) return prio < o.prio;
      return node < o.node;
    }
  };

  /// `seed` non-null starts only those nodes at max priority (DESIGN.md
  /// §5h) instead of every unobserved node; record() already propagates
  /// priority to children, so the perturbation spreads on its own.
  ResidualSchedule(const graph::FactorGraph& g,
                   const ConvergenceController& ctl, perf::Meter& meter,
                   const std::vector<graph::NodeId>* seed = nullptr);

  /// Pops the highest-residual unconverged node. False when drained.
  bool pop(graph::NodeId& v);

  /// Records an update of `v` with belief change `delta`: clears v's
  /// residual and raises its children's priorities.
  void record(graph::NodeId v, float delta);

  [[nodiscard]] bool empty() const noexcept { return pq_.empty(); }
  [[nodiscard]] std::uint64_t pending() const noexcept { return pq_.size(); }

 private:
  void push_entry(graph::NodeId v, float prio);
  void compact();

  const graph::FactorGraph& g_;
  const ConvergenceController& ctl_;
  perf::Meter& meter_;
  std::vector<float> residual_;
  std::vector<std::uint32_t> version_;
  std::vector<std::uint8_t> live_;  // node has a current-version heap entry
  std::priority_queue<Entry> pq_;
};

/// Bulk residual schedule (DESIGN.md §5f): the exact schedule's residual
/// rule, drained in synchronous rounds instead of one pop at a time.
///
/// A node's residual is the max of its parents' update deltas since it
/// last ran; running it consumes the residual. A node is active while its
/// residual exceeds the queue bar. Each round, select() takes the
/// highest-residual quarter of the active set (all of it at <= 128 nodes),
/// the engine runs that selection in parallel — consume(), the update,
/// then record(), whose fetch-max raises the children of every update that
/// clears the bar — and end_round() folds the newly activated nodes into
/// the active set. Between rounds no update is in flight, so
/// drained() is an exact fixed-point test.
///
/// Metering: one atomic per consume and per raise, one active-list entry
/// write per newly activated node, one entry read per active node scanned
/// by select() (the engine meters its fetch of each selected entry), plus
/// the CSR walk of record(). select() and end_round()
/// run between rounds on the calling thread; consume() and record() are
/// safe from any worker of the team the schedule was built for.
class BulkResidualSchedule {
 public:
  /// Nodes a round selects: the top 1/kFraction of the active set, or all
  /// of it when it holds at most kSelectAll nodes. Without selection a
  /// round is a plain frontier sweep, which loses min-sum LDPC decodes
  /// the residual order recovers; a tenth instead of a quarter doubles the
  /// rounds for under 0.3% fewer updates.
  static constexpr std::uint64_t kFraction = 4;
  static constexpr std::uint64_t kSelectAll = 128;

  /// Every unobserved node with parents starts active at +inf, or only the
  /// nodes of `seed` when it is non-null (DESIGN.md §5h; the list arrives
  /// pre-filtered from expand_frontier_seed).
  BulkResidualSchedule(const graph::FactorGraph& g,
                       const ConvergenceController& ctl, unsigned workers,
                       const std::vector<graph::NodeId>* seed = nullptr);

  /// Picks the next round: at most `budget` nodes, each listed once. The
  /// caller may reorder the returned nodes.
  std::span<graph::NodeId> select(perf::Meter& meter, std::uint64_t budget);

  /// Consumes selected node `v`'s residual; call right before its update.
  void consume(perf::Meter& meter, graph::NodeId v);

  /// Records worker `w`'s update of `v` with belief change `delta`: when it
  /// clears the queue bar, raises v's children to at least `delta`.
  void record(unsigned w, perf::Meter& meter, graph::NodeId v, float delta);

  /// Appends the nodes this round's raises activated to the active set.
  void end_round();

  [[nodiscard]] bool drained() const noexcept { return active_.empty(); }
  [[nodiscard]] std::uint64_t pending() const noexcept {
    return active_.size();
  }

 private:
  struct alignas(64) Fragment {
    std::vector<graph::NodeId> nodes;
  };

  const graph::FactorGraph& g_;
  const ConvergenceController& ctl_;
  std::vector<std::atomic<float>> residual_;
  // Set while a node is active, in fresh_, or selected and not yet run.
  std::vector<std::atomic<std::uint8_t>> listed_;
  std::vector<graph::NodeId> active_;
  std::vector<graph::NodeId> round_;
  std::vector<Fragment> fresh_;  // per worker: activated this round
};

/// By-level schedule of the non-loopy §2.1.1 baseline: BFS levels rooted at
/// each component's smallest node id, computed either by the paper's
/// data-structure-free edge-list relaxation (`naive`, the "enormous
/// overhead" mode) or by an indexed BFS over the CSR.
class TreeLevels {
 public:
  TreeLevels(const graph::FactorGraph& g, bool naive, perf::Meter& meter);

  [[nodiscard]] std::uint32_t max_level() const noexcept {
    return max_level_;
  }

  /// Applies `fn` to every edge from `from_level` to `to_level`, in the
  /// cost regime the mode implies (full edge-list scans per member when
  /// naive, CSR walks when indexed).
  template <typename Fn>
  void for_edges(const graph::FactorGraph& g, std::uint32_t from_level,
                 std::uint32_t to_level, perf::Meter& meter, Fn&& fn) const {
    const auto& edges = g.edges();
    const graph::NodeId n = g.num_nodes();
    if (naive_) {
      for (graph::NodeId v = 0; v < n; ++v) {
        meter.seq_read(sizeof(std::uint32_t));  // level-array scan
        if (level_[v] != from_level) continue;
        // Full edge-list scan to find v's outgoing edges; each candidate
        // costs the struct read plus the level lookups of both endpoints.
        meter.seq_read(edges.size() * sizeof(graph::DirectedEdge));
        meter.near_read(sizeof(std::uint32_t), 2 * edges.size());
        for (graph::EdgeId e = 0; e < edges.size(); ++e) {
          if (edges[e].src == v && level_[edges[e].dst] == to_level) {
            fn(e);
          }
        }
      }
    } else {
      for (graph::NodeId v = 0; v < n; ++v) {
        meter.seq_read(sizeof(std::uint32_t));
        if (level_[v] != from_level) continue;
        meter.seq_read(sizeof(std::uint64_t));
        for (const auto& entry : g.out_csr().neighbors(v)) {
          meter.seq_read(sizeof(entry));
          meter.rand_read(sizeof(std::uint32_t));  // level[dst]
          if (level_[entry.node] == to_level) fn(entry.edge);
        }
      }
    }
  }

 private:
  bool naive_;
  std::vector<std::uint32_t> level_;
  std::uint32_t max_level_ = 0;
};

}  // namespace credo::bp::runtime
