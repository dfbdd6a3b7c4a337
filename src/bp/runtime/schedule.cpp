#include "bp/runtime/schedule.h"

#include <algorithm>
#include <limits>

namespace credo::bp::runtime {

namespace {
constexpr std::uint32_t kNoLevel = ~0u;
}  // namespace

NodeFrontier::NodeFrontier(const graph::FactorGraph& g, bool use_queue,
                           const std::vector<graph::NodeId>* seed)
    : use_queue_(use_queue || seed != nullptr), n_(g.num_nodes()) {
  if (!use_queue_) return;
  if (seed != nullptr) {
    g_ = &g;
    stamp_.assign(g.num_nodes(), 0);
    queue_ = *seed;
    return;
  }
  queue_.reserve(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.observed(v)) queue_.push_back(v);
  }
}

void NodeFrontier::push_next(perf::Meter& meter, graph::NodeId v) {
  if (stamp_[v] == round_) return;
  stamp_[v] = round_;
  next_.push_back(v);
  meter.seq_write(sizeof(graph::NodeId));
}

void NodeFrontier::keep(perf::Meter& meter, graph::NodeId v) {
  if (g_ == nullptr) {
    next_.push_back(v);
    meter.seq_write(sizeof(graph::NodeId));
    return;
  }
  // Seeded mode: wake v's children too — they may never have been queued.
  push_next(meter, v);
  meter.seq_read(sizeof(std::uint64_t));  // CSR offset
  for (const auto& entry : g_->out_csr().neighbors(v)) {
    meter.seq_read(sizeof(entry));
    const graph::NodeId c = entry.node;
    if (g_->observed(c) || g_->in_csr().degree(c) == 0) continue;
    push_next(meter, c);
  }
}

FragmentedNodeFrontier::FragmentedNodeFrontier(
    const graph::FactorGraph& g, bool use_queue, unsigned workers,
    const std::vector<graph::NodeId>* seed)
    : use_queue_(use_queue || seed != nullptr),
      n_(g.num_nodes()),
      frags_(workers) {
  if (!use_queue_) return;
  if (seed != nullptr) {
    g_ = &g;
    stamp_ = std::vector<std::atomic<std::uint32_t>>(g.num_nodes());
    for (auto& s : stamp_) s.store(0, std::memory_order_relaxed);
    queue_ = *seed;
    return;
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.observed(v)) queue_.push_back(v);
  }
}

void FragmentedNodeFrontier::push_next(perf::Meter& meter, unsigned worker,
                                       graph::NodeId v) {
  std::uint32_t cur = stamp_[v].load(std::memory_order_relaxed);
  if (cur == round_) return;
  if (!stamp_[v].compare_exchange_strong(cur, round_,
                                         std::memory_order_relaxed)) {
    return;  // another worker woke v this round
  }
  frags_[worker].push_back(v);
  meter.atomic(1, 1);
  meter.seq_write(sizeof(graph::NodeId));
}

void FragmentedNodeFrontier::keep(perf::Meter& meter, unsigned worker,
                                  graph::NodeId v) {
  if (g_ == nullptr) {
    frags_[worker].push_back(v);
    meter.atomic(1, 1);
    meter.seq_write(sizeof(graph::NodeId));
    return;
  }
  push_next(meter, worker, v);
  meter.seq_read(sizeof(std::uint64_t));  // CSR offset
  for (const auto& entry : g_->out_csr().neighbors(v)) {
    meter.seq_read(sizeof(entry));
    const graph::NodeId c = entry.node;
    if (g_->observed(c) || g_->in_csr().degree(c) == 0) continue;
    push_next(meter, worker, c);
  }
}

EdgeFrontier::EdgeFrontier(const graph::FactorGraph& g) {
  const auto& edges = g.edges();
  queue_.reserve(edges.size());
  for (graph::EdgeId e = 0; e < edges.size(); ++e) {
    if (!g.observed(edges[e].dst)) queue_.push_back(e);
  }
}

ResidualSchedule::ResidualSchedule(const graph::FactorGraph& g,
                                   const ConvergenceController& ctl,
                                   perf::Meter& meter,
                                   const std::vector<graph::NodeId>* seed)
    : g_(g),
      ctl_(ctl),
      meter_(meter),
      residual_(g.num_nodes(), 0.0f),
      version_(g.num_nodes(), 0),
      live_(g.num_nodes(), 0) {
  const auto start = [&](graph::NodeId v) {
    residual_[v] = std::numeric_limits<float>::max();
    live_[v] = 1;
    pq_.push({residual_[v], v, version_[v]});
  };
  if (seed != nullptr) {
    // §5h seeded start: only the perturbed region enters the heap;
    // record() raises children, so the wave spreads by itself. The seed
    // arrives pre-filtered (unobserved, in-degree > 0) from
    // expand_frontier_seed.
    for (const graph::NodeId v : *seed) start(v);
    return;
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.observed(v) && g.in_csr().degree(v) > 0) start(v);
  }
}

bool ResidualSchedule::pop(graph::NodeId& v) {
  while (!pq_.empty()) {
    const Entry e = pq_.top();
    pq_.pop();
    meter_.near_read(sizeof(Entry));
    if (e.ver != version_[e.node]) continue;  // superseded duplicate
    if (!ctl_.element_active(residual_[e.node])) {
      live_[e.node] = 0;  // converged entry
      continue;
    }
    live_[e.node] = 0;
    v = e.node;
    return true;
  }
  return false;
}

void ResidualSchedule::push_entry(graph::NodeId v, float prio) {
  ++version_[v];
  live_[v] = 1;
  pq_.push({prio, v, version_[v]});
  meter_.near_write(sizeof(Entry));
  // Compaction keeps the lazy-deletion heap O(nodes): once superseded
  // duplicates outnumber live entries, drop them and re-heapify. Amortized
  // O(1) per push — each discarded entry was paid for by the push that
  // superseded it.
  if (pq_.size() > 64 + 2 * residual_.size()) compact();
}

void ResidualSchedule::compact() {
  std::vector<Entry> keep;
  keep.reserve(residual_.size());
  const std::uint64_t scanned = pq_.size();
  for (graph::NodeId v = 0; v < residual_.size(); ++v) {
    if (live_[v]) keep.push_back({residual_[v], v, version_[v]});
  }
  // One sweep over the old entries plus a rebuild of the survivors.
  meter_.near_read(sizeof(Entry), scanned);
  meter_.near_write(sizeof(Entry), keep.size());
  pq_ = std::priority_queue<Entry>(std::less<Entry>(), std::move(keep));
}

void ResidualSchedule::record(graph::NodeId v, float delta) {
  residual_[v] = 0.0f;
  ++version_[v];  // invalidate any queued entry for v
  live_[v] = 0;
  if (!ctl_.element_active(delta)) return;
  // The change flows to this node's children: raise their priority.
  for (const auto& entry : g_.out_csr().neighbors(v)) {
    meter_.seq_read(sizeof(entry));
    const graph::NodeId c = entry.node;
    if (g_.observed(c) || g_.in_csr().degree(c) == 0) continue;
    if (delta > residual_[c]) {
      residual_[c] = delta;
      push_entry(c, delta);
    }
  }
}

BulkResidualSchedule::BulkResidualSchedule(
    const graph::FactorGraph& g, const ConvergenceController& ctl,
    unsigned workers, const std::vector<graph::NodeId>* seed)
    : g_(g),
      ctl_(ctl),
      residual_(g.num_nodes()),
      listed_(g.num_nodes()),
      fresh_(std::max(1u, workers)) {
  for (auto& r : residual_) r.store(0.0f, std::memory_order_relaxed);
  for (auto& l : listed_) l.store(0, std::memory_order_relaxed);
  const auto start = [&](graph::NodeId v) {
    residual_[v].store(std::numeric_limits<float>::infinity(),
                       std::memory_order_relaxed);
    listed_[v].store(1, std::memory_order_relaxed);
    active_.push_back(v);
  };
  if (seed != nullptr) {
    for (const graph::NodeId v : *seed) start(v);
    return;
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!g.observed(v) && g.in_csr().degree(v) > 0) start(v);
  }
}

std::span<graph::NodeId> BulkResidualSchedule::select(perf::Meter& meter,
                                                      std::uint64_t budget) {
  const std::uint64_t size = active_.size();
  meter.seq_read(sizeof(graph::NodeId) * size);
  std::uint64_t k = size <= kSelectAll ? size : size / kFraction;
  k = std::min(k, budget);
  if (k < size) {
    // Top-k by (residual, lower id first) to the tail; the order is total,
    // so the selected set does not depend on the active list's order.
    const auto less = [this](graph::NodeId a, graph::NodeId b) {
      const float ra = residual_[a].load(std::memory_order_relaxed);
      const float rb = residual_[b].load(std::memory_order_relaxed);
      return ra < rb || (ra == rb && a > b);
    };
    std::nth_element(active_.begin(), active_.end() - k, active_.end(),
                     less);
  }
  // Selected nodes stay listed until they run: a raise landing before
  // then is folded into their update instead of queueing them again.
  round_.assign(active_.end() - k, active_.end());
  active_.resize(size - k);
  return round_;
}

void BulkResidualSchedule::consume(perf::Meter& meter, graph::NodeId v) {
  // Unlist first: a raise that lands after the exchange below must find v
  // unlisted and queue it. The acquiring exchange makes every raised
  // parent's belief write visible to v's update.
  listed_[v].store(0, std::memory_order_relaxed);
  residual_[v].exchange(0.0f, std::memory_order_acq_rel);
  meter.atomic(1, 0);
}

void BulkResidualSchedule::record(unsigned w, perf::Meter& meter,
                                  graph::NodeId v, float delta) {
  if (!ctl_.element_active(delta)) return;
  for (const auto& entry : g_.out_csr().neighbors(v)) {
    meter.seq_read(sizeof(entry));
    const graph::NodeId c = entry.node;
    if (g_.observed(c) || g_.in_csr().degree(c) == 0) continue;
    // Fetch-max as an RMW even when `delta` does not raise: it orders v's
    // belief write before any later consume of c, so an update that
    // consumes the residual also sees the change behind it.
    meter.atomic(1, 0);
    float cur = residual_[c].load(std::memory_order_relaxed);
    while (!residual_[c].compare_exchange_weak(cur, std::max(cur, delta),
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
    }
    if (delta > cur && listed_[c].load(std::memory_order_relaxed) == 0 &&
        listed_[c].exchange(1, std::memory_order_relaxed) == 0) {
      fresh_[w].nodes.push_back(c);
      meter.seq_write(sizeof(graph::NodeId));
    }
  }
}

void BulkResidualSchedule::end_round() {
  for (Fragment& f : fresh_) {
    for (const graph::NodeId c : f.nodes) {
      // Listed by a raise that the node's own later run then consumed.
      if (ctl_.element_active(residual_[c].load(std::memory_order_relaxed))) {
        active_.push_back(c);
      } else {
        listed_[c].store(0, std::memory_order_relaxed);
      }
    }
    f.nodes.clear();
  }
}

TreeLevels::TreeLevels(const graph::FactorGraph& g, bool naive,
                       perf::Meter& meter)
    : naive_(naive), level_(g.num_nodes(), kNoLevel) {
  const graph::NodeId n = g.num_nodes();
  const auto& edges = g.edges();
  if (naive_) {
    for (graph::NodeId v = 0; v < n; ++v) {
      meter.seq_read(sizeof(std::uint32_t));
      if (level_[v] != kNoLevel) continue;
      level_[v] = 0;
      // Relax over the whole edge list until the component stabilizes.
      bool changed = true;
      while (changed) {
        changed = false;
        meter.seq_read(edges.size() * sizeof(graph::DirectedEdge));
        meter.near_read(sizeof(std::uint32_t), 2 * edges.size());
        for (const auto& e : edges) {
          if (level_[e.src] != kNoLevel && level_[e.dst] > level_[e.src] + 1) {
            level_[e.dst] = level_[e.src] + 1;
            changed = true;
          }
        }
      }
    }
  } else {
    std::vector<graph::NodeId> frontier;
    for (graph::NodeId root = 0; root < n; ++root) {
      if (level_[root] != kNoLevel) continue;
      level_[root] = 0;
      frontier.assign(1, root);
      std::uint32_t l = 0;
      while (!frontier.empty()) {
        std::vector<graph::NodeId> next;
        for (const graph::NodeId v : frontier) {
          meter.seq_read(sizeof(std::uint64_t));
          for (const auto& entry : g.out_csr().neighbors(v)) {
            meter.seq_read(sizeof(entry));
            meter.rand_read(sizeof(std::uint32_t));
            if (level_[entry.node] == kNoLevel) {
              level_[entry.node] = l + 1;
              next.push_back(entry.node);
            }
          }
        }
        frontier.swap(next);
        ++l;
      }
    }
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    if (level_[v] > max_level_ && level_[v] != kNoLevel) {
      max_level_ = level_[v];
    }
  }
}

}  // namespace credo::bp::runtime
