// Sharded BP execution (DESIGN.md §5i).
//
// The graph is cut into contiguous-range shards (graph/partition.h); each
// shard owns a sub-CSR over local node ids plus read-only ghost slots for
// its off-shard parents, and runs its own frontier schedule against purely
// shard-local belief state. Boundary beliefs move through the
// double-buffered GhostExchange at the BpOptions::shard_exchange_every
// cadence, and a park/wake coordinator aggregates per-shard quiescence
// into the global stopping rule: a shard whose frontier drains parks, and
// a changed neighbor publish wakes exactly the shards that read it.
//
// Why this beats the single-team engines on graphs that exceed the LLC:
// the §2.4 engines update nodes in an order that scatters belief reads
// across the whole array, so every parent touch is a DRAM miss
// (rand_latency, which does NOT scale with the team). A shard whose
// working set — owned plus ghost beliefs — fits its slice of the LLC
// keeps every parent touch cache-resident (near_latency, ~10x cheaper in
// the model), at the price of the exchange term: ghost traffic charged at
// shard_bw plus a per-exchange latency. The cost model's exchange_s term
// is what bends the speedup curve back down past the shard-count sweet
// spot the §5i bench sweeps for.
//
// Concurrency: shards are multiplexed over one fork/join team. A claim
// loop hands each worker an idle shard; at most one worker ever acts as a
// given shard, so all shard-local state is single-writer. Cross-shard
// reads happen only inside GhostExchange under its per-outbox rwlock —
// unlike the §2.4/§5f engines there are NO chaotic belief reads. Team
// size still shifts the answer within tolerance (when a shard imports
// relative to a neighbor's publish is schedule-dependent), but every read
// sees a complete epoch, and one-worker runs are bit-reproducible.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/family_kernels.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/ghost.h"
#include "bp/runtime/init.h"
#include "bp/runtime/observe.h"
#include "bp/runtime/stop.h"
#include "graph/partition.h"
#include "parallel/thread_pool.h"
#include "perf/cost_model.h"
#include "util/error.h"
#include "util/timer.h"

namespace credo::bp::internal {
namespace {

using graph::BeliefVec;
using graph::Csr;
using graph::FactorGraph;
using graph::NodeId;
using parallel::ThreadPool;

/// Everything one shard owns. Single-writer: only the worker currently
/// claiming the shard touches it (coordinator fields excepted — those are
/// guarded by the coordinator mutex).
struct ShardState {
  NodeId begin = 0;   // global id of local node 0
  NodeId owned = 0;   // owned nodes; ghosts follow at [owned, owned+ghosts)

  /// Local beliefs, owned-first then ghost slots.
  std::vector<BeliefVec> beliefs;

  /// In-adjacency over local ids. Entry::node is the parent's LOCAL id
  /// (owned or ghost slot); Entry::edge stays the GLOBAL edge id so the
  /// joint store and its metering are untouched.
  std::vector<std::uint64_t> in_off;
  std::vector<Csr::Entry> in_ent;

  /// Owned -> owned children (local ids) for frontier propagation.
  std::vector<std::uint64_t> out_off;
  std::vector<NodeId> out_ent;

  /// Ghost slot -> owned children (local ids): the nodes a changed ghost
  /// re-activates. Indexed by ghost slot (0-based, not offset by `owned`).
  std::vector<std::uint64_t> gout_off;
  std::vector<NodeId> gout_ent;

  /// Owned nodes an update can ever change (unobserved, in-degree > 0),
  /// as local ids — the dense sweep's iteration space.
  std::vector<NodeId> eligible;

  /// Stamp-deduplicated frontier (work-queue mode). stamp[v] == id of the
  /// queue v currently sits in; ids strictly increase so no clearing.
  std::vector<NodeId> queue, next;
  std::vector<std::uint32_t> stamp;
  std::uint32_t queue_id = 0, next_id = 0;

  /// Dense mode: whether the last full sweep still moved the local sum
  /// above this shard's share of the global threshold.
  bool dense_active = true;

  /// Whether this shard's working set fits its slice of the LLC — decides
  /// near vs scattered charging for every local belief touch.
  bool near = false;

  std::uint32_t sweeps = 0;          // local sweeps run (per-shard iterations)
  std::uint64_t updates = 0;         // node updates performed
  double last_delta = 0.0;           // L1 sum of the most recent sweep
  double unpublished_delta = 0.0;    // L1 moved since the last publish
  std::vector<NodeId> changed_ghosts;  // import scratch
};

/// Coordinator states. kIdle shards are claimable; kParked shards wait
/// for a ghost wake; kCapped shards hit their sweep budget WITH runnable
/// work remaining and stay down (the run then reports converged=false,
/// like hitting the cap). A shard whose frontier drains on exactly its
/// last budgeted sweep parks instead — quiescent at the cap is still
/// converged, matching the single-team drivers.
enum class ShardPhase : std::uint8_t { kIdle, kRunning, kParked, kCapped };

class ShardedEngine final : public Engine {
 public:
  explicit ShardedEngine(perf::HardwareProfile profile)
      : profile_(std::move(profile)) {
    CREDO_CHECK_MSG(profile_.kind == perf::PlatformKind::kCpuParallel,
                    "sharded engine requires a CPU-parallel profile");
  }

  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::kSharded;
  }

  [[nodiscard]] const perf::HardwareProfile& hardware()
      const noexcept override {
    return profile_;
  }

 protected:
  [[nodiscard]] BpResult do_run(const FactorGraph& g,
                                const BpOptions& opts) const override;

 private:
  perf::HardwareProfile profile_;
};

/// Builds shard-local structure from the partition: local beliefs (owned
/// slice + ghost slots), local in/out adjacency, and the eligible set.
ShardState build_shard(const FactorGraph& g, const graph::Partition& part,
                       std::uint32_t s,
                       const std::vector<BeliefVec>& init) {
  const graph::Shard& sh = part.shard(s);
  ShardState st;
  st.begin = sh.begin;
  st.owned = sh.num_nodes();

  // Ghost slot of global parent id, via the sorted ghost list.
  const auto ghost_slot = [&sh](NodeId global) {
    const auto it =
        std::lower_bound(sh.ghosts.begin(), sh.ghosts.end(), global);
    return static_cast<NodeId>(it - sh.ghosts.begin());
  };
  const auto to_local = [&](NodeId global) {
    return global >= sh.begin && global < sh.end
               ? global - sh.begin
               : st.owned + ghost_slot(global);
  };

  st.beliefs.resize(st.owned + sh.ghosts.size());
  for (NodeId v = 0; v < st.owned; ++v) st.beliefs[v] = init[sh.begin + v];
  for (std::size_t k = 0; k < sh.ghosts.size(); ++k) {
    st.beliefs[st.owned + k] = init[sh.ghosts[k]];
  }

  // Frontier wake targets: only children an update can change. Observed
  // children must never enter the schedule — updating one would overwrite
  // its fixed point-mass (§3.3; the dense path is safe because it sweeps
  // the eligible set only).
  const auto wakeable = [&](NodeId global_child) {
    return global_child >= sh.begin && global_child < sh.end &&
           !g.observed(global_child);
  };

  st.in_off.resize(st.owned + 1, 0);
  st.out_off.resize(st.owned + 1, 0);
  for (NodeId v = 0; v < st.owned; ++v) {
    const NodeId global = sh.begin + v;
    st.in_off[v + 1] = st.in_off[v] + g.in_csr().degree(global);
    std::uint64_t local_children = 0;
    for (const Csr::Entry& e : g.out_csr().neighbors(global)) {
      if (wakeable(e.node)) ++local_children;
    }
    st.out_off[v + 1] = st.out_off[v] + local_children;
  }
  st.in_ent.resize(st.in_off[st.owned]);
  st.out_ent.resize(st.out_off[st.owned]);
  for (NodeId v = 0; v < st.owned; ++v) {
    const NodeId global = sh.begin + v;
    std::uint64_t i = st.in_off[v];
    for (const Csr::Entry& e : g.in_csr().neighbors(global)) {
      st.in_ent[i++] = Csr::Entry{to_local(e.node), e.edge};
    }
    std::uint64_t o = st.out_off[v];
    for (const Csr::Entry& e : g.out_csr().neighbors(global)) {
      if (wakeable(e.node)) st.out_ent[o++] = e.node - sh.begin;
    }
    if (!g.observed(global) && g.in_csr().degree(global) > 0) {
      st.eligible.push_back(v);
    }
  }

  st.gout_off.resize(sh.ghosts.size() + 1, 0);
  for (std::size_t k = 0; k < sh.ghosts.size(); ++k) {
    std::uint64_t local_children = 0;
    for (const Csr::Entry& e : g.out_csr().neighbors(sh.ghosts[k])) {
      if (wakeable(e.node)) ++local_children;
    }
    st.gout_off[k + 1] = st.gout_off[k] + local_children;
  }
  st.gout_ent.resize(st.gout_off[sh.ghosts.size()]);
  for (std::size_t k = 0; k < sh.ghosts.size(); ++k) {
    std::uint64_t o = st.gout_off[k];
    for (const Csr::Entry& e : g.out_csr().neighbors(sh.ghosts[k])) {
      if (wakeable(e.node)) st.gout_ent[o++] = e.node - sh.begin;
    }
  }

  st.stamp.assign(st.owned, 0);
  return st;
}

/// Pushes `v` into (`vec`, `id`) unless already stamped into it.
inline void frontier_push(ShardState& st, std::vector<NodeId>& vec,
                          std::uint32_t id, NodeId v) {
  if (st.stamp[v] != id) {
    st.stamp[v] = id;
    vec.push_back(v);
  }
}

BpResult ShardedEngine::do_run(const FactorGraph& g,
                               const BpOptions& opts) const {
  const util::Timer timer;
  BpResult r;
  r.beliefs = runtime::initial_state(g, opts);
  const NodeId n = g.num_nodes();
  if (n == 0) {
    r.stats.converged = true;
    finish(r, timer, profile_);
    return r;
  }

  const graph::Partition part = graph::Partition::contiguous(
      g, static_cast<std::uint32_t>(opts.shard_count));
  const std::uint32_t s_count = part.shard_count();

  // Team: one worker per shard at most; the modelled profile follows the
  // effective team the same way the other CPU-parallel engines do.
  const perf::HardwareProfile prof = effective_profile(profile_, opts, s_count);
  std::optional<ThreadPool> local_pool;
  ThreadPool& pool = select_pool(opts, prof, local_pool);
  const unsigned team = pool.size();
  std::vector<WorkerSink> sinks(team);

  const runtime::ConvergenceController ctl(
      opts, runtime::ConvergenceController::Cadence::kEveryIteration);
  const bool seeded = opts.frontier_seed != nullptr;
  // Seeded runs always use the frontier schedule (a dense sweep would
  // defeat the point of the seed); cold runs honor work_queue.
  const bool queue_mode = opts.work_queue || seeded;

  // Build shard-local state. The build itself is setup (like graph
  // construction), not metered kernel work.
  std::vector<ShardState> shards;
  shards.reserve(s_count);
  for (std::uint32_t s = 0; s < s_count; ++s) {
    shards.push_back(build_shard(g, part, s, r.beliefs));
  }

  // Cache-residency decision (the near-charging lever): a shard whose
  // owned+ghost beliefs fit its slice of the LLC keeps every local parent
  // touch cache-resident across the round's sweeps. The credit only
  // applies when the WHOLE graph exceeds the LLC — on a graph that fits
  // outright a single team is just as cache-resident, so sharding changes
  // nothing and charging near here would manufacture a fake speedup. This
  // is what bends the §5i bench both ways: small graphs see pure exchange
  // overhead (honest negative), large graphs see the miss-to-hit flip
  // once the shard count pushes each slice under the cache.
  if (prof.llc_bytes > 0) {
    std::uint64_t total_ws = 0;
    for (NodeId v = 0; v < n; ++v) total_ws += belief_bytes(g.arity(v));
    if (total_ws > prof.llc_bytes) {
      const double slice = prof.llc_bytes / static_cast<double>(team);
      for (ShardState& st : shards) {
        std::uint64_t ws = 0;
        for (const BeliefVec& b : st.beliefs) ws += belief_bytes(b.size);
        st.near = static_cast<double>(ws) <= slice;
      }
    }
  }

  // Initial frontiers.
  for (ShardState& st : shards) {
    st.queue_id = 1;
    st.next_id = 2;
    if (!queue_mode) continue;
    if (!seeded) {
      for (const NodeId v : st.eligible) {
        frontier_push(st, st.queue, st.queue_id, v);
      }
    }
  }
  if (seeded) {
    for (const NodeId global : *opts.frontier_seed) {
      const std::uint32_t s = part.owner(global);
      ShardState& st = shards[s];
      frontier_push(st, st.queue, st.queue_id, global - st.begin);
    }
  }

  runtime::GhostExchange exchange(part);

  // Park/wake coordinator. `phase`, `pending_wake` and the counters are
  // guarded by `mu`; `done`/`abort` are checked both under and outside it
  // (atomics) so spinning claimers exit promptly.
  std::mutex mu;
  std::vector<ShardPhase> phase(s_count, ShardPhase::kIdle);
  std::vector<std::uint8_t> pending_wake(s_count, 0);
  std::uint32_t cursor = 0;
  std::uint64_t parks = 0, wakes = 0;
  std::atomic<bool> done{false};
  std::atomic<bool> abort{false};
  std::atomic<std::uint8_t> stop_reason{
      static_cast<std::uint8_t>(runtime::StopReason::kNone)};
  const runtime::DeadlineGuard guard(opts.stop, opts.host_deadline_seconds,
                                     opts.modelled_deadline_seconds);

  // Modelled-deadline snapshot, called from worker `w` while the rest of
  // the team is still metering. Reading the other workers' non-atomic
  // sinks here would be a data race, so approximate: the poller's own
  // sink scaled to the team (the claim loop keeps workers balanced) plus
  // the main counters, all of which only this thread touches.
  const auto poller_time = [&](unsigned w) {
    perf::Counters total = r.stats.counters;
    for (unsigned i = 0; i < team; ++i) total.add(sinks[w].counters);
    return perf::model_time(total, prof);
  };

  // Dense mode parking bar: shard s parks when its local sweep sum drops
  // below its share of the global absolute threshold, so the sum over all
  // parked shards sits below the single-team stopping rule's bar.
  const auto dense_bar = [&](const ShardState& st) {
    return static_cast<double>(opts.convergence_threshold) *
           static_cast<double>(st.owned) / static_cast<double>(n);
  };

  // One round of shard `s` on worker `w`: import fresh ghosts, run up to
  // shard_exchange_every local sweeps, publish if anything moved. Returns
  // true when the shard still has runnable work after the round; the
  // caller weighs that against the sweep budget.
  const auto run_round = [&](std::uint32_t s, unsigned w) -> bool {
    ShardState& st = shards[s];
    perf::Meter meter(sinks[w].counters);
    thread_local EdgeBlockScratch scratch;
    thread_local BeliefVec prev;
    const bool near = st.near;
    const auto near_pred = [near](NodeId) noexcept { return near; };

    // Import: changed ghost slots re-activate their owned children.
    st.changed_ghosts.clear();
    exchange.import(s, st.beliefs, opts.queue_threshold, st.changed_ghosts,
                    meter);
    if (!st.changed_ghosts.empty()) {
      if (queue_mode) {
        for (const NodeId gl : st.changed_ghosts) {
          const std::uint64_t k = gl - st.owned;  // ghost slot
          for (std::uint64_t i = st.gout_off[k]; i < st.gout_off[k + 1];
               ++i) {
            frontier_push(st, st.queue, st.queue_id, st.gout_ent[i]);
          }
        }
      } else {
        st.dense_active = true;
      }
    }

    std::uint64_t round_updates = 0;
    double round_delta = 0.0;
    for (std::uint32_t sweep = 0; sweep < opts.shard_exchange_every;
         ++sweep) {
      if (st.sweeps >= opts.max_iterations) break;
      const bool have_work =
          queue_mode ? !st.queue.empty() : st.dense_active;
      if (!have_work) break;
      ++st.sweeps;
      double delta_sum = 0.0;

      const std::span<const NodeId> work =
          queue_mode ? std::span<const NodeId>(st.queue)
                     : std::span<const NodeId>(st.eligible);
      runtime::observe_iteration(work.size(), /*checked=*/true);
      for (const NodeId v : work) {
        // The tabular node update against shard-local state: a
        // cache-resident shard's belief touches are near accesses.
        const float d = tabular_update(
            std::span<const Csr::Entry>(st.in_ent.data() + st.in_off[v],
                                        st.in_ent.data() + st.in_off[v + 1]),
            st.beliefs, v, g.joints(), ctl, meter, scratch, prev, near_pred);
        delta_sum += d;
        ++round_updates;
        if (queue_mode && ctl.element_active(d)) {
          frontier_push(st, st.next, st.next_id, v);
          for (std::uint64_t i = st.out_off[v]; i < st.out_off[v + 1];
               ++i) {
            frontier_push(st, st.next, st.next_id, st.out_ent[i]);
          }
        }
      }
      st.last_delta = delta_sum;
      round_delta += delta_sum;
      if (queue_mode) {
        st.queue.swap(st.next);
        st.next.clear();
        st.queue_id = st.next_id;
        st.next_id += 1;
        // The global stopping rule, distributed: nodes outside the
        // frontier have stable inputs, so this sweep's delta_sum IS the
        // shard's whole-state movement. Below the shard's share of the
        // absolute threshold the shard is converged even when a
        // noise-floor queue bar keeps individual residuals alive — drain
        // the frontier and park (a ghost wake re-activates as usual).
        // Drained nodes still carry queue_id stamps, so retire that id
        // too: a later ghost wake pushes into (queue, queue_id), and a
        // stale stamp would silently swallow the wake.
        if (delta_sum < dense_bar(st)) {
          st.queue.clear();
          st.queue_id = st.next_id;
          st.next_id += 1;
        }
      } else {
        st.dense_active = delta_sum >= dense_bar(st);
      }
    }
    st.updates += round_updates;

    // Publish once local state has moved the shard's share of the
    // stopping threshold since the last publish; a changed publish wakes
    // every parked reader. Smaller moves are converged by the distributed
    // stopping rule and accumulate until they cross the share. Publishing
    // them would let two border nodes that flip by one float ulp (above a
    // 1e-7 queue bar near 1.0) wake each other's shards up to the cap.
    st.unpublished_delta += round_delta;
    if (round_updates > 0 && st.unpublished_delta >= dense_bar(st) &&
        exchange.publish(s, st.beliefs, opts.queue_threshold, meter)) {
      st.unpublished_delta = 0.0;
      const std::lock_guard<std::mutex> lk(mu);
      for (const std::uint32_t reader : exchange.readers(s)) {
        if (phase[reader] == ShardPhase::kParked) {
          phase[reader] = ShardPhase::kIdle;
          ++wakes;
        } else {
          pending_wake[reader] = 1;
        }
      }
    }
    return queue_mode ? !st.queue.empty() : st.dense_active;
  };

  // The claim loop: one fork/join region for the whole run.
  perf::Meter main_meter(r.stats.counters);
  main_meter.parallel_region();

  pool.run_team([&](unsigned w) {
    for (;;) {
      if (done.load(std::memory_order_relaxed) ||
          abort.load(std::memory_order_relaxed)) {
        return;
      }
      std::uint32_t claimed = s_count;  // sentinel: nothing claimable
      bool all_quiescent = true;
      {
        const std::lock_guard<std::mutex> lk(mu);
        for (std::uint32_t probe = 0; probe < s_count; ++probe) {
          const std::uint32_t s = (cursor + probe) % s_count;
          if (phase[s] == ShardPhase::kIdle) {
            claimed = s;
            cursor = s + 1;
            phase[s] = ShardPhase::kRunning;
            break;
          }
          if (phase[s] == ShardPhase::kRunning) all_quiescent = false;
        }
        if (claimed == s_count && all_quiescent) {
          done.store(true, std::memory_order_relaxed);
          return;
        }
      }
      if (claimed == s_count) {
        std::this_thread::yield();
        continue;
      }

      const bool has_work = run_round(claimed, w);

      {
        const std::lock_guard<std::mutex> lk(mu);
        ShardState& st = shards[claimed];
        if (has_work && st.sweeps >= opts.max_iterations) {
          // Budget exhausted with work still queued: capped, unconverged.
          phase[claimed] = ShardPhase::kCapped;
        } else if (has_work || pending_wake[claimed]) {
          pending_wake[claimed] = 0;
          phase[claimed] = ShardPhase::kIdle;
        } else {
          // Locally quiescent and no publish arrived while running: park
          // until a ghost update re-activates the frontier. The pending
          // check above closes the park/publish race.
          phase[claimed] = ShardPhase::kParked;
          ++parks;
        }
      }

      if (guard.active()) {
        const runtime::StopReason why =
            guard.poll(/*at_check=*/true,
                       [&] { return poller_time(w).total(); });
        if (why != runtime::StopReason::kNone) {
          stop_reason.store(static_cast<std::uint8_t>(why),
                            std::memory_order_relaxed);
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  });

  // Gather results: owned slices back into the global belief array.
  std::vector<std::uint32_t> sweeps(s_count);
  std::uint32_t max_sweeps = 0;
  double final_delta = 0.0;
  std::uint64_t total_updates = 0;
  bool any_capped = false;
  for (std::uint32_t s = 0; s < s_count; ++s) {
    const ShardState& st = shards[s];
    for (NodeId v = 0; v < st.owned; ++v) {
      r.beliefs[st.begin + v] = st.beliefs[v];
    }
    sweeps[s] = st.sweeps;
    max_sweeps = std::max(max_sweeps, st.sweeps);
    final_delta += st.last_delta;
    total_updates += st.updates;
    if (phase[s] == ShardPhase::kCapped) any_capped = true;
  }

  const auto why = static_cast<runtime::StopReason>(
      stop_reason.load(std::memory_order_relaxed));
  const bool stopped = why != runtime::StopReason::kNone;
  if (stopped) r.stats.stop_reason = why;
  r.stats.iterations = std::max(1u, max_sweeps);
  r.stats.elements_processed = total_updates;
  r.stats.final_delta = final_delta;
  r.stats.converged = !stopped && !any_capped;

  finish(r, timer, prof, sinks);

  runtime::observe_shard_run(sweeps, r.stats.counters.shard_exchange_bytes,
                             parks, wakes);
  runtime::observe_run(r.stats.iterations, r.stats.converged);
  return r;
}

}  // namespace

std::unique_ptr<Engine> make_sharded(const perf::HardwareProfile& p) {
  return std::make_unique<ShardedEngine>(p);
}

}  // namespace credo::bp::internal
