// Internal factory hooks and helpers shared by the engine translation
// units. Not part of the public API — include bp/engine.h instead.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bp/engine.h"
#include "graph/belief.h"
#include "graph/belief_kernels.h"
#include "graph/csr.h"
#include "graph/factor_graph.h"
#include "parallel/thread_pool.h"
#include "perf/cost_model.h"
#include "perf/profiles.h"
#include "util/timer.h"

namespace credo::bp::internal {

std::unique_ptr<Engine> make_cpu_node(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_cpu_edge(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_omp_node(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_omp_edge(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_cuda_node(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_cuda_edge(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_acc_edge(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_tree(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_residual(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_bulk_residual(const perf::HardwareProfile& p);
std::unique_ptr<Engine> make_sharded(const perf::HardwareProfile& p);

// ---------------------------------------------------------------------------
// Team set-up and result finalization, shared by every CPU engine.
// ---------------------------------------------------------------------------

/// Per-worker metering sinks, cache-line padded so the bookkeeping itself
/// does not contend. Folded into the run's counters by finish().
struct alignas(64) WorkerSink {
  perf::Counters counters;
};

/// The modelled profile of the run's team: opts.threads workers (the §2.4
/// sweep runs 2/4/8 threads; 0 keeps the profile's own width), at most
/// `max_team`. The engine's profile is kept when the team matches it.
inline perf::HardwareProfile effective_profile(
    const perf::HardwareProfile& profile, const BpOptions& opts,
    unsigned max_team = ~0u) {
  const unsigned requested =
      opts.threads != 0 ? opts.threads
                        : static_cast<unsigned>(profile.parallel_units);
  const unsigned team = std::max(1u, std::min(requested, max_team));
  if (static_cast<int>(team) == profile.parallel_units) return profile;
  return perf::cpu_i7_7700hq_parallel(static_cast<int>(team));
}

/// Picks the team for `prof`: the caller-provided shared pool (serve
/// layer, DESIGN.md §5c) when its size matches, else a run-local pool in
/// `local`. The shared pool supports one dispatcher at a time — callers
/// serialize access around run().
inline parallel::ThreadPool& select_pool(
    const BpOptions& opts, const perf::HardwareProfile& prof,
    std::optional<parallel::ThreadPool>& local) {
  const auto team = static_cast<unsigned>(prof.parallel_units);
  if (opts.shared_pool && opts.shared_pool->size() == team) {
    return *opts.shared_pool;
  }
  local.emplace(team);
  return *local;
}

/// Telemetry view of "counters so far": the main counters plus every
/// worker sink, folded the same way finish() folds them at the end.
inline perf::TimeBreakdown snapshot_time(const perf::Counters& main,
                                         std::span<const WorkerSink> sinks,
                                         const perf::HardwareProfile& p) {
  perf::Counters total = main;
  for (const auto& s : sinks) total.add(s.counters);
  return perf::model_time(total, p);
}

/// Folds the worker sinks into the run's counters, then stamps the
/// modelled time on `p` and the host time since `timer` started.
inline void finish(BpResult& r, const util::Timer& timer,
                   const perf::HardwareProfile& p,
                   std::span<const WorkerSink> sinks = {}) {
  for (const auto& s : sinks) r.stats.counters.add(s.counters);
  r.stats.time = perf::model_time(r.stats.counters, p);
  r.stats.host_seconds = timer.seconds();
}

/// Messages are clamped away from zero before entering log space so a
/// contradicting observation cannot produce -inf accumulators.
inline constexpr float kMsgFloor = 1e-30f;

/// log of a clamped message entry.
inline float log_msg(float v) noexcept {
  return std::log(v < kMsgFloor ? kMsgFloor : v);
}

/// Numerically stable exp-normalization of a log-space accumulator into a
/// belief vector. Returns flops performed.
inline std::uint32_t softmax(const float* log_acc, std::uint32_t n,
                             graph::BeliefVec& out) noexcept {
  out.size = n;
  float maxv = log_acc[0];
  for (std::uint32_t i = 1; i < n; ++i) {
    if (log_acc[i] > maxv) maxv = log_acc[i];
  }
  float sum = 0.0f;
  for (std::uint32_t i = 0; i < n; ++i) {
    out.v[i] = std::exp(log_acc[i] - maxv);
    sum += out.v[i];
  }
  const float inv = 1.0f / sum;
  for (std::uint32_t i = 0; i < n; ++i) out.v[i] *= inv;
  return 4 * n;
}

/// Flop cost of one message computation (matvec + normalize), matching
/// graph::compute_message.
inline std::uint64_t message_flops(std::uint32_t rows,
                                   std::uint32_t cols) noexcept {
  return 2ull * rows * cols + 2ull * cols;
}

/// Charges the cost of loading the joint matrix for edge `e`. The shared
/// matrix (§2.2) lives in constant memory / stays cache-resident and is
/// charged per-element constant-cache reads; per-edge matrices are
/// scattered global loads — the §2.2 bottleneck.
inline void charge_joint_load(perf::Meter& meter,
                              const graph::JointStore& joints,
                              graph::EdgeId e) {
  const auto& m = joints.at(e);
  if (joints.is_shared()) {
    meter.const_op(static_cast<std::uint64_t>(m.rows) * m.cols);
  } else {
    meter.rand_read(m.payload_bytes());
  }
}

/// Bytes actually touched when loading/storing a belief vector (live floats
/// plus the dimension field).
inline std::uint64_t belief_bytes(std::uint32_t arity) noexcept {
  return 4ull * arity + 4ull;
}

/// Scratch for one kEdgeBlock-wide pass through the batched message kernel:
/// gathered source-belief and joint-matrix pointers plus the message
/// outputs. ~2.5 KiB, L1-resident; hoist one instance per worker.
struct EdgeBlockScratch {
  std::array<const graph::BeliefVec*, graph::kEdgeBlock> srcs;
  std::array<const graph::JointMatrix*, graph::kEdgeBlock> mats;
  std::array<graph::BeliefVec, graph::kEdgeBlock> msgs;
};

/// Runs the batched message kernel over the first `count` gathered edges,
/// picking the shared-matrix form (§2.2 amortization) when the store is
/// shared. Returns flops performed.
inline std::uint64_t compute_block(const graph::JointStore& joints,
                                   EdgeBlockScratch& s,
                                   std::size_t count) noexcept {
  return joints.is_shared()
             ? graph::compute_messages_batched(joints.shared_matrix(),
                                               s.srcs.data(), s.msgs.data(),
                                               count)
             : graph::compute_messages_batched(s.mats.data(), s.srcs.data(),
                                               s.msgs.data(), count);
}

/// Node-paradigm pull: walks v's in-edges in kEdgeBlock blocks through the
/// batched message kernel and combines in CSR order — bit-identical to the
/// per-edge path, with the joint-matrix loads amortized per block. Metering
/// matches the per-edge form event for event, except that parents for which
/// `near_pred(node)` holds are charged as near (cache-resident) reads — the
/// sharded engine passes its per-shard cache-residency verdict, so a shard
/// whose working set fits the cache does not pay DRAM per parent touch.
template <typename NearPred>
inline void pull_parents_blocked(std::span<const graph::Csr::Entry> nbrs,
                                 const std::vector<graph::BeliefVec>& beliefs,
                                 const graph::JointStore& joints,
                                 perf::Meter& meter, EdgeBlockScratch& s,
                                 graph::BeliefVec& acc, NearPred near_pred) {
  const bool shared = joints.is_shared();
  for (std::size_t base = 0; base < nbrs.size();
       base += graph::kEdgeBlock) {
    const std::size_t count =
        std::min(graph::kEdgeBlock, nbrs.size() - base);
    for (std::size_t k = 0; k < count; ++k) {
      const auto& entry = nbrs[base + k];
      meter.seq_read(sizeof(entry));  // adjacency index walk
      const graph::BeliefVec& parent = beliefs[entry.node];
      if (near_pred(entry.node)) {
        meter.near_read(belief_bytes(parent.size));
      } else {
        meter.rand_read(belief_bytes(parent.size));
      }
      charge_joint_load(meter, joints, entry.edge);
      s.srcs[k] = &parent;
      if (!shared) s.mats[k] = &joints.at(entry.edge);
    }
    meter.flop(compute_block(joints, s, count));
    for (std::size_t k = 0; k < count; ++k) {
      meter.flop(graph::combine(acc, s.msgs[k]));
    }
  }
}

}  // namespace credo::bp::internal
