// The simulated-device engines (§3.6, §2.4): CUDA Node, and one edge engine
// that runs CUDA Edge and the OpenACC-style offload.
//
// Faithful to the paper's CUDA design:
//  * 1024-thread blocks, one work item per thread;
//  * the shared joint matrix lives in constant memory, per-edge matrices in
//    global memory (§2.2 / §3.6);
//  * the convergence sum is a shared-memory tree reduction
//    (Device::reduce_sum) and its scalar is transferred only every
//    `convergence_batch` iterations (§2.4's batching, kept for CUDA);
//  * §3.5 work queues are device-resident index buffers repopulated through
//    an atomic cursor each iteration;
//  * all graph data is uploaded once up front — the allocation + transfer
//    cost that dominates small graphs (99.8% for the smallest benchmark,
//    §4.1.1) is metered by those calls.
//
// acc-edge is what §2.4 got from pragma-annotated offload after its tuning:
// CUDA Edge's dense sweep (work queues need "finer grained control than
// what OpenACC offers"), data resident after the initial load and the
// convergence scalar batched (the paper had to override the runtime's
// per-iteration transfers to get even this). The engine kind, not an
// option, picks its two other differences:
//  * no constant-memory placement: the shared matrix sits in global memory
//    and is charged as a scattered read per message;
//  * the runtime's generated reduction "fail[s] to precisely compute the
//    convergence check": each node's diff is floored (denormal diffs are
//    not accumulated exactly), which keeps the sum pinned above the
//    threshold on large graphs so runs end near the iteration cap.
// Its hardware profile (profiles.h: gpu_gtx1070_openacc) charges the
// runtime's higher launch overhead and lower achieved occupancy.
//
// Composition over the runtime layer (DESIGN.md §5b): the DeviceFrontier
// owns the double-buffered queue and its cursor readback (or sweeps
// densely), the batched controller owns the §3.6 check cadence, and the
// DeviceBackend owns launches and the deferred reduction.
#include <algorithm>
#include <vector>

#include "bp/engines_internal.h"
#include "bp/runtime/backend.h"
#include "bp/runtime/belief_state.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/device_schedule.h"
#include "bp/runtime/driver.h"
#include "gpusim/atomics.h"
#include "gpusim/device.h"
#include "graph/metadata.h"

namespace credo::bp::internal {
namespace {

using graph::BeliefVec;
using graph::DirectedEdge;
using graph::EdgeId;
using graph::FactorGraph;
using graph::JointMatrix;
using graph::NodeId;
using gpusim::ConstSpan;
using gpusim::Device;
using gpusim::DeviceBuffer;
using gpusim::ThreadCtx;

/// Contribution floor of OpenACC's imprecise runtime reduction.
constexpr float kReductionFloor = 1e-6f;

/// A CSR packed for transfer: per-node offsets plus the entries in order.
struct DeviceCsr {
  DeviceBuffer<std::uint64_t> offsets;
  DeviceBuffer<graph::Csr::Entry> entries;
};

/// Device-resident graph image shared by the engines.
struct DeviceGraph {
  DeviceBuffer<BeliefVec> beliefs;
  DeviceBuffer<BeliefVec> priors;
  DeviceBuffer<std::uint8_t> observed;
  DeviceCsr in_csr;   // CUDA Node's parent walk
  DeviceCsr out_csr;  // queued CUDA Edge's queue rebuild
  DeviceBuffer<DirectedEdge> edges;
  DeviceBuffer<JointMatrix> joints_global;  // per-edge, or OpenACC's shared
  ConstSpan<JointMatrix> joint_const;       // CUDA's shared matrix (§3.6)
  DeviceBuffer<float> diff;
  bool shared_joint = false;

  /// Loads the matrix for edge `e`, metering constant-cache or global
  /// traffic as placed.
  const JointMatrix& joint(ThreadCtx& ctx, EdgeId e) const {
    if (joint_const.size() != 0) {
      const JointMatrix& m = *joint_const.host_data();
      ctx.meter().const_op(static_cast<std::uint64_t>(m.rows) * m.cols);
      return m;
    }
    const JointMatrix& m = joints_global.cspan().host(shared_joint ? 0 : e);
    ctx.meter().rand_read(m.payload_bytes());
    return m;
  }
};

/// Packs `csr` for transfer and uploads it.
DeviceCsr upload_csr(Device& dev, const graph::Csr& csr) {
  const NodeId n = csr.num_nodes();
  std::vector<std::uint64_t> offsets(n + 1);
  std::vector<graph::Csr::Entry> entries;
  entries.reserve(csr.num_entries());
  offsets[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (const auto& e : csr.neighbors(v)) entries.push_back(e);
    offsets[v + 1] = entries.size();
  }
  DeviceCsr d;
  d.offsets = dev.alloc<std::uint64_t>(offsets.size());
  dev.h2d<std::uint64_t>(d.offsets, offsets);
  d.entries = dev.alloc<graph::Csr::Entry>(entries.size());
  dev.h2d<graph::Csr::Entry>(d.entries, entries);
  return d;
}

/// Uploads the graph (the one-time cudaMalloc/cudaMemcpy cost) as `kind`'s
/// kernels read it: CUDA Node walks the in-CSR, the edge kernels read the
/// directed edges, and `out_csr` adds the queued edge rebuild's out-CSR.
DeviceGraph upload(Device& dev, const FactorGraph& g, EngineKind kind,
                   bool out_csr = false) {
  DeviceGraph d;
  const NodeId n = g.num_nodes();
  const std::uint64_t m = g.num_edges();

  // Belief payloads are packed for transfer (live states + dimension, not
  // the padded host struct).
  std::uint64_t packed = 0;
  for (NodeId v = 0; v < n; ++v) packed += belief_bytes(g.arity(v));

  d.beliefs = dev.alloc<BeliefVec>(n);
  dev.h2d<BeliefVec>(d.beliefs, g.initial_beliefs(), packed);
  d.priors = dev.alloc<BeliefVec>(n);
  {
    std::vector<BeliefVec> priors(n);
    for (NodeId v = 0; v < n; ++v) priors[v] = g.prior(v);
    dev.h2d<BeliefVec>(d.priors, priors, packed);
  }
  d.observed = dev.alloc<std::uint8_t>(n);
  {
    std::vector<std::uint8_t> obs(n);
    for (NodeId v = 0; v < n; ++v) obs[v] = g.observed(v) ? 1 : 0;
    dev.h2d<std::uint8_t>(d.observed, obs);
  }
  if (kind == EngineKind::kCudaNode) {
    d.in_csr = upload_csr(dev, g.in_csr());
  } else {
    d.edges = dev.alloc<DirectedEdge>(m);
    dev.h2d<DirectedEdge>(d.edges, g.edges());
  }
  if (out_csr) d.out_csr = upload_csr(dev, g.out_csr());
  d.shared_joint = g.joints().is_shared();
  if (d.shared_joint && kind != EngineKind::kAccEdge) {
    const JointMatrix& jm = g.joints().shared_matrix();
    d.joint_const = dev.set_constant<JointMatrix>({&jm, 1});
  } else {
    // Per-edge matrices, or OpenACC's shared one: it has no constant-memory
    // placement.
    std::vector<JointMatrix> ms(d.shared_joint ? 1 : m);
    for (EdgeId e = 0; e < ms.size(); ++e) ms[e] = g.joints().at(e);
    d.joints_global = dev.alloc<JointMatrix>(ms.size());
    dev.h2d<JointMatrix>(d.joints_global, ms);
  }
  d.diff = dev.alloc<float>(n);
  return d;
}

/// SIMT warp divergence for the Node kernel: lanes of a 32-thread warp run
/// in lockstep, so every lane pays for the warp's deepest adjacency walk.
/// Returns the number of idle-lane message slots — the difference between
/// warp-time (32 x max degree per warp) and useful work (sum of degrees).
/// This is the §3.3/§4.1 cost that makes the Edge paradigm competitive on
/// hub-heavy (high-connectivity) graphs despite its atomics.
template <typename DegreeFn>
std::uint64_t warp_divergence_slots(std::uint64_t count, DegreeFn&& degree) {
  constexpr std::uint64_t kWarp = 32;
  std::uint64_t extra = 0;
  for (std::uint64_t base = 0; base < count; base += kWarp) {
    const std::uint64_t end = std::min(count, base + kWarp);
    std::uint64_t max_deg = 0;
    std::uint64_t sum_deg = 0;
    for (std::uint64_t i = base; i < end; ++i) {
      const std::uint64_t deg = degree(i);
      max_deg = std::max(max_deg, deg);
      sum_deg += deg;
    }
    extra += kWarp * max_deg - sum_deg;
  }
  return extra;
}

/// Copies final beliefs back into the run's packed state and fills in
/// the device's counters and modelled time.
void download(Device& dev, DeviceGraph& d, runtime::BeliefState& state,
              BpStats& stats) {
  std::vector<BeliefVec> beliefs(d.beliefs.size());
  dev.d2h<BeliefVec>(beliefs, d.beliefs);
  for (NodeId v = 0; v < beliefs.size(); ++v) state.store(v, beliefs[v]);
  stats.counters = dev.counters();
  stats.time = dev.modelled_time();
}

// ---------------------------------------------------------------------------
// CUDA Node
// ---------------------------------------------------------------------------

class CudaNodeEngine final : public Engine {
 public:
  using Engine::Engine;

 protected:
  [[nodiscard]] BpStats do_run(const FactorGraph& g, const BpOptions& opts,
                               runtime::BeliefState& state,
                               Frontier& /*frontier*/) const override {
    Device dev(hardware());
    DeviceGraph d = upload(dev, g, kind());
    const NodeId n = g.num_nodes();

    BpStats stats;
    const auto beliefs = d.beliefs.span();
    const auto observed = d.observed.cspan();
    const auto offsets = d.in_csr.offsets.cspan();
    const auto entries = d.in_csr.entries.cspan();
    const auto diff = d.diff.span();

    // Device-resident §3.5 frontier (double buffer + atomic cursor) seeded
    // with every unobserved node, or a dense sweep, and the §3.6 batched
    // check cadence.
    const auto unobserved = [&](std::uint64_t v) {
      return !g.observed(static_cast<NodeId>(v));
    };
    runtime::DeviceFrontier sched =
        opts.work_queue ? runtime::DeviceFrontier(dev, n, unobserved)
                        : runtime::DeviceFrontier(dev, n);
    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kBatched);
    runtime::DeviceBackend backend(dev, opts.block_threads);

    runtime::run_loop(
        opts, stats, ctl, sched,
        [&](std::uint32_t iter, runtime::IterationOutcome& out) {
          out.delta_valid = false;  // sum lives on-device until a check
          const std::uint64_t count = sched.size();
          const auto cur_q = sched.current(iter);
          const auto next_q = sched.next(iter);
          const auto cursor_span = sched.cursor();

          // A queued sweep leaves frozen nodes' diffs alone: clear them so
          // stale entries cannot feed the reduction.
          if (sched.queued()) {
            backend.launch(n, [&](ThreadCtx& ctx) {
              diff.store(ctx, ctx.global_id(), 0.0f);
            });
          }

          backend.launch(count, [&](ThreadCtx& ctx) {
            thread_local EdgeBlockScratch scratch;
            NodeId v;
            if (sched.queued()) {
              v = cur_q.load(ctx, ctx.global_id());
            } else {
              v = static_cast<NodeId>(ctx.global_id());
              if (observed.load(ctx, v) != 0) {
                diff.store(ctx, v, 0.0f);
                return;
              }
            }
            const bool scattered = sched.queued();
            const BeliefVec prev =
                scattered ? beliefs.load_scattered_bytes(
                                ctx, v, belief_bytes(g.arity(v)))
                          : beliefs.load_bytes(ctx, v,
                                               belief_bytes(g.arity(v)));
            BeliefVec acc = BeliefVec::ones(g.arity(v));
            const std::uint64_t lo = offsets.load(ctx, v);
            const std::uint64_t hi = offsets.load(ctx, v + 1);
            if (lo == hi) {  // no parents: belief keeps its value
              diff.store(ctx, v, 0.0f);
              return;
            }
            // Edge-blocked parent walk: gather a block of parents (the
            // §3.3 uncoalesced scattered loads, metered as before), run
            // the batched message kernel once per block, combine in CSR
            // order — identical math, amortized matrix walks.
            for (std::uint64_t base = lo; base < hi;
                 base += graph::kEdgeBlock) {
              const std::size_t bcount = std::min<std::uint64_t>(
                  graph::kEdgeBlock, hi - base);
              for (std::size_t k = 0; k < bcount; ++k) {
                const auto entry = entries.load(ctx, base + k);
                const BeliefVec& src = beliefs.load_scattered_bytes(
                    ctx, entry.node, belief_bytes(prev.size));
                scratch.srcs[k] = src.v.data();
                scratch.mats[k] = &d.joint(ctx, entry.edge);
              }
              ctx.flop(d.shared_joint
                           ? graph::compute_messages_batched(
                                 *scratch.mats[0], scratch.srcs.data(),
                                 scratch.msgs.data(), bcount)
                           : graph::compute_messages_batched(
                                 scratch.mats.data(), scratch.srcs.data(),
                                 scratch.msgs.data(), bcount));
              for (std::size_t k = 0; k < bcount; ++k) {
                ctx.flop(graph::combine(acc, scratch.msgs[k]));
              }
            }
            graph::normalize(acc);
            ctx.flop(2ull * acc.size);
            ctx.flop(ctl.damp(acc, prev));
            if (scattered) {
              beliefs.store_scattered_bytes(ctx, v, acc,
                                            belief_bytes(acc.size));
            } else {
              beliefs.store_bytes(ctx, v, acc, belief_bytes(acc.size));
            }
            const float dlt = graph::l1_diff(prev, acc);
            ctx.flop(2ull * acc.size);
            if (scattered) {
              diff.store_scattered(ctx, v, dlt);
            } else {
              diff.store(ctx, v, dlt);
            }
            if (sched.queued() && ctl.element_active(dlt)) {
              const std::uint32_t slot =
                  gpusim::atomic_add_u32(ctx, cursor_span, 0, 1);
              next_q.store(ctx, slot, v);
            }
          });
          out.processed = count;

          // Warp-divergence charge: idle lanes stall on the warp's deepest
          // walk; each idle message slot occupies a memory-latency slot.
          {
            const auto degree_of = [&](std::uint64_t i) -> std::uint64_t {
              NodeId v;
              if (sched.queued()) {
                v = sched.host_at(iter, i);
              } else {
                v = static_cast<NodeId>(i);
                if (g.observed(v)) return 0;
              }
              return g.in_csr().degree(v);
            };
            const std::uint64_t extra =
                warp_divergence_slots(count, degree_of);
            std::uint64_t max_deg = 0;
            for (std::uint64_t i = 0; i < count; ++i) {
              max_deg = std::max(max_deg, degree_of(i));
            }
            perf::Meter m(dev.mutable_counters());
            if (extra > 0) {
              m.rand_read(belief_bytes(g.arity(0)), extra);
            }
            // Hub critical path: the kernel cannot retire before its
            // deepest lane walks every parent (sector count x unhidden
            // latency / the lane's own MLP).
            if (max_deg > 0) {
              const std::uint64_t sectors =
                  (belief_bytes(g.arity(0)) + 31) / 32;
              m.serial_latency(max_deg * sectors);
            }
          }
        },
        // Batched convergence check (§3.6): shared-memory reduction + one
        // scalar transfer.
        [&] { return backend.reduce_to_host(d.diff, n); },
        [&] { return dev.modelled_time(); });
    download(dev, d, state, stats);
    return stats;
  }
};

// ---------------------------------------------------------------------------
// CUDA Edge and OpenACC Edge
// ---------------------------------------------------------------------------

class DeviceEdgeEngine final : public Engine {
 public:
  using Engine::Engine;

 protected:
  [[nodiscard]] BpStats do_run(const FactorGraph& g, const BpOptions& opts,
                               runtime::BeliefState& state,
                               Frontier& /*frontier*/) const override {
    // OpenACC gives no control fine enough for a work queue (§2.4).
    return opts.work_queue && kind() == EngineKind::kCudaEdge
               ? run_queued(g, opts, state)
               : run_dense(g, opts, state);
  }

 private:
  [[nodiscard]] BpStats run_dense(const FactorGraph& g, const BpOptions& opts,
                                  runtime::BeliefState& state) const {
    Device dev(hardware());
    DeviceGraph d = upload(dev, g, kind());
    const NodeId n = g.num_nodes();
    const std::uint64_t m = g.num_edges();
    const auto md = graph::compute_metadata(g);
    const std::uint32_t b = md.beliefs;

    auto acc_buf = dev.alloc<float>(static_cast<std::size_t>(n) * b);
    const auto acc = acc_buf.span();
    const auto beliefs = d.beliefs.span();
    const auto observed = d.observed.cspan();
    const auto edges = d.edges.cspan();
    const auto diff = d.diff.span();

    // OpenACC's imprecise runtime reduction: each node's contribution is
    // floored rather than accumulated exactly.
    const float diff_floor =
        kind() == EngineKind::kAccEdge ? kReductionFloor : 0.0f;

    BpStats stats;
    runtime::DeviceFrontier sched(dev, m);
    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kBatched);
    runtime::DeviceBackend backend(dev, opts.block_threads);

    runtime::run_loop(
        opts, stats, ctl, sched,
        [&](std::uint32_t, runtime::IterationOutcome& out) {
          out.delta_valid = false;

          // Kernel 1: reset accumulators to the multiplicative identity
          // (coalesced stores).
          backend.launch(n, [&](ThreadCtx& ctx) {
            const auto v = static_cast<NodeId>(ctx.global_id());
            const std::uint32_t arity = g.arity(v);
            for (std::uint32_t s = 0; s < arity; ++s) {
              acc.store(ctx, static_cast<std::size_t>(v) * b + s, 0.0f);
            }
          });

          // Kernel 2: one thread per directed edge. Sources stream (edges
          // are sorted by source); the combine is the atomic scattered
          // write.
          backend.launch(m, [&](ThreadCtx& ctx) {
            thread_local BeliefVec msg;
            const auto e = static_cast<EdgeId>(ctx.global_id());
            const DirectedEdge ed = edges.load(ctx, e);
            const BeliefVec src = beliefs.load_bytes(
                ctx, ed.src, belief_bytes(g.arity(ed.src)));
            const JointMatrix& jm = d.joint(ctx, e);
            ctx.flop(graph::compute_message(src, jm, msg));
            for (std::uint32_t s = 0; s < msg.size; ++s) {
              gpusim::atomic_add(
                  ctx, acc, static_cast<std::size_t>(ed.dst) * b + s,
                  log_msg(msg.v[s]));
            }
            ctx.flop(2ull * msg.size);
          });
          out.processed = m;
          perf::Meter(dev.mutable_counters()).atomic(0, md.max_in_degree);

          // Kernel 3: marginalize + per-node diff (coalesced).
          backend.launch(n, [&](ThreadCtx& ctx) {
            const auto v = static_cast<NodeId>(ctx.global_id());
            if (observed.load(ctx, v) != 0 || g.in_csr().degree(v) == 0) {
              diff.store(ctx, v, 0.0f);
              return;
            }
            const std::uint32_t arity = g.arity(v);
            float local[graph::kMaxStates];
            for (std::uint32_t s = 0; s < arity; ++s) {
              local[s] =
                  acc.load(ctx, static_cast<std::size_t>(v) * b + s);
            }
            BeliefVec nb;
            nb.size = arity;
            ctx.flop(softmax(local, arity, nb.v.data()));
            const BeliefVec prev =
                beliefs.load_bytes(ctx, v, belief_bytes(arity));
            ctx.flop(ctl.damp(nb, prev));
            float dlt = graph::l1_diff(prev, nb);
            ctx.flop(2ull * arity);
            if (dlt < diff_floor) dlt = diff_floor;
            beliefs.store_bytes(ctx, v, nb, belief_bytes(arity));
            diff.store(ctx, v, dlt);
          });
        },
        [&] { return backend.reduce_to_host(d.diff, n); },
        [&] { return dev.modelled_time(); });
    download(dev, d, state, stats);
    return stats;
  }

  [[nodiscard]] BpStats run_queued(const FactorGraph& g,
                                   const BpOptions& opts,
                                   runtime::BeliefState& state) const {
    Device dev(hardware());
    // The out-CSR rebuilds the queue (changed node -> its out edges).
    DeviceGraph d = upload(dev, g, kind(), /*out_csr=*/true);
    const NodeId n = g.num_nodes();
    const std::uint64_t m = g.num_edges();
    const auto md = graph::compute_metadata(g);
    const std::uint32_t b = md.beliefs;

    auto acc_buf = dev.alloc<float>(static_cast<std::size_t>(n) * b);
    auto cache_buf = dev.alloc<float>(m * b);
    auto dirty_buf = dev.alloc<std::uint8_t>(n);
    // Device-resident §3.5 edge frontier: double buffer + cursor, seeded
    // with every edge into an unobserved node.
    runtime::DeviceFrontier sched(dev, m, [&](std::uint64_t e) {
      return !g.observed(g.edge(e).dst);
    });

    // Initial accumulators: acc = 0 = log(1) (Algorithm 1 combines updates
    // only; priors seed the initial beliefs), cache = 0 (identity
    // messages).
    {
      std::vector<float> acc0(static_cast<std::size_t>(n) * b, 0.0f);
      dev.h2d<float>(acc_buf, acc0);
    }

    const auto acc = acc_buf.span();
    const auto cache = cache_buf.span();
    const auto dirty = dirty_buf.span();
    const auto beliefs = d.beliefs.span();
    const auto observed = d.observed.cspan();
    const auto edges = d.edges.cspan();
    const auto diff = d.diff.span();
    const auto ooffs = d.out_csr.offsets.cspan();
    const auto oents = d.out_csr.entries.cspan();

    BpStats stats;
    const runtime::ConvergenceController ctl(
        opts, runtime::ConvergenceController::Cadence::kBatched);
    runtime::DeviceBackend backend(dev, opts.block_threads);

    runtime::run_loop(
        opts, stats, ctl, sched,
        [&](std::uint32_t iter, runtime::IterationOutcome& out) {
          out.delta_valid = false;
          const std::uint64_t queued = sched.size();
          const auto cur_q = sched.current(iter);
          const auto next_q = sched.next(iter);
          const auto cursor_span = sched.cursor();

          // Kernel 1: replay queued edges with incremental combines.
          backend.launch(queued, [&](ThreadCtx& ctx) {
            thread_local BeliefVec msg;
            // Queue entries come out in ascending edge-id order (rebuilt
            // node-by-node over source-sorted edges), so edge structs,
            // source beliefs and the message cache coalesce.
            const EdgeId e =
                static_cast<EdgeId>(cur_q.load(ctx, ctx.global_id()));
            const DirectedEdge ed = edges.load(ctx, e);
            const BeliefVec src = beliefs.load_bytes(
                ctx, ed.src, belief_bytes(g.arity(ed.src)));
            const JointMatrix& jm = d.joint(ctx, e);
            ctx.flop(graph::compute_message(src, jm, msg));
            for (std::uint32_t s = 0; s < msg.size; ++s) {
              const float lm = log_msg(msg.v[s]);
              const std::size_t ci = static_cast<std::size_t>(e) * b + s;
              const float old = cache.load_bytes(ctx, ci, 4);
              cache.store_bytes(ctx, ci, lm, 4);
              gpusim::atomic_add(
                  ctx, acc, static_cast<std::size_t>(ed.dst) * b + s,
                  lm - old);
            }
            ctx.flop(4ull * msg.size);
            dirty.store_scattered(ctx, ed.dst, 1);
          });
          out.processed = queued;
          perf::Meter(dev.mutable_counters()).atomic(0, md.max_in_degree);

          // Kernel 2: marginalize dirty nodes, rebuild the edge queue from
          // the out-edges of nodes that moved.
          backend.launch(n, [&](ThreadCtx& ctx) {
            const auto v = static_cast<NodeId>(ctx.global_id());
            if (dirty.load(ctx, v) == 0) {
              diff.store(ctx, v, 0.0f);
              return;
            }
            dirty.store(ctx, v, 0);
            if (observed.load(ctx, v) != 0) {
              diff.store(ctx, v, 0.0f);
              return;
            }
            const std::uint32_t arity = g.arity(v);
            float local[graph::kMaxStates];
            for (std::uint32_t s = 0; s < arity; ++s) {
              local[s] =
                  acc.load_near(ctx, static_cast<std::size_t>(v) * b + s);
            }
            BeliefVec nb;
            nb.size = arity;
            ctx.flop(softmax(local, arity, nb.v.data()));
            const BeliefVec prev =
                beliefs.load_scattered_bytes(ctx, v, belief_bytes(arity));
            ctx.flop(ctl.damp(nb, prev));
            const float dlt = graph::l1_diff(prev, nb);
            ctx.flop(2ull * arity);
            beliefs.store_scattered_bytes(ctx, v, nb,
                                          belief_bytes(arity));
            diff.store(ctx, v, dlt);
            if (ctl.element_active(dlt)) {
              const std::uint64_t lo = ooffs.load(ctx, v);
              const std::uint64_t hi = ooffs.load(ctx, v + 1);
              const auto deg = static_cast<std::uint32_t>(hi - lo);
              if (deg > 0) {
                const std::uint32_t slot =
                    gpusim::atomic_add_u32(ctx, cursor_span, 0, deg);
                std::uint32_t w = 0;
                for (std::uint64_t k = lo; k < hi; ++k) {
                  const auto entry = oents.load(ctx, k);
                  next_q.store(ctx, slot + w, entry.edge);
                  ++w;
                }
              }
            }
          });
        },
        [&] { return backend.reduce_to_host(d.diff, n); },
        [&] { return dev.modelled_time(); });
    download(dev, d, state, stats);
    return stats;
  }
};

}  // namespace

std::unique_ptr<Engine> make_cuda_node(const perf::HardwareProfile& p) {
  return std::make_unique<CudaNodeEngine>(EngineKind::kCudaNode, p);
}

std::unique_ptr<Engine> make_device_edge_engine(
    EngineKind kind, const perf::HardwareProfile& p) {
  return std::make_unique<DeviceEdgeEngine>(kind, p);
}

}  // namespace credo::bp::internal
