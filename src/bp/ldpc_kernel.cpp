// Closed-form LDPC kernel (DESIGN.md §5g).
//
// The tabular kernel pushes beliefs through joint-matrix products; the
// LDPC families replace it with the closed-form tanh-domain update driven
// by the Tanner graph's bipartite structure. Everything else — work
// queues, residual prioritization, bulk rounds, cancellation and deadlines
// — is the engines' own and applies to decoding unchanged
// (family_kernels.h).
//
// When BpOptions::syndrome_stop is set, the engines additionally test
// hard-decision parity through syndrome_met() at the convergence-check
// cadence (sweeps) or at epoch boundaries (priority loops) and end the run
// as converged on satisfaction; finish() always establishes the final
// state's parity so BpStats::syndrome_satisfied reports decode success
// either way.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "bp/family_kernels.h"

namespace credo::bp::internal {
namespace {

using graph::BeliefVec;
using graph::EdgeId;
using graph::NodeId;

/// LLR clamp: messages and totals live in [-20, 20], wide enough that the
/// implied probability saturates (sigmoid(20) ≈ 1 - 2e-9) and narrow
/// enough that exp/tanh never overflow.
constexpr float kLlrClamp = 20.0f;

/// |tanh| below this is treated as an erasure in the check product so one
/// uninformative input cannot zero the exclusion products of the others.
constexpr float kTanhEps = 1e-7f;

/// The exclusion product is clamped inside (-1, 1) before atanh: in float,
/// tanh(x) rounds to exactly ±1.0f from |x| ≈ 9.011, and atanh(±1) is inf.
constexpr float kTanhClamp = 0.999999f;

inline float clamp_llr(float x) noexcept {
  return x < -kLlrClamp ? -kLlrClamp : (x > kLlrClamp ? kLlrClamp : x);
}

/// Posterior bit marginal of a total LLR, stable for either sign, into
/// two lanes.
void bit_marginal(float total, float* out) noexcept {
  const float e = std::exp(-std::fabs(total));
  const float big = 1.0f / (1.0f + e);
  out[0] = total >= 0.0f ? big : 1.0f - big;
  out[1] = 1.0f - out[0];
}

}  // namespace

LdpcKernel::LdpcKernel(const graph::FactorGraph& g, const BpOptions& opts,
                       const runtime::ConvergenceController& ctl,
                       runtime::BeliefState& state, perf::Meter& meter)
    : g_(g),
      ctl_(ctl),
      state_(state),
      vars_(g.ldpc_variables()),
      min_sum_(g.family() == graph::FactorFamily::kLdpcMinSum) {
  const NodeId n = g.num_nodes();
  llr_.resize(vars_);
  for (NodeId v = 0; v < vars_; ++v) {
    const BeliefVec& p = g.prior(v);
    llr_[v] = clamp_llr(std::log(p.v[0] < kMsgFloor ? kMsgFloor : p.v[0]) -
                        std::log(p.v[1] < kMsgFloor ? kMsgFloor : p.v[1]));
  }
  syn_.resize(n - vars_);
  for (NodeId c = vars_; c < n; ++c) {
    syn_[c - vars_] = g.prior(c).v[1] > 0.5f ? 1 : 0;
  }
  // reverse_[e] pairs s→d with the first d→s entry of s's in-row. Rows
  // list edges in id order, so that is the lowest-id reverse edge.
  const auto& edges = g.edges();
  reverse_.resize(edges.size());
  msg_.resize(edges.size());
  for (EdgeId e = 0; e < edges.size(); ++e) {
    const auto [src, dst] = edges[e];
    const auto row = g.in_csr().neighbors(src);
    const auto it = std::find_if(
        row.begin(), row.end(), [&](const auto& in) { return in.node == dst; });
    CREDO_CHECK_MSG(it != row.end(), "LDPC edge without its reverse");
    reverse_[e] = it->edge;
    msg_[e] = src < vars_ ? llr_[src] : 0.0f;
  }
  if (!min_sum_) tanh_.resize(edges.size());
  if (opts.work_queue) {
    stamp_ = std::vector<std::atomic<std::uint32_t>>(n);
  }
  // Set-up cost: priors and the edge list streamed once, the message and
  // reverse arrays written once.
  meter.seq_read(belief_bytes(2) * n);
  meter.seq_read(sizeof(graph::DirectedEdge) * edges.size());
  meter.seq_write((4ull + sizeof(EdgeId)) * edges.size());
  meter.flop(2ull * vars_);
}

float LdpcKernel::update_node(const float* in_msg, float* out_msg, NodeId v,
                              perf::Meter& meter) {
  const auto in = g_.in_csr().neighbors(v);
  const auto out = g_.out_csr().neighbors(v);
  meter.seq_read(2 * sizeof(std::uint64_t));  // CSR offsets

  if (v < vars_) {
    // Variable: total = llr + Σ R, each outgoing Q = total − R of the
    // paired reverse edge, belief = the sigmoid pair of the total.
    float total = llr_[v];
    meter.seq_read(4);
    for (const auto& entry : in) {
      meter.seq_read(sizeof(entry));
      total += in_msg[entry.edge];
      meter.rand_read(4);
    }
    meter.flop(in.size());
    for (const auto& entry : out) {
      meter.seq_read(sizeof(entry));
      out_msg[entry.edge] = clamp_llr(total - in_msg[reverse_[entry.edge]]);
      meter.rand_read(4 + sizeof(EdgeId));  // paired message + reverse id
      meter.rand_write(4);
      meter.flop(2);
    }
    float nb[2];
    bit_marginal(total, nb);
    meter.flop(5);
    float* cur = state_.lanes(v);
    const float d = graph::l1_diff_lanes(cur, nb, 2);
    meter.flop(4);
    meter.rand_read(belief_bytes(2));
    cur[0] = nb[0];
    cur[1] = nb[1];
    meter.rand_write(belief_bytes(2));
    return d;
  }

  // Check. Sum-product: tanh-domain exclusion product with the zero-count
  // trick (one pass collects the full product, counts near-zero inputs and
  // keeps each input's tanh in tanh_; each output divides the product by
  // its own input's tanh, or degenerates when erasures are present).
  // Min-sum: sign product plus the two smallest magnitudes. Returns the
  // summed tanh-domain message delta against the last sweep's outputs
  // (in_msg: under the Jacobi double buffer out_msg holds older ones).
  const float sign = syn_[v - vars_] ? -1.0f : 1.0f;
  meter.seq_read(1);
  float delta = 0.0f;
  if (!min_sum_) {
    float prod = sign;
    std::uint32_t zeros = 0;
    EdgeId zero_edge = 0;
    for (const auto& entry : in) {
      meter.seq_read(sizeof(entry));
      const float t = std::tanh(0.5f * in_msg[entry.edge]);
      tanh_[entry.edge] = t;
      meter.rand_read(4);
      if (std::fabs(t) < kTanhEps) {
        ++zeros;
        zero_edge = entry.edge;
      } else {
        prod *= t;
      }
    }
    meter.flop(3ull * in.size());
    for (const auto& entry : out) {
      meter.seq_read(sizeof(entry));
      const EdgeId rev = reverse_[entry.edge];
      float t_excl;
      if (zeros == 0) {
        t_excl = prod / tanh_[rev];
      } else if (zeros == 1 && rev == zero_edge) {
        t_excl = prod;  // the lone erasure is exactly the excluded input
      } else {
        t_excl = 0.0f;  // an erasure among the others voids this output
      }
      if (t_excl > kTanhClamp) t_excl = kTanhClamp;
      if (t_excl < -kTanhClamp) t_excl = -kTanhClamp;
      const float r_new = 2.0f * std::atanh(t_excl);
      delta += std::fabs(t_excl - std::tanh(0.5f * in_msg[entry.edge]));
      out_msg[entry.edge] = r_new;
      meter.rand_read(4 + sizeof(EdgeId));
      meter.rand_write(4);
      meter.flop(8);
    }
  } else {
    float m1 = kLlrClamp;  // the clamp doubles as "no input yet": a
    float m2 = kLlrClamp;  // degree-1 check emits a full-confidence R
    EdgeId arg = 0;
    float sgn = sign;
    for (const auto& entry : in) {
      meter.seq_read(sizeof(entry));
      const float q = in_msg[entry.edge];
      meter.rand_read(4);
      if (q < 0.0f) sgn = -sgn;
      const float a = std::fabs(q);
      if (a < m1) {
        m2 = m1;
        m1 = a;
        arg = entry.edge;
      } else if (a < m2) {
        m2 = a;
      }
    }
    meter.flop(3ull * in.size());
    for (const auto& entry : out) {
      meter.seq_read(sizeof(entry));
      const EdgeId rev = reverse_[entry.edge];
      float s = sgn;
      if (in_msg[rev] < 0.0f) s = -s;  // remove the excluded input's sign
      const float r_new = s * (rev == arg ? m2 : m1);
      delta += std::fabs(std::tanh(0.5f * r_new) -
                         std::tanh(0.5f * in_msg[entry.edge]));
      out_msg[entry.edge] = r_new;
      meter.rand_read(4 + sizeof(EdgeId));
      meter.rand_write(4);
      meter.flop(6);
    }
  }
  return delta;
}

/// Hard-decides every variable from its current total LLR and tests every
/// parity check against the syndrome. O(E).
bool LdpcKernel::parity_holds(perf::Meter& meter) {
  const NodeId n = g_.num_nodes();
  bits_.assign(vars_, 0);
  for (NodeId v = 0; v < vars_; ++v) {
    float total = llr_[v];
    for (const auto& entry : g_.in_csr().neighbors(v)) {
      total += msg_[entry.edge];
    }
    bits_[v] = total < 0.0f ? 1 : 0;
  }
  bool ok = true;
  for (NodeId c = vars_; c < n && ok; ++c) {
    std::uint8_t acc = 0;
    for (const auto& entry : g_.in_csr().neighbors(c)) {
      acc ^= bits_[entry.node];
    }
    ok = acc == syn_[c - vars_];
  }
  // Each directed edge contributes one message or bit touch.
  meter.seq_read(4ull * g_.num_edges());
  meter.flop(g_.num_edges() + vars_);
  return ok;
}

bool LdpcKernel::syndrome_met(perf::Meter& meter) {
  if (!ctl_.syndrome_stop() || !parity_holds(meter)) return false;
  satisfied_ = true;
  return true;
}

void LdpcKernel::finish(BpStats& stats, perf::Meter& meter) {
  for (NodeId v = 0; v < vars_; ++v) {
    float total = llr_[v];
    for (const auto& entry : g_.in_csr().neighbors(v)) {
      total += msg_[entry.edge];
    }
    bit_marginal(total, state_.lanes(v));
  }
  meter.seq_read(4ull * g_.num_edges() / 2 + 4ull * vars_);
  meter.seq_write(belief_bytes(2) * vars_);
  meter.flop(8ull * vars_);

  stats.syndrome_satisfied = satisfied_ || parity_holds(meter);
}

}  // namespace credo::bp::internal
