// Vectorized belief kernels: the padded, stride-aligned forms behind the
// public kernels in belief.h, plus the batched multi-edge message kernel
// the engines' edge-blocked traversals use.
//
// Layout contract (see belief.h): arities are padded to kSimdLane (8
// floats), every loop's trip count is a compile-time multiple of the lane
// width, and padding lanes hold zeros — so the compiler emits straight
// vector code with no peel/epilogue loops and no masking. The fixed-width
// matvec templates below are instantiated for each padded width and
// selected by one switch per call (or per *block* of calls, in the batched
// kernel).
//
// Numerical contract: every vectorized kernel is bit-identical to the
// scalar reference in `scalar::`. Per-column matvec accumulation keeps the
// scalar row order; elementwise products and max-reductions are exact under
// any order; and the reductions that feed convergence decisions (normalize
// sums, l1_diff) deliberately stay in scalar order so engine iteration
// counts never depend on the kernel backend.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/belief.h"

namespace credo::graph {

/// Edges processed per batched-kernel block by the engines' edge-blocked
/// traversals. 16 edges x 32 padded states x 4 bytes of message scratch is
/// 2 KiB — comfortably L1-resident next to the (shared) joint matrix.
inline constexpr std::size_t kEdgeBlock = 16;

/// Dispatch cutoff for combine: at or below this arity the public kernel
/// takes the live-lane scalar path instead of the padded-width vector loop.
/// Measured (BENCH_kernels.json): touching kSimdLane lanes to update 2–8
/// live ones cost 0.47–0.84x at arity <= 8, while the vector loop wins
/// above (1.27x @16, 1.40x @32). Both paths are bit-identical.
///
/// l1_diff needs no cutoff: its sum feeds the convergence decision, so it
/// keeps scalar accumulation order at every arity (an ordered float
/// reduction cannot be vectorized without changing rounding) — its
/// selected path is the scalar one across the whole arity range.
inline constexpr std::uint32_t kCombineScalarMaxArity = kSimdLane;

/// Arity-aware copy: moves only the padded live lanes (plus the dimension)
/// instead of the full kMaxStates payload. The destination's lanes beyond
/// padded_states(src.size) are left untouched — callers reusing a scratch
/// vector must only read the padded width, per the layout contract.
inline void copy_belief(BeliefVec& dst, const BeliefVec& src) noexcept {
  const std::uint32_t w = padded_states(src.size);
  const float* __restrict s = src.v.data();
  float* __restrict d = dst.v.data();
  for (std::uint32_t i = 0; i < w; ++i) d[i] = s[i];
  dst.size = src.size;
}

/// Batched multi-edge message kernel (shared joint matrix, §2.2): computes
/// outs[e] = normalize(ins[e] * j) for e in [0, count). One dimension
/// switch for the whole block, and edges are processed in register-blocked
/// pairs so each joint-matrix row load is amortized across two messages.
/// Results are bit-identical to calling compute_message per edge.
/// Returns the number of flops performed.
std::uint64_t compute_messages_batched(const JointMatrix& j,
                                       const BeliefVec* const* ins,
                                       BeliefVec* outs,
                                       std::size_t count) noexcept;

/// Per-edge-matrix variant of the batched kernel (mats[e] may repeat).
/// Amortizes dispatch, not the matrix loads. Shapes may differ within a
/// block: the block runs at its widest padded width, and each message is
/// still bit-identical to compute_message's for its own matrix.
std::uint64_t compute_messages_batched(const JointMatrix* const* mats,
                                       const BeliefVec* const* ins,
                                       BeliefVec* outs,
                                       std::size_t count) noexcept;

/// Scalar reference kernels: the seed's exact loop structure (runtime trip
/// counts, zero-skip branch, per-element walks). Kept as the ground truth
/// the property tests and bench_kernels compare the vectorized forms
/// against — not used by any engine.
namespace scalar {

float normalize(BeliefVec& b) noexcept;
[[nodiscard]] float l1_diff(const BeliefVec& a, const BeliefVec& b) noexcept;
std::uint32_t combine(BeliefVec& acc, const BeliefVec& m) noexcept;
std::uint32_t compute_message(const BeliefVec& in, const JointMatrix& j,
                              BeliefVec& out) noexcept;

}  // namespace scalar

namespace detail {

/// Fixed-width matvec: out[c] = sum_r in[r] * rows[r][c] over a padded
/// width W known at compile time. Column accumulators are independent
/// lanes, so vectorizing changes no result; row order matches the scalar
/// reference.
template <std::uint32_t W>
inline void matvec_padded(const float* __restrict in,
                          const std::array<float, kMaxStates>* __restrict jm,
                          std::uint32_t rows,
                          float* __restrict out) noexcept {
  for (std::uint32_t c = 0; c < W; ++c) out[c] = 0.0f;
  for (std::uint32_t r = 0; r < rows; ++r) {
    const float w = in[r];
    const float* __restrict row = jm[r].data();
    for (std::uint32_t c = 0; c < W; ++c) out[c] += w * row[c];
  }
}

/// Register-blocked pair form: two messages against one matrix walk, so
/// each row load from the (shared) joint matrix feeds two accumulator
/// sets. Per-message results are bit-identical to matvec_padded.
template <std::uint32_t W>
inline void matvec2_padded(const float* __restrict in0,
                           const float* __restrict in1,
                           const std::array<float, kMaxStates>* __restrict jm,
                           std::uint32_t rows, float* __restrict out0,
                           float* __restrict out1) noexcept {
  for (std::uint32_t c = 0; c < W; ++c) {
    out0[c] = 0.0f;
    out1[c] = 0.0f;
  }
  for (std::uint32_t r = 0; r < rows; ++r) {
    const float w0 = in0[r];
    const float w1 = in1[r];
    const float* __restrict row = jm[r].data();
    for (std::uint32_t c = 0; c < W; ++c) {
      const float m = row[c];
      out0[c] += w0 * m;
      out1[c] += w1 * m;
    }
  }
}

}  // namespace detail

}  // namespace credo::graph
