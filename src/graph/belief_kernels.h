// Vectorized belief kernels: the lane forms each elementwise primitive is
// implemented in once (the BeliefVec kernels in belief.h wrap them), the
// padded matvec and batched block templates, and the batched multi-edge
// message kernel the engines' edge-blocked traversals use.
//
// Layout contract (see belief.h): arities are padded to kSimdLane (8
// floats), every loop's trip count is a compile-time multiple of the lane
// width, and padding lanes hold zeros — so the compiler emits straight
// vector code with no peel/epilogue loops and no masking. The fixed-width
// templates below are instantiated for each padded width W and selected by
// one switch (with_padded_width) per call, per *block* of calls in the
// batched kernel, or per node in the engines' tabular update, which runs
// on `float[W]` temporaries.
//
// Numerical contract: every vectorized kernel is bit-identical to the
// scalar reference in `scalar::`. Per-column matvec accumulation keeps the
// scalar row order; elementwise products and max-reductions are exact under
// any order; and the reductions that feed convergence decisions (normalize
// sums, l1_diff) deliberately stay in scalar order so engine iteration
// counts never depend on the kernel backend.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "graph/belief.h"

namespace credo::graph {

/// Edges processed per batched-kernel block by the engines' edge-blocked
/// traversals. 16 edges x 32 padded states x 4 bytes of message scratch is
/// 2 KiB — comfortably L1-resident next to the (shared) joint matrix.
inline constexpr std::size_t kEdgeBlock = 16;

/// Dispatch cutoff for combine: at or below this padded width the kernel
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

/// Calls `f.template operator()<W>()` with W = padded_states(n): the one
/// width switch behind every kernel (W in {8, 16, 24, 32}), taken once per
/// call — or once per node, in the engines' tabular update.
template <typename F>
inline decltype(auto) with_padded_width(std::uint32_t n, F&& f) {
  switch (padded_states(n)) {
    case 8:
      return f.template operator()<8>();
    case 16:
      return f.template operator()<16>();
    case 24:
      return f.template operator()<24>();
    default:
      return f.template operator()<32>();
  }
}

// ---------------------------------------------------------------------------
// Lane forms: the one implementation of each elementwise primitive, over
// raw lanes of a padded width W with `n` live states. The BeliefVec kernels
// in belief.h wrap them; the engines' tabular update calls them directly
// on `float[W]` temporaries and the packed belief state.
// ---------------------------------------------------------------------------

/// normalize(): scalar-order sum of the n live lanes (it feeds
/// convergence decisions, so its rounding must not depend on W), then a
/// W-lane scale (pads scale 0 -> 0) or the uniform fallback.
template <std::uint32_t W>
inline float normalize_lanes(float* __restrict v, std::uint32_t n) noexcept {
  float sum = 0.0f;
  for (std::uint32_t i = 0; i < n; ++i) sum += v[i];
  if (sum > 0.0f && std::isfinite(sum)) {
    const float inv = 1.0f / sum;
    for (std::uint32_t i = 0; i < W; ++i) v[i] *= inv;
  } else {
    const float p = 1.0f / static_cast<float>(n);
    for (std::uint32_t i = 0; i < n; ++i) v[i] = p;
  }
  return sum;
}

/// combine(): acc[i] *= m[i] with the underflow rescale. At W = 8 the live
/// lanes run the reference loop (see kCombineScalarMaxArity). Wider
/// widths run strips of four with one max accumulator per lane: a single
/// loop-carried float max is a reduction GCC will not reorder without
/// -ffast-math, so one accumulator compiles to a serial maxss chain;
/// four are throughput-bound and let the products vectorize. Beliefs are
/// non-negative and pad lanes are 0 * 0 = 0, so max is exact under any
/// order and the pads never win: bit-identical to the scalar form.
template <std::uint32_t W>
inline std::uint32_t combine_lanes(float* __restrict a,
                                   const float* __restrict m,
                                   std::uint32_t n) noexcept {
  if constexpr (W <= kCombineScalarMaxArity) {
    float maxv = 0.0f;
    for (std::uint32_t i = 0; i < n; ++i) {
      a[i] *= m[i];
      if (a[i] > maxv) maxv = a[i];
    }
    if (maxv > 0.0f && maxv < 1e-20f) {
      const float inv = 1.0f / maxv;
      for (std::uint32_t i = 0; i < n; ++i) a[i] *= inv;
      return 2 * n;
    }
    return n;
  } else {
    float m0 = 0.0f, m1 = 0.0f, m2 = 0.0f, m3 = 0.0f;
    for (std::uint32_t i = 0; i < W; i += 4) {
      const float p0 = a[i] * m[i];
      const float p1 = a[i + 1] * m[i + 1];
      const float p2 = a[i + 2] * m[i + 2];
      const float p3 = a[i + 3] * m[i + 3];
      a[i] = p0;
      a[i + 1] = p1;
      a[i + 2] = p2;
      a[i + 3] = p3;
      m0 = p0 > m0 ? p0 : m0;
      m1 = p1 > m1 ? p1 : m1;
      m2 = p2 > m2 ? p2 : m2;
      m3 = p3 > m3 ? p3 : m3;
    }
    const float ma = m0 > m1 ? m0 : m1;
    const float mb = m2 > m3 ? m2 : m3;
    const float maxv = ma > mb ? ma : mb;
    // Rescale before products of many sub-unit messages underflow float.
    if (maxv > 0.0f && maxv < 1e-20f) {
      const float inv = 1.0f / maxv;
      for (std::uint32_t i = 0; i < W; ++i) a[i] *= inv;
      return 2 * n;
    }
    return n;
  }
}

/// l1_diff(): the per-node term of the convergence sum. It keeps scalar
/// accumulation order at every arity (an ordered float reduction cannot be
/// vectorized without changing rounding), so it needs no width.
inline float l1_diff_lanes(const float* a, const float* b,
                           std::uint32_t n) noexcept {
  float d = 0.0f;
  for (std::uint32_t i = 0; i < n; ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

/// The damping blend b = (1-d)*b + d*prev over the n live lanes (the
/// convergence controller renormalizes after it).
inline void blend_lanes(float* __restrict b, const float* __restrict prev,
                        std::uint32_t n, float damping) noexcept {
  for (std::uint32_t i = 0; i < n; ++i) {
    b[i] = (1.0f - damping) * b[i] + damping * prev[i];
  }
}

/// Batched multi-edge message kernel (shared joint matrix, §2.2): computes
/// outs[e] = normalize(ins[e] * j) for e in [0, count), where ins[e] are
/// source lanes. One dimension switch for the whole block, and edges are
/// processed in register-blocked pairs so each joint-matrix row load is
/// amortized across two messages. Results are bit-identical to calling
/// compute_message per edge. Returns the number of flops performed.
std::uint64_t compute_messages_batched(const JointMatrix& j,
                                       const float* const* ins,
                                       BeliefVec* outs,
                                       std::size_t count) noexcept;

/// Per-edge-matrix variant of the batched kernel (mats[e] may repeat).
/// Amortizes dispatch, not the matrix loads. Shapes may differ within a
/// block: the block runs at its widest padded width, and each message is
/// still bit-identical to compute_message's for its own matrix.
std::uint64_t compute_messages_batched(const JointMatrix* const* mats,
                                       const float* const* ins,
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

/// The batched block body on the shared matrix at padded width W: pairs
/// of edges walk the matrix together (matvec2), an odd tail edge runs
/// alone, and each message is normalized in place. `out(e)` names message
/// e's W output lanes. Returns the flops performed.
template <std::uint32_t W, typename Out>
inline std::uint64_t messages_block(const JointMatrix& j,
                                    const float* const* ins,
                                    std::size_t count, Out&& out) noexcept {
  const std::array<float, kMaxStates>* rows = j.m.data();
  std::size_t e = 0;
  for (; e + 1 < count; e += 2) {
    float* o0 = out(e);
    float* o1 = out(e + 1);
    matvec2_padded<W>(ins[e], ins[e + 1], rows, j.rows, o0, o1);
    normalize_lanes<W>(o0, j.cols);
    normalize_lanes<W>(o1, j.cols);
  }
  if (e < count) {
    float* o = out(e);
    matvec_padded<W>(ins[e], rows, j.rows, o);
    normalize_lanes<W>(o, j.cols);
  }
  return count * (2ull * j.rows * j.cols + 2ull * j.cols);
}

/// The per-edge-matrix block body at padded width W, which must cover
/// every matrix's columns: a narrower matrix's extra columns are zero
/// padding, so its message is the one its own width would give.
template <std::uint32_t W, typename Out>
inline std::uint64_t messages_block(const JointMatrix* const* mats,
                                    const float* const* ins,
                                    std::size_t count, Out&& out) noexcept {
  std::uint64_t flops = 0;
  for (std::size_t e = 0; e < count; ++e) {
    const JointMatrix& j = *mats[e];
    float* o = out(e);
    matvec_padded<W>(ins[e], j.m.data(), j.rows, o);
    normalize_lanes<W>(o, j.cols);
    flops += 2ull * j.rows * j.cols + 2ull * j.cols;
  }
  return flops;
}

}  // namespace detail

}  // namespace credo::graph
