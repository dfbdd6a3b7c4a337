// Batched multi-edge message kernel and the scalar reference kernels.
#include "graph/belief_kernels.h"

#include <algorithm>
#include <cmath>

namespace credo::graph {

std::uint64_t compute_messages_batched(const JointMatrix& j,
                                       const float* const* ins,
                                       BeliefVec* outs,
                                       std::size_t count) noexcept {
  for (std::size_t e = 0; e < count; ++e) outs[e].size = j.cols;
  return with_padded_width(j.cols, [&]<std::uint32_t W>() {
    return detail::messages_block<W>(
        j, ins, count, [&](std::size_t e) { return outs[e].v.data(); });
  });
}

std::uint64_t compute_messages_batched(const JointMatrix* const* mats,
                                       const float* const* ins,
                                       BeliefVec* outs,
                                       std::size_t count) noexcept {
  // One width switch per block, at the widest padded width in it: a block
  // may mix arities (the edge engines' blocks span destinations).
  std::uint32_t cols = 0;
  for (std::size_t e = 0; e < count; ++e) {
    cols = std::max(cols, mats[e]->cols);
    outs[e].size = mats[e]->cols;
  }
  if (count == 0) return 0;
  return with_padded_width(cols, [&]<std::uint32_t W>() {
    return detail::messages_block<W>(
        mats, ins, count, [&](std::size_t e) { return outs[e].v.data(); });
  });
}

// ---------------------------------------------------------------------------
// Scalar reference (the seed's exact loop structure).
// ---------------------------------------------------------------------------

namespace scalar {

float normalize(BeliefVec& b) noexcept {
  float sum = 0.0f;
  for (std::uint32_t i = 0; i < b.size; ++i) sum += b.v[i];
  if (sum > 0.0f && std::isfinite(sum)) {
    const float inv = 1.0f / sum;
    for (std::uint32_t i = 0; i < b.size; ++i) b.v[i] *= inv;
  } else {
    const float p = 1.0f / static_cast<float>(b.size);
    for (std::uint32_t i = 0; i < b.size; ++i) b.v[i] = p;
  }
  return sum;
}

float l1_diff(const BeliefVec& a, const BeliefVec& b) noexcept {
  float d = 0.0f;
  const std::uint32_t n = a.size < b.size ? a.size : b.size;
  for (std::uint32_t i = 0; i < n; ++i) d += std::fabs(a.v[i] - b.v[i]);
  return d;
}

std::uint32_t combine(BeliefVec& acc, const BeliefVec& m) noexcept {
  float maxv = 0.0f;
  for (std::uint32_t i = 0; i < acc.size; ++i) {
    acc.v[i] *= m.v[i];
    if (acc.v[i] > maxv) maxv = acc.v[i];
  }
  if (maxv > 0.0f && maxv < 1e-20f) {
    const float inv = 1.0f / maxv;
    for (std::uint32_t i = 0; i < acc.size; ++i) acc.v[i] *= inv;
    return 2 * acc.size;
  }
  return acc.size;
}

std::uint32_t compute_message(const BeliefVec& in, const JointMatrix& j,
                              BeliefVec& out) noexcept {
  out.size = j.cols;
  for (std::uint32_t c = 0; c < j.cols; ++c) out.v[c] = 0.0f;
  for (std::uint32_t r = 0; r < j.rows; ++r) {
    const float w = in.v[r];
    if (w == 0.0f) continue;
    for (std::uint32_t c = 0; c < j.cols; ++c) {
      out.v[c] += w * j.m[r][c];
    }
  }
  scalar::normalize(out);
  return 2u * j.rows * j.cols + 2u * j.cols;
}

}  // namespace scalar
}  // namespace credo::graph
