// Batched multi-edge message kernel and the scalar reference kernels.
#include "graph/belief_kernels.h"

#include <algorithm>
#include <cmath>

namespace credo::graph {
namespace {

/// Block body shared by both batched entry points: pairs of edges walk the
/// matrix together (matvec2), an odd tail edge runs alone. Width is the
/// padded column count, fixed per instantiation.
template <std::uint32_t W>
void batched_block(const JointMatrix& j, const BeliefVec* const* ins,
                   BeliefVec* outs, std::size_t count) noexcept {
  const std::array<float, kMaxStates>* rows = j.m.data();
  std::size_t e = 0;
  for (; e + 1 < count; e += 2) {
    detail::matvec2_padded<W>(ins[e]->v.data(), ins[e + 1]->v.data(), rows,
                              j.rows, outs[e].v.data(),
                              outs[e + 1].v.data());
    outs[e].size = j.cols;
    outs[e + 1].size = j.cols;
    normalize(outs[e]);
    normalize(outs[e + 1]);
  }
  if (e < count) {
    detail::matvec_padded<W>(ins[e]->v.data(), rows, j.rows,
                             outs[e].v.data());
    outs[e].size = j.cols;
    normalize(outs[e]);
  }
}

}  // namespace

std::uint64_t compute_messages_batched(const JointMatrix& j,
                                       const BeliefVec* const* ins,
                                       BeliefVec* outs,
                                       std::size_t count) noexcept {
  switch (padded_states(j.cols)) {
    case 8:
      batched_block<8>(j, ins, outs, count);
      break;
    case 16:
      batched_block<16>(j, ins, outs, count);
      break;
    case 24:
      batched_block<24>(j, ins, outs, count);
      break;
    default:
      batched_block<32>(j, ins, outs, count);
      break;
  }
  return count * (2ull * j.rows * j.cols + 2ull * j.cols);
}

std::uint64_t compute_messages_batched(const JointMatrix* const* mats,
                                       const BeliefVec* const* ins,
                                       BeliefVec* outs,
                                       std::size_t count) noexcept {
  if (count == 0) return 0;
  // One width switch per block, at the widest padded width in it: a block
  // may mix arities (the edge engines' blocks span destinations), and a
  // narrower matrix's extra columns are zero padding, so every message is
  // bit-identical to compute_message's for its own edge.
  std::uint32_t cols = 0;
  for (std::size_t e = 0; e < count; ++e) {
    cols = std::max(cols, mats[e]->cols);
  }
  std::uint64_t flops = 0;
  const auto run = [&]<std::uint32_t W>() {
    for (std::size_t e = 0; e < count; ++e) {
      const JointMatrix& j = *mats[e];
      detail::matvec_padded<W>(ins[e]->v.data(), j.m.data(), j.rows,
                               outs[e].v.data());
      outs[e].size = j.cols;
      normalize(outs[e]);
      flops += 2ull * j.rows * j.cols + 2ull * j.cols;
    }
  };
  switch (padded_states(cols)) {
    case 8:
      run.template operator()<8>();
      break;
    case 16:
      run.template operator()<16>();
      break;
    case 24:
      run.template operator()<24>();
      break;
    default:
      run.template operator()<32>();
      break;
  }
  return flops;
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
