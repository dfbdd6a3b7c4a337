// Public belief kernels: thin BeliefVec wrappers over the lane forms of
// belief_kernels.h, which hold each primitive's one implementation. See
// that header for the layout and numerical contracts (bit-identical to the
// scalar reference; convergence-feeding reductions stay in scalar order).
#include "graph/belief.h"

#include "graph/belief_kernels.h"

namespace credo::graph {

float normalize(BeliefVec& b) noexcept {
  return with_padded_width(b.size, [&]<std::uint32_t W>() {
    return normalize_lanes<W>(b.v.data(), b.size);
  });
}

float l1_diff(const BeliefVec& a, const BeliefVec& b) noexcept {
  return l1_diff_lanes(a.v.data(), b.v.data(),
                       a.size < b.size ? a.size : b.size);
}

std::uint32_t combine(BeliefVec& acc, const BeliefVec& m) noexcept {
  return with_padded_width(acc.size, [&]<std::uint32_t W>() {
    return combine_lanes<W>(acc.v.data(), m.v.data(), acc.size);
  });
}

JointMatrix JointMatrix::diffusion(std::uint32_t n, float stay) {
  JointMatrix j(n, n);
  const float off = n > 1 ? (1.0f - stay) / static_cast<float>(n - 1) : 0.0f;
  for (std::uint32_t r = 0; r < n; ++r) {
    for (std::uint32_t c = 0; c < n; ++c) {
      j.m[r][c] = (r == c) ? stay : off;
    }
  }
  return j;
}

JointMatrix JointMatrix::transposed() const {
  JointMatrix t(cols, rows);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) t.m[c][r] = m[r][c];
  }
  return t;
}

std::uint32_t compute_message(const BeliefVec& in, const JointMatrix& j,
                              BeliefVec& out) noexcept {
  out.size = j.cols;
  // One switch on the padded width selects a fixed-trip-count matvec the
  // compiler fully vectorizes; matrix pad columns are zero, so out's pad
  // lanes come out zero as the layout contract requires.
  with_padded_width(j.cols, [&]<std::uint32_t W>() {
    detail::matvec_padded<W>(in.v.data(), j.m.data(), j.rows, out.v.data());
    normalize_lanes<W>(out.v.data(), j.cols);
  });
  return 2u * j.rows * j.cols + 2u * j.cols;
}

}  // namespace credo::graph
