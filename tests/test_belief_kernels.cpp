// Property tests for the vectorized kernel layer: every padded,
// stride-aligned kernel (and the batched multi-edge message kernel) must
// agree with the scalar reference in belief_kernels.h's `scalar::`
// namespace across the full arity range, and must uphold the layout
// contract (pad lanes zero in produced vectors). The lane forms the
// engines' tabular update runs on must match the reference bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <vector>

#include "graph/belief.h"
#include "graph/belief_kernels.h"
#include "util/prng.h"

namespace credo::graph {
namespace {

constexpr float kTol = 1e-6f;

BeliefVec random_belief(util::Prng& rng, std::uint32_t arity) {
  BeliefVec b;
  b.size = arity;
  for (std::uint32_t i = 0; i < arity; ++i) b.v[i] = 0.01f + rng.uniform01f();
  return b;
}

JointMatrix random_joint(util::Prng& rng, std::uint32_t rows,
                         std::uint32_t cols) {
  JointMatrix j(rows, cols);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      j.at(r, c) = 0.01f + rng.uniform01f();
    }
  }
  return j;
}

void expect_same_distribution(const BeliefVec& got, const BeliefVec& want,
                              const char* what) {
  ASSERT_EQ(got.size, want.size) << what;
  for (std::uint32_t i = 0; i < want.size; ++i) {
    EXPECT_NEAR(got.v[i], want.v[i], kTol) << what << " state " << i;
  }
}

/// Bit-for-bit agreement of the live lanes (the lane forms must match the
/// scalar reference exactly, not within a tolerance).
void expect_same_bits(const BeliefVec& got, const BeliefVec& want,
                      const char* what) {
  ASSERT_EQ(got.size, want.size) << what;
  for (std::uint32_t i = 0; i < want.size; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.v[i]),
              std::bit_cast<std::uint32_t>(want.v[i]))
        << what << " state " << i;
  }
}

/// The lane forms at `n`'s own padded width, as the engines' tabular
/// update instantiates them.
float lanes_normalize(BeliefVec& b) {
  return with_padded_width(b.size, [&]<std::uint32_t W>() {
    return normalize_lanes<W>(b.v.data(), b.size);
  });
}

std::uint32_t lanes_combine(BeliefVec& acc, const BeliefVec& m) {
  return with_padded_width(acc.size, [&]<std::uint32_t W>() {
    return combine_lanes<W>(acc.v.data(), m.v.data(), acc.size);
  });
}

void expect_pad_lanes_zero(const BeliefVec& b, const char* what) {
  for (std::uint32_t i = b.size; i < padded_states(b.size); ++i) {
    EXPECT_EQ(b.v[i], 0.0f) << what << " pad lane " << i;
  }
}

TEST(BeliefKernels, ComputeMessageMatchesScalarAcrossArities) {
  util::Prng rng(11);
  for (std::uint32_t arity = 1; arity <= kMaxStates; ++arity) {
    const BeliefVec in = random_belief(rng, arity);
    const JointMatrix j = random_joint(rng, arity, arity);
    BeliefVec vec_out, ref_out;
    const std::uint32_t vec_flops = compute_message(in, j, vec_out);
    const std::uint32_t ref_flops = scalar::compute_message(in, j, ref_out);
    expect_same_distribution(vec_out, ref_out, "compute_message");
    expect_pad_lanes_zero(vec_out, "compute_message");
    EXPECT_EQ(vec_flops, ref_flops) << "arity " << arity;
  }
}

TEST(BeliefKernels, ComputeMessageHandlesRectangularJoints) {
  // Edges between variables of different arity: rows = |src|, cols = |dst|.
  util::Prng rng(12);
  const std::uint32_t shapes[][2] = {{1, 32}, {32, 1}, {3, 7}, {7, 3},
                                     {8, 24}, {24, 8}, {5, 17}};
  for (const auto& s : shapes) {
    const BeliefVec in = random_belief(rng, s[0]);
    const JointMatrix j = random_joint(rng, s[0], s[1]);
    BeliefVec vec_out, ref_out;
    compute_message(in, j, vec_out);
    scalar::compute_message(in, j, ref_out);
    expect_same_distribution(vec_out, ref_out, "rectangular message");
    expect_pad_lanes_zero(vec_out, "rectangular message");
  }
}

TEST(BeliefKernels, NormalizeMatchesScalarAcrossArities) {
  util::Prng rng(13);
  for (std::uint32_t arity = 1; arity <= kMaxStates; ++arity) {
    BeliefVec vec_b = random_belief(rng, arity);
    BeliefVec ref_b = vec_b;
    BeliefVec lane_b = vec_b;
    const float vec_sum = normalize(vec_b);
    const float ref_sum = scalar::normalize(ref_b);
    const float lane_sum = lanes_normalize(lane_b);
    EXPECT_NEAR(vec_sum, ref_sum, kTol) << "arity " << arity;
    expect_same_distribution(vec_b, ref_b, "normalize");
    expect_pad_lanes_zero(vec_b, "normalize");
    EXPECT_EQ(std::bit_cast<std::uint32_t>(lane_sum),
              std::bit_cast<std::uint32_t>(ref_sum))
        << "arity " << arity;
    expect_same_bits(lane_b, ref_b, "normalize_lanes");
    expect_pad_lanes_zero(lane_b, "normalize_lanes");
  }
}

TEST(BeliefKernels, NormalizeZeroSumFallsBackToUniform) {
  for (const std::uint32_t arity : {1u, 5u, 8u, 32u}) {
    BeliefVec vec_b, ref_b, lane_b;
    vec_b.size = ref_b.size = lane_b.size = arity;  // all-zero states
    normalize(vec_b);
    scalar::normalize(ref_b);
    lanes_normalize(lane_b);
    expect_same_distribution(vec_b, ref_b, "zero-sum normalize");
    expect_same_bits(lane_b, ref_b, "zero-sum normalize_lanes");
    EXPECT_NEAR(vec_b.v[0], 1.0f / static_cast<float>(arity), kTol);
  }
}

TEST(BeliefKernels, CombineMatchesScalarAcrossArities) {
  util::Prng rng(14);
  for (std::uint32_t arity = 1; arity <= kMaxStates; ++arity) {
    BeliefVec vec_acc = random_belief(rng, arity);
    BeliefVec ref_acc = vec_acc;
    BeliefVec lane_acc = vec_acc;
    const BeliefVec m = random_belief(rng, arity);
    const std::uint32_t vec_flops = combine(vec_acc, m);
    const std::uint32_t ref_flops = scalar::combine(ref_acc, m);
    const std::uint32_t lane_flops = lanes_combine(lane_acc, m);
    expect_same_distribution(vec_acc, ref_acc, "combine");
    EXPECT_EQ(vec_flops, ref_flops) << "arity " << arity;
    expect_same_bits(lane_acc, ref_acc, "combine_lanes");
    EXPECT_EQ(lane_flops, ref_flops) << "arity " << arity;
  }
}

TEST(BeliefKernels, CombineUnderflowRescaleMatchesScalar) {
  // High-degree hubs multiply thousands of sub-unit factors; once the
  // running max drops below 1e-20 the kernel rescales. Drive both
  // implementations through that path and require identical trajectories
  // (values and reported flop counts, which encode whether a rescale ran).
  util::Prng rng(15);
  for (const std::uint32_t arity : {1u, 2u, 8u, 17u, 32u}) {
    BeliefVec vec_acc = BeliefVec::ones(arity);
    BeliefVec ref_acc = BeliefVec::ones(arity);
    BeliefVec lane_acc = BeliefVec::ones(arity);
    bool rescued = false;
    for (int step = 0; step < 64; ++step) {
      BeliefVec m = random_belief(rng, arity);
      for (std::uint32_t i = 0; i < arity; ++i) m.v[i] *= 0.25f;
      const std::uint32_t vec_flops = combine(vec_acc, m);
      const std::uint32_t ref_flops = scalar::combine(ref_acc, m);
      const std::uint32_t lane_flops = lanes_combine(lane_acc, m);
      ASSERT_EQ(vec_flops, ref_flops)
          << "arity " << arity << " step " << step;
      ASSERT_EQ(lane_flops, ref_flops)
          << "arity " << arity << " step " << step;
      expect_same_bits(lane_acc, ref_acc, "combine_lanes trajectory");
      rescued = rescued || vec_flops == 2 * arity;
      for (std::uint32_t i = 0; i < arity; ++i) {
        ASSERT_NEAR(vec_acc.v[i], ref_acc.v[i],
                    kTol * std::max(1.0f, std::fabs(ref_acc.v[i])))
            << "arity " << arity << " step " << step << " state " << i;
      }
    }
    EXPECT_TRUE(rescued) << "arity " << arity
                         << ": test never hit the rescale path";
  }
}

TEST(BeliefKernels, L1DiffMatchesScalarAcrossArities) {
  util::Prng rng(16);
  for (std::uint32_t arity = 1; arity <= kMaxStates; ++arity) {
    const BeliefVec a = random_belief(rng, arity);
    const BeliefVec b = random_belief(rng, arity);
    EXPECT_NEAR(l1_diff(a, b), scalar::l1_diff(a, b), kTol)
        << "arity " << arity;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(
                  l1_diff_lanes(a.v.data(), b.v.data(), arity)),
              std::bit_cast<std::uint32_t>(scalar::l1_diff(a, b)))
        << "arity " << arity;
  }
}

TEST(BeliefKernels, BatchedSharedMatrixMatchesPerEdgeKernel) {
  // Every block size in [1, kEdgeBlock] exercises both the paired fast
  // path and the odd-count tail.
  util::Prng rng(18);
  for (const std::uint32_t arity : {1u, 3u, 8u, 13u, 32u}) {
    const JointMatrix j = random_joint(rng, arity, arity);
    for (std::size_t count = 1; count <= kEdgeBlock; ++count) {
      std::vector<BeliefVec> ins(count);
      std::array<const float*, kEdgeBlock> ptrs{};
      for (std::size_t e = 0; e < count; ++e) {
        ins[e] = random_belief(rng, arity);
        ptrs[e] = ins[e].v.data();
      }
      std::array<BeliefVec, kEdgeBlock> outs{};
      const std::uint64_t batched_flops =
          compute_messages_batched(j, ptrs.data(), outs.data(), count);
      std::uint64_t ref_flops = 0;
      for (std::size_t e = 0; e < count; ++e) {
        BeliefVec ref_out;
        ref_flops += scalar::compute_message(ins[e], j, ref_out);
        expect_same_distribution(outs[e], ref_out, "batched shared");
        expect_pad_lanes_zero(outs[e], "batched shared");
      }
      EXPECT_EQ(batched_flops, ref_flops)
          << "arity " << arity << " count " << count;
    }
  }
}

TEST(BeliefKernels, BatchedPerEdgeMatricesMatchPerEdgeKernel) {
  util::Prng rng(19);
  for (const std::uint32_t arity : {2u, 8u, 32u}) {
    for (const std::size_t count : {1u, 2u, 7u, 15u, 16u}) {
      std::vector<BeliefVec> ins(count);
      std::vector<JointMatrix> mats(count);
      std::array<const float*, kEdgeBlock> in_ptrs{};
      std::array<const JointMatrix*, kEdgeBlock> mat_ptrs{};
      for (std::size_t e = 0; e < count; ++e) {
        ins[e] = random_belief(rng, arity);
        mats[e] = random_joint(rng, arity, arity);
        in_ptrs[e] = ins[e].v.data();
        mat_ptrs[e] = &mats[e];
      }
      std::array<BeliefVec, kEdgeBlock> outs{};
      const std::uint64_t batched_flops = compute_messages_batched(
          mat_ptrs.data(), in_ptrs.data(), outs.data(), count);
      std::uint64_t ref_flops = 0;
      for (std::size_t e = 0; e < count; ++e) {
        BeliefVec ref_out;
        ref_flops += scalar::compute_message(ins[e], mats[e], ref_out);
        expect_same_distribution(outs[e], ref_out, "batched per-edge");
      }
      EXPECT_EQ(batched_flops, ref_flops)
          << "arity " << arity << " count " << count;
    }
  }

  // One block mixing padded widths 8, 16, 24 and 32, as the edge engines'
  // blocks do on per-node-arity graphs: every message must equal the
  // single-edge kernel's for its own matrix, bit for bit.
  const std::array<std::uint32_t, 4> cols = {2, 9, 17, 32};
  const std::array<std::uint32_t, 4> rows = {9, 2, 32, 17};
  std::vector<BeliefVec> ins(kEdgeBlock);
  std::vector<JointMatrix> mats(kEdgeBlock);
  std::array<const float*, kEdgeBlock> in_ptrs{};
  std::array<const JointMatrix*, kEdgeBlock> mat_ptrs{};
  for (std::size_t e = 0; e < kEdgeBlock; ++e) {
    ins[e] = random_belief(rng, rows[e % 4]);
    mats[e] = random_joint(rng, rows[e % 4], cols[(e + e / 4) % 4]);
    in_ptrs[e] = ins[e].v.data();
    mat_ptrs[e] = &mats[e];
  }
  std::array<BeliefVec, kEdgeBlock> outs{};
  const std::uint64_t batched_flops = compute_messages_batched(
      mat_ptrs.data(), in_ptrs.data(), outs.data(), kEdgeBlock);
  std::uint64_t ref_flops = 0;
  for (std::size_t e = 0; e < kEdgeBlock; ++e) {
    BeliefVec single;
    ref_flops += compute_message(ins[e], mats[e], single);
    ASSERT_EQ(outs[e].size, single.size) << "edge " << e;
    for (std::uint32_t s = 0; s < single.size; ++s) {
      EXPECT_EQ(outs[e].v[s], single.v[s]) << "edge " << e << " state " << s;
    }
    expect_pad_lanes_zero(outs[e], "batched mixed widths");
  }
  EXPECT_EQ(batched_flops, ref_flops) << "mixed widths";
}

TEST(BeliefKernels, BatchedKernelIsBitIdenticalToVectorizedSingle) {
  // Stronger than the 1e-6 property: within one backend, batching must not
  // change a single bit (the engines' end-to-end runs rely on it).
  util::Prng rng(20);
  const std::uint32_t arity = 32;
  const JointMatrix j = random_joint(rng, arity, arity);
  std::vector<BeliefVec> ins(kEdgeBlock);
  std::array<const float*, kEdgeBlock> ptrs{};
  for (std::size_t e = 0; e < kEdgeBlock; ++e) {
    ins[e] = random_belief(rng, arity);
    ptrs[e] = ins[e].v.data();
  }
  std::array<BeliefVec, kEdgeBlock> outs{};
  compute_messages_batched(j, ptrs.data(), outs.data(), kEdgeBlock);
  for (std::size_t e = 0; e < kEdgeBlock; ++e) {
    BeliefVec single;
    compute_message(ins[e], j, single);
    for (std::uint32_t i = 0; i < arity; ++i) {
      EXPECT_EQ(outs[e].v[i], single.v[i]) << "edge " << e << " state " << i;
    }
  }
}

}  // namespace
}  // namespace credo::graph
