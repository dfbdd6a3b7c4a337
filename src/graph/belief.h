// Belief vectors and joint (conditional) probability matrices — the numeric
// vocabulary of the whole library.
//
// Following the paper's AoS analysis (§3.4) the canonical element is a struct
// holding a statically allocated float array plus its dimension; graphs with
// up to kMaxStates states per variable are supported (the paper's largest
// use case is the 32-state image-correction workload).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/error.h"

namespace credo::graph {

/// Maximum number of discrete states a variable may take.
inline constexpr std::uint32_t kMaxStates = 32;

/// SIMD lane count the kernel layer pads to: 8 floats is one AVX register
/// (two SSE/NEON registers). Every kernel loop runs over a multiple of this
/// stride with a compile-time trip count so the compiler emits vector code
/// without peel/epilogue loops.
inline constexpr std::uint32_t kSimdLane = 8;

/// Rounds an arity up to the padded SIMD stride.
constexpr std::uint32_t padded_states(std::uint32_t n) noexcept {
  return (n + kSimdLane - 1) / kSimdLane * kSimdLane;
}

/// A (possibly unnormalized) categorical distribution over up to kMaxStates
/// states. Fixed-capacity by design: this is the AoS element of §3.4.
///
/// Kernel-layer invariant: lanes [size, padded_states(size)) are zero in any
/// vector the kernels produce, so padded-stride loops can run over whole
/// SIMD registers without masking. Lanes beyond the padded width are
/// unspecified scratch. Deliberately *not* over-aligned: unaligned vector
/// loads are cheap on every target we model, and sizeof() feeds the GPU
/// simulator's allocation/transfer metering, which must stay stable.
struct BeliefVec {
  std::array<float, kMaxStates> v{};
  std::uint32_t size = 0;

  BeliefVec() = default;

  /// Builds from a span of probabilities (size() in [1, kMaxStates]).
  explicit BeliefVec(std::span<const float> probs) {
    CREDO_CHECK_MSG(!probs.empty() && probs.size() <= kMaxStates,
                    "belief arity out of range");
    size = static_cast<std::uint32_t>(probs.size());
    for (std::uint32_t i = 0; i < size; ++i) v[i] = probs[i];
  }

  /// Uniform distribution over `n` states.
  static BeliefVec uniform(std::uint32_t n) {
    CREDO_CHECK_MSG(n >= 1 && n <= kMaxStates, "belief arity out of range");
    BeliefVec b;
    b.size = n;
    const float p = 1.0f / static_cast<float>(n);
    for (std::uint32_t i = 0; i < n; ++i) b.v[i] = p;
    return b;
  }

  /// All-ones vector of `n` states — the multiplicative identity used to
  /// reset message accumulators.
  static BeliefVec ones(std::uint32_t n) {
    CREDO_CHECK_MSG(n >= 1 && n <= kMaxStates, "belief arity out of range");
    BeliefVec b;
    b.size = n;
    for (std::uint32_t i = 0; i < n; ++i) b.v[i] = 1.0f;
    return b;
  }

  /// A point mass on `state` — the result of observing a variable.
  static BeliefVec observed(std::uint32_t n, std::uint32_t state) {
    CREDO_CHECK_MSG(state < n, "observed state out of range");
    BeliefVec b;
    b.size = n;
    b.v[state] = 1.0f;
    return b;
  }

  float& operator[](std::uint32_t i) noexcept { return v[i]; }
  const float& operator[](std::uint32_t i) const noexcept { return v[i]; }

  [[nodiscard]] std::span<const float> states() const noexcept {
    return {v.data(), size};
  }

  /// Bytes of payload actually read/written when this vector moves through
  /// memory (used by the engines' metering).
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return static_cast<std::uint64_t>(size) * sizeof(float);
  }
};

/// In-place normalization to a probability distribution. If the vector sums
/// to ~0 (all evidence contradicts), falls back to uniform so downstream
/// iterations stay finite. Returns the pre-normalization sum.
float normalize(BeliefVec& b) noexcept;

/// L1 distance between two equal-arity belief vectors (the per-node term of
/// the paper's convergence sum, Algorithm 1 line 12).
[[nodiscard]] float l1_diff(const BeliefVec& a, const BeliefVec& b) noexcept;

/// Element-wise product accumulate: acc[i] *= m[i]. Rescales the accumulator
/// if it is about to underflow (high-degree hubs multiply thousands of
/// sub-unit factors). Returns the number of flops performed.
std::uint32_t combine(BeliefVec& acc, const BeliefVec& m) noexcept;

/// Conditional probability table along a directed edge (u -> v):
/// m[i][j] = p(x_v = j | x_u = i); rows = |states(u)|, cols = |states(v)|.
/// Rows need not be normalized — the engines renormalize after combining.
struct JointMatrix {
  std::array<std::array<float, kMaxStates>, kMaxStates> m{};
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;

  JointMatrix() = default;
  JointMatrix(std::uint32_t r, std::uint32_t c) : rows(r), cols(c) {
    CREDO_CHECK_MSG(r >= 1 && r <= kMaxStates && c >= 1 && c <= kMaxStates,
                    "joint matrix shape out of range");
  }

  float& at(std::uint32_t i, std::uint32_t j) noexcept { return m[i][j]; }
  [[nodiscard]] const float& at(std::uint32_t i,
                                std::uint32_t j) const noexcept {
    return m[i][j];
  }

  /// Identity-ish matrix expressing "state tends to persist across the
  /// edge": diagonal weight `stay`, off-diagonal (1-stay)/(cols-1).
  static JointMatrix diffusion(std::uint32_t n, float stay);

  /// The reverse direction of an undirected MRF edge: cols x rows.
  [[nodiscard]] JointMatrix transposed() const;

  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return static_cast<std::uint64_t>(rows) * cols * sizeof(float);
  }
};

/// The ф/ψ update of Algorithm 1 line 8: out[j] = Σ_i in[i] * J[i][j],
/// then normalized. `in` arity must equal J.rows; result arity is J.cols.
/// Returns the number of flops performed.
std::uint32_t compute_message(const BeliefVec& in, const JointMatrix& j,
                              BeliefVec& out) noexcept;

}  // namespace credo::graph
