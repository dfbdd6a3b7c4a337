// LDPC codes and their Tanner-graph factor graphs (DESIGN.md §5g).
//
// A binary LDPC code is a sparse parity-check matrix H (checks x bits);
// syndrome decoding asks for the most likely error pattern e with
// H·e = s over GF(2), given a BSC crossover probability. The decode runs
// as belief propagation over the Tanner graph — variable nodes [0, bits)
// for the code bits, check nodes [bits, bits+checks) for the parity
// constraints — with closed-form tanh-domain message kernels instead of
// joint-probability tables (the first non-tabular factor family; the
// exemplar is the qLDPC decoder referenced in SNIPPETS.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/factor_graph.h"

namespace credo::graph::ldpc {

/// The sparse parity-check matrix H, stored CSR by check row. Immutable
/// after generation; the Tanner graph is built from it.
struct Code {
  std::uint32_t bits = 0;    // n — columns of H (variable nodes)
  std::uint32_t checks = 0;  // m — rows of H (check nodes)
  std::vector<std::uint32_t> row_ptr;  // size checks + 1
  std::vector<std::uint32_t> bit_idx;  // column index of each nonzero

  /// Bits participating in check `c`.
  [[nodiscard]] std::span<const std::uint32_t> check_bits(
      std::uint32_t c) const noexcept {
    return {bit_idx.data() + row_ptr[c], row_ptr[c + 1] - row_ptr[c]};
  }

  /// Column degrees (how many checks each bit participates in).
  [[nodiscard]] std::vector<std::uint32_t> bit_degrees() const;
};

/// Generates a random regular (dv, dc) code on `bits` bits: every bit is
/// in exactly dv checks, every check covers exactly dc distinct bits
/// (socket-permutation construction with local conflict repair).
/// Requires bits * dv divisible by dc; deterministic in `seed`.
[[nodiscard]] Code random_regular(std::uint32_t bits, std::uint32_t dv,
                                  std::uint32_t dc, std::uint64_t seed);

/// Syndrome of an error pattern: s[c] = XOR of error[b] over b in check c.
[[nodiscard]] std::vector<std::uint8_t> syndrome(
    const Code& code, std::span<const std::uint8_t> error);

/// Builds the decode factor graph for `syndrome` under a BSC with the
/// given crossover probability, in the requested LDPC family. Variable
/// priors carry the channel likelihood [1-p, p]; check priors carry the
/// syndrome bit as a point mass ([1,0] for s=0, [0,1] for s=1). Check
/// nodes are NOT observed — they send messages — so every schedule
/// (frontier, residual, bulk residual) prioritizes check residuals exactly
/// like variable residuals.
[[nodiscard]] FactorGraph build_graph(const Code& code,
                                      std::span<const std::uint8_t> syndrome,
                                      float crossover, FactorFamily family);

/// Hard decisions from decoded beliefs: bit b is 1 iff
/// beliefs[b][1] > beliefs[b][0]. Reads only the first `bits` entries.
[[nodiscard]] std::vector<std::uint8_t> hard_decision(
    std::span<const BeliefVec> beliefs, std::uint32_t bits);

/// True when H·decision == syndrome over GF(2) — decode success.
[[nodiscard]] bool satisfies(const Code& code,
                             std::span<const std::uint8_t> decision,
                             std::span<const std::uint8_t> syndrome);

}  // namespace credo::graph::ldpc
