// The packed belief state every engine runs on (DESIGN.md §5b, §5d).
//
// One float buffer holds each node's belief at one graph-wide stride,
// padded_states() of the widest node: an arity-2 node of a binary graph
// takes 32 bytes instead of a 132-byte BeliefVec slot, and no slot is ever
// larger than a BeliefVec. A node's lanes [arity, stride) stay zero, per
// the kernel layer's layout contract, so the width-templated kernels run
// on the slices in place. Per-node arities live in a byte array beside it,
// so the hot loops never touch the graph's 132-byte priors for a size.
//
// Engine::run packs the state once on entry — priors, overlaid with the
// warm start read in the caller's ids through the graph's permutation —
// and unpacks it once on exit into BpResult::beliefs, in the caller's ids.
// The engines in between read and write only the packed lanes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bp/options.h"
#include "graph/belief.h"
#include "graph/factor_graph.h"

namespace credo::graph {
class Permutation;
}

namespace credo::bp::runtime {

class BeliefState {
 public:
  /// Packs g's priors in g's internal node ids. opts.init_beliefs — one
  /// vector per node in the caller's ORIGINAL ids — overrides the priors
  /// of unobserved nodes (evidence stays pinned); a warm vector whose
  /// arity differs from its node's throws util::InvalidArgument, since it
  /// would feed the kernels out-of-range state indices.
  BeliefState(const graph::FactorGraph& g, const BpOptions& opts);

  [[nodiscard]] graph::NodeId size() const noexcept {
    return static_cast<graph::NodeId>(arity_.size());
  }

  /// Floats per node: padded_states() of the widest node.
  [[nodiscard]] std::uint32_t stride() const noexcept { return stride_; }

  [[nodiscard]] std::uint32_t arity(graph::NodeId v) const noexcept {
    return arity_[v];
  }

  /// Node v's lanes (internal id): arity(v) live states, then zero pads.
  [[nodiscard]] float* lanes(graph::NodeId v) noexcept {
    return lanes_.data() + static_cast<std::size_t>(v) * stride_;
  }
  [[nodiscard]] const float* lanes(graph::NodeId v) const noexcept {
    return lanes_.data() + static_cast<std::size_t>(v) * stride_;
  }

  /// Overwrites node v's live lanes with `b`, of v's arity — for the
  /// engines that compute beliefs in their own layout (tree, simulated
  /// device) and pack their final beliefs here.
  void store(graph::NodeId v, const graph::BeliefVec& b) noexcept;

  /// Writes the run's result in one pass: out[i] becomes the belief of
  /// the caller's node i, read at internal id perm->to_new(i) (or i with
  /// no permutation). `out` holds size() value-initialized beliefs; each
  /// gets its size and its first stride() lanes, the rest stay zero.
  void unpack(const graph::Permutation* perm,
              std::span<graph::BeliefVec> out) const;

 private:
  std::vector<float> lanes_;           // size() * stride_
  std::vector<std::uint8_t> arity_;    // per node, <= kMaxStates
  std::uint32_t stride_ = 0;
};

}  // namespace credo::bp::runtime
