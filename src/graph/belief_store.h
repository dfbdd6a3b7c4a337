// AoS and SoA belief storage layouts (§3.4).
//
// The paper implemented both, profiled them with cachegrind, found the AoS
// layout performed ~56% fewer data-cache accesses on the BP access pattern,
// and shipped AoS. FactorGraph therefore stores beliefs as an array of
// BeliefVec structs; this header keeps both layouts alive behind a common
// interface so the choice can be reproduced (bench_aos_soa drives them
// through the cache simulator) and ablated.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/belief.h"
#include "graph/csr.h"

namespace credo::graph {

/// Storage layout selector.
enum class BeliefLayout { kAos, kSoa };

/// A byte range touched by one logical access; consumed by the cache
/// simulator.
struct MemRange {
  std::uintptr_t addr;
  std::uint32_t bytes;
};

/// Common interface over the two layouts. Virtual dispatch is acceptable
/// here: this type exists for the layout study, not the engines' hot path
/// (they use FactorGraph's AoS vectors directly).
class BeliefStore {
 public:
  virtual ~BeliefStore() = default;

  [[nodiscard]] virtual BeliefLayout layout() const noexcept = 0;
  [[nodiscard]] virtual NodeId size() const noexcept = 0;

  /// Reads node `v`'s belief into `out`.
  virtual void get(NodeId v, BeliefVec& out) const = 0;

  /// Writes node `v`'s belief.
  virtual void set(NodeId v, const BeliefVec& b) = 0;

  /// Resident bytes.
  [[nodiscard]] virtual std::uint64_t bytes() const noexcept = 0;

  /// Reports the byte ranges a get()/set() of node `v` touches, for cache
  /// simulation.
  virtual void access_ranges(
      NodeId v, const std::function<void(MemRange)>& sink) const = 0;
};

/// Array-of-structs: one BeliefVec (padded float[32] + size) per node.
/// Values and dimension share a cache line; an access touches one
/// contiguous range.
class AosBeliefStore final : public BeliefStore {
 public:
  AosBeliefStore(NodeId n, std::uint32_t arity);

  [[nodiscard]] BeliefLayout layout() const noexcept override {
    return BeliefLayout::kAos;
  }
  [[nodiscard]] NodeId size() const noexcept override {
    return static_cast<NodeId>(data_.size());
  }
  void get(NodeId v, BeliefVec& out) const override;
  void set(NodeId v, const BeliefVec& b) override;
  [[nodiscard]] std::uint64_t bytes() const noexcept override {
    return data_.size() * sizeof(BeliefVec);
  }
  void access_ranges(
      NodeId v, const std::function<void(MemRange)>& sink) const override;

 private:
  std::vector<BeliefVec> data_;
};

/// Struct-of-arrays: one flattened, parallel-indexed float array for all
/// probabilities plus a separate dimensions array. An access touches two
/// disjoint ranges (values slice + dimension entry).
class SoaBeliefStore final : public BeliefStore {
 public:
  SoaBeliefStore(NodeId n, std::uint32_t arity);

  [[nodiscard]] BeliefLayout layout() const noexcept override {
    return BeliefLayout::kSoa;
  }
  [[nodiscard]] NodeId size() const noexcept override {
    return static_cast<NodeId>(sizes_.size());
  }
  void get(NodeId v, BeliefVec& out) const override;
  void set(NodeId v, const BeliefVec& b) override;
  [[nodiscard]] std::uint64_t bytes() const noexcept override {
    return values_.size() * sizeof(float) +
           sizes_.size() * sizeof(std::uint32_t);
  }
  void access_ranges(
      NodeId v, const std::function<void(MemRange)>& sink) const override;

 private:
  std::vector<float> values_;       // n * stride_, parallel-indexed
  std::vector<std::uint32_t> sizes_;
  std::uint32_t stride_;
};

/// Factory keyed by layout.
[[nodiscard]] std::unique_ptr<BeliefStore> make_belief_store(
    BeliefLayout layout, NodeId n, std::uint32_t arity);

class FactorGraph;

/// The locality pass's arena form of AoS (DESIGN.md §5d): all beliefs in
/// one contiguous float buffer, each node occupying exactly
/// padded_states(arity) lanes at a prefix-sum offset, in the graph's
/// (possibly reordered) node order. Unlike AosBeliefStore — whose fixed
/// sizeof(BeliefVec) slots spend 132 bytes per node regardless of arity —
/// the arena packs an arity-4 node into 32 bytes, so a BFS/RCM ordering
/// puts ~4x more neighborhoods on every cache line. The cachesim reorder
/// experiment replays traversals against this layout. The engines' own
/// packed state (bp/runtime/belief_state.h) keeps one graph-wide stride
/// instead of these offsets.
class PackedAosBeliefStore final : public BeliefStore {
 public:
  /// Lays out one slot per node of `g`, in g's node order, initialized to
  /// g's priors.
  explicit PackedAosBeliefStore(const FactorGraph& g);

  [[nodiscard]] BeliefLayout layout() const noexcept override {
    return BeliefLayout::kAos;
  }
  [[nodiscard]] NodeId size() const noexcept override {
    return static_cast<NodeId>(sizes_.size());
  }
  void get(NodeId v, BeliefVec& out) const override;
  void set(NodeId v, const BeliefVec& b) override;
  [[nodiscard]] std::uint64_t bytes() const noexcept override {
    return values_.size() * sizeof(float) +
           offsets_.size() * sizeof(std::uint64_t) +
           sizes_.size() * sizeof(std::uint32_t);
  }
  void access_ranges(
      NodeId v, const std::function<void(MemRange)>& sink) const override;

  /// Offset (in floats) of node `v`'s slice inside the arena.
  [[nodiscard]] std::uint64_t offset(NodeId v) const noexcept {
    return offsets_[v];
  }

 private:
  std::vector<float> values_;            // sum of padded_states(arity)
  std::vector<std::uint64_t> offsets_;   // n + 1 prefix sums
  std::vector<std::uint32_t> sizes_;
};

}  // namespace credo::graph
