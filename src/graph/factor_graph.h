// The in-memory graph representation all engines operate on.
//
// A FactorGraph is an MRF/Bayesian-network-style graph of discrete random
// variables: per node a prior and a current belief vector (AoS layout, the
// winner of the §3.4 study), a directed edge list with CSR indices in both
// orientations, and a JointStore holding either one conditional-probability
// matrix per edge (the original formulation) or a single shared matrix
// (the §2.2 large-graph refinement).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/belief.h"
#include "graph/csr.h"
#include "util/error.h"

namespace credo::graph {

/// The message-kernel family a graph's factors belong to (DESIGN.md §5g).
/// Tabular factors carry dense conditional-probability tables (the paper's
/// formulation); the LDPC families carry *no* table — edges are parity
/// constraints and the check/variable updates are closed-form tanh-domain
/// kernels driven by the Tanner-graph structure alone. Dispatch is
/// per-graph (enum + branch at loop setup), never per-edge, so the tabular
/// hot path is untouched by the seam.
enum class FactorFamily : std::uint8_t {
  kTabular = 0,         // dense joint-probability tables (JointStore)
  kLdpcSumProduct = 1,  // exact tanh-domain check update
  kLdpcMinSum = 2,      // min-sum (two-min) approximation
};

/// True for the closed-form LDPC decode families.
[[nodiscard]] constexpr bool is_ldpc(FactorFamily f) noexcept {
  return f == FactorFamily::kLdpcSumProduct ||
         f == FactorFamily::kLdpcMinSum;
}

/// Canonical slug for a family ("tabular", "ldpc-sum-product",
/// "ldpc-min-sum") — the vocabulary of `--family`, `credo info` and the
/// MTX `%%family` extension header.
[[nodiscard]] std::string_view family_name(FactorFamily f) noexcept;

/// Parses a family slug; accepts "ldpc" as an alias for "ldpc-sum-product".
/// nullopt for unknown names.
[[nodiscard]] std::optional<FactorFamily> family_from_name(
    std::string_view name) noexcept;

/// Vertex orderings of the locality pass (graph/reorder.h, DESIGN.md §5d).
/// The enum lives here because FactorGraph records which ordering it was
/// built under; the algorithms live in reorder.{h,cpp}.
enum class ReorderMode : std::uint8_t {
  kNone = 0,    // parse/build order, edges sorted by source (the seed form)
  kBfs = 1,     // breadth-first per component
  kRcm = 2,     // reverse Cuthill-McKee
  kDegree = 3,  // descending-degree pack (fallback for disconnected hubs)
};

class Permutation;  // graph/reorder.h

/// Storage for edge conditional-probability matrices. One matrix per
/// directed edge, a single matrix shared by every edge (§2.2; what the GPU
/// engines place in constant memory, §3.6), or *no* matrices at all for
/// closed-form factor families whose updates are computed from structure
/// (LDPC, DESIGN.md §5g).
class JointStore {
 public:
  /// Creates a per-edge store (matrices added through push_back).
  static JointStore per_edge() { return JointStore(Mode::kPerEdge); }

  /// Creates a per-edge store by taking ownership of a prepared vector
  /// (no per-matrix copies — matters at ~4 KiB per matrix).
  static JointStore per_edge_from(std::vector<JointMatrix>&& ms) {
    JointStore s(Mode::kPerEdge);
    s.per_edge_ = std::move(ms);
    return s;
  }

  /// Creates a shared store with the given matrix.
  static JointStore shared(const JointMatrix& m) {
    JointStore s(Mode::kShared);
    s.shared_ = m;
    return s;
  }

  /// Creates an empty store for closed-form families: edges carry no
  /// tables, so the payload is genuinely zero bytes.
  static JointStore closed_form() { return JointStore(Mode::kClosedForm); }

  [[nodiscard]] bool is_shared() const noexcept {
    return mode_ == Mode::kShared;
  }
  [[nodiscard]] bool is_closed_form() const noexcept {
    return mode_ == Mode::kClosedForm;
  }

  /// Matrix for directed edge `e`. Must not be called on a closed-form
  /// store — those edges have no table (the engines dispatch per graph
  /// before ever touching this accessor).
  [[nodiscard]] const JointMatrix& at(EdgeId e) const noexcept {
    return is_shared() ? shared_ : per_edge_[e];
  }

  /// Shared matrix accessor; only valid when is_shared().
  [[nodiscard]] const JointMatrix& shared_matrix() const {
    CREDO_CHECK(is_shared());
    return shared_;
  }

  /// Appends a per-edge matrix; only valid in per-edge mode.
  void push_back(const JointMatrix& m) {
    CREDO_CHECK(mode_ == Mode::kPerEdge);
    per_edge_.push_back(m);
  }

  [[nodiscard]] std::size_t per_edge_count() const noexcept {
    return per_edge_.size();
  }

  /// Total bytes of probability-table payload (the dominant memory term the
  /// §2.2 refinement eliminates). Per-family accounting: closed-form
  /// stores hold no tables and honestly report zero.
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    switch (mode_) {
      case Mode::kShared: return sizeof(JointMatrix);
      case Mode::kClosedForm: return 0;
      case Mode::kPerEdge: break;
    }
    return per_edge_.size() * sizeof(JointMatrix);
  }

 private:
  enum class Mode : std::uint8_t { kPerEdge, kShared, kClosedForm };

  explicit JointStore(Mode mode) : mode_(mode) {}

  Mode mode_;
  JointMatrix shared_{};
  std::vector<JointMatrix> per_edge_;
};

/// An immutable belief network ready for propagation. Construct through
/// GraphBuilder or a generator; engines read the structure and write only
/// the mutable belief state they copy out.
class FactorGraph {
 public:
  FactorGraph() = default;

  [[nodiscard]] NodeId num_nodes() const noexcept {
    return static_cast<NodeId>(priors_.size());
  }
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return topo_->edges.size();
  }

  /// Arity (number of states) of node `v`.
  [[nodiscard]] std::uint32_t arity(NodeId v) const noexcept {
    return priors_[v].size;
  }

  [[nodiscard]] const BeliefVec& prior(NodeId v) const noexcept {
    return priors_[v];
  }

  /// True when `v` was observed: its belief is statically fixed and engines
  /// must not update it (§3.3).
  [[nodiscard]] bool observed(NodeId v) const noexcept {
    return observed_[v] != 0;
  }

  [[nodiscard]] const std::vector<DirectedEdge>& edges() const noexcept {
    return topo_->edges;
  }
  [[nodiscard]] const DirectedEdge& edge(EdgeId e) const noexcept {
    return topo_->edges[e];
  }

  /// In-edge index: in_csr().neighbors(v) are the parents the Node engine
  /// pulls from.
  [[nodiscard]] const Csr& in_csr() const noexcept { return topo_->in; }
  /// Out-edge index.
  [[nodiscard]] const Csr& out_csr() const noexcept { return topo_->out; }

  [[nodiscard]] const JointStore& joints() const noexcept { return *joints_; }

  /// The joint store as a shareable handle (graph copies and the evidence
  /// overlay share one immutable table payload — ~4 KiB per edge for
  /// per-edge tabular stores; see graph/delta.h).
  [[nodiscard]] const std::shared_ptr<const JointStore>& joints_ptr()
      const noexcept {
    return joints_;
  }

  /// Node names, if the input carried them (BIF does; MTX-belief carries
  /// numeric ids only). Empty when absent.
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// A fresh mutable belief state: every unobserved node starts at its
  /// prior, observed nodes at their fixed point-mass.
  [[nodiscard]] std::vector<BeliefVec> initial_beliefs() const {
    return priors_;
  }

  /// Total resident bytes of the representation (indices + payloads),
  /// reported by the memory-footprint benches.
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept;

  /// Which locality ordering this graph was built under (kNone unless it
  /// went through graph::reordered).
  [[nodiscard]] ReorderMode reorder_mode() const noexcept {
    return reorder_;
  }

  /// The recorded original-id -> internal-id permutation, or nullptr when
  /// node ids are the caller's own (kNone). Engine::run uses this to map
  /// result beliefs back to original ids.
  [[nodiscard]] const Permutation* permutation() const noexcept {
    return perm_.get();
  }

  /// Which message-kernel family this graph's factors belong to. Engines
  /// branch on this once at loop setup (DESIGN.md §5g).
  [[nodiscard]] FactorFamily family() const noexcept { return family_; }

  /// LDPC families only: the node-id convention is variables (code bits)
  /// first — ids [0, ldpc_variables()) — then parity checks — ids
  /// [ldpc_variables(), num_nodes()). Zero for tabular graphs.
  [[nodiscard]] NodeId ldpc_variables() const noexcept {
    return ldpc_variables_;
  }

 private:
  friend class GraphBuilder;
  friend class ReorderAccess;  // graph/reorder.cpp
  friend class DeltaAccess;    // graph/delta.cpp

  /// The structure: the directed edge list, sorted as its builder left it,
  /// and its CSR indices in both orientations. Immutable once built and
  /// shared like the joint store, so a graph copy that changes only
  /// evidence (graph::with_delta) copies none of it.
  struct Topology {
    std::vector<DirectedEdge> edges;
    Csr in;
    Csr out;
  };

  /// Publishes `edges` with both CSRs built over `num_nodes` nodes.
  void set_edges(std::vector<DirectedEdge> edges, NodeId num_nodes);

  std::vector<BeliefVec> priors_;
  std::vector<std::uint8_t> observed_;
  std::vector<std::string> names_;
  std::shared_ptr<const Topology> topo_ = empty_topology();
  std::shared_ptr<const JointStore> joints_ =
      std::make_shared<JointStore>(JointStore::per_edge());
  ReorderMode reorder_ = ReorderMode::kNone;
  std::shared_ptr<const Permutation> perm_;
  FactorFamily family_ = FactorFamily::kTabular;
  NodeId ldpc_variables_ = 0;

  static const std::shared_ptr<const Topology>& empty_topology();
};

}  // namespace credo::graph
