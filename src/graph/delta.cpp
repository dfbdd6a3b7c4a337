#include "graph/delta.h"

#include <algorithm>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "graph/reorder.h"

namespace credo::graph {

GraphDelta& GraphDelta::set_prior(NodeId node, const BeliefVec& prior) {
  Op op;
  op.kind = OpKind::kSetPrior;
  op.a = node;
  op.prior = prior;
  ops_.push_back(std::move(op));
  return *this;
}

GraphDelta& GraphDelta::observe(NodeId node, std::uint32_t state) {
  Op op;
  op.kind = OpKind::kObserve;
  op.a = node;
  op.state = state;
  ops_.push_back(std::move(op));
  return *this;
}

GraphDelta& GraphDelta::unobserve(NodeId node) {
  Op op;
  op.kind = OpKind::kUnobserve;
  op.a = node;
  ops_.push_back(std::move(op));
  return *this;
}

GraphDelta& GraphDelta::add_node(const BeliefVec& prior) {
  Op op;
  op.kind = OpKind::kAddNode;
  op.prior = prior;
  ops_.push_back(std::move(op));
  return *this;
}

GraphDelta& GraphDelta::remove_node(NodeId node) {
  Op op;
  op.kind = OpKind::kRemoveNode;
  op.a = node;
  ops_.push_back(std::move(op));
  return *this;
}

GraphDelta& GraphDelta::add_edge(NodeId u, NodeId v, const JointMatrix& m) {
  Op op;
  op.kind = OpKind::kAddEdge;
  op.a = u;
  op.b = v;
  op.joint = std::make_shared<const JointMatrix>(m);
  ops_.push_back(std::move(op));
  return *this;
}

GraphDelta& GraphDelta::add_edge(NodeId u, NodeId v) {
  Op op;
  op.kind = OpKind::kAddEdge;
  op.a = u;
  op.b = v;
  ops_.push_back(std::move(op));
  return *this;
}

GraphDelta& GraphDelta::remove_edge(NodeId u, NodeId v) {
  Op op;
  op.kind = OpKind::kRemoveEdge;
  op.a = u;
  op.b = v;
  ops_.push_back(std::move(op));
  return *this;
}

GraphDelta& GraphDelta::set_potential(NodeId u, NodeId v,
                                      const JointMatrix& m) {
  Op op;
  op.kind = OpKind::kSetPotential;
  op.a = u;
  op.b = v;
  op.joint = std::make_shared<const JointMatrix>(m);
  ops_.push_back(std::move(op));
  return *this;
}

bool GraphDelta::has_topology() const noexcept {
  for (const Op& op : ops_) {
    switch (op.kind) {
      case OpKind::kSetPrior:
      case OpKind::kObserve:
      case OpKind::kUnobserve:
        break;
      default:
        return true;
    }
  }
  return false;
}

/// FactorGraph's write seam for the one pass, mirroring ReorderAccess: the
/// one place outside GraphBuilder and the locality pass that assembles a
/// FactorGraph.
class DeltaAccess {
 public:
  static util::StatusOr<FactorGraph> apply(const FactorGraph& g,
                                           const GraphDelta& d,
                                           std::vector<std::uint8_t>* removed,
                                           std::vector<NodeId>* touched) {
    using K = GraphDelta::OpKind;
    const auto invalid = [](const char* msg) {
      return util::Status(util::StatusCode::kInvalidArgument, msg);
    };
    const bool topology = d.has_topology();
    if (topology && removed == nullptr) {
      return invalid(
          "GraphDelta: topology mutations cannot apply ephemerally to a "
          "static FactorGraph — route them through a graph::DynamicGraph");
    }
    CREDO_CHECK_MSG(!topology || g.permutation() == nullptr,
                    "topology deltas apply to graphs in original ids");
    const Permutation* perm = g.permutation();
    const auto id = [perm](NodeId v) {
      return perm != nullptr ? perm->to_new(v) : v;
    };
    const NodeId base_n = g.num_nodes();

    // Evidence-only: a copy that shares g's topology, joint store and
    // permutation, so only the node arrays are copied and rewritten.
    // A topology batch builds a fresh graph below, its node arrays
    // reserved once and the batch's new nodes appended first (new_node(j)
    // may be named before its add_node op).
    std::vector<NodeId> hit;
    hit.reserve(d.ops_.size() * 2);
    FactorGraph out;
    if (topology) {
      const auto adds = static_cast<std::size_t>(
          std::count_if(d.ops_.begin(), d.ops_.end(),
                        [](const GraphDelta::Op& op) {
                          return op.kind == K::kAddNode;
                        }));
      const auto reserved = [adds](const auto& from) {
        std::remove_cvref_t<decltype(from)> v;
        v.reserve(from.empty() ? 0 : from.size() + adds);
        v.insert(v.end(), from.begin(), from.end());
        return v;
      };
      out.priors_ = reserved(g.priors_);
      out.observed_ = reserved(g.observed_);
      out.names_ = reserved(g.names_);
      for (const GraphDelta::Op& op : d.ops_) {
        if (op.kind != K::kAddNode) continue;
        hit.push_back(static_cast<NodeId>(out.priors_.size()));
        out.priors_.push_back(op.prior);
        out.observed_.push_back(0);
        if (!out.names_.empty()) out.names_.emplace_back();
      }
    } else {
      out = g;
    }
    const NodeId n = out.num_nodes();
    // The version's retired flags by original id, published with it.
    std::vector<std::uint8_t> retired;
    if (removed != nullptr) retired = *removed;
    retired.resize(n, 0);

    // new_node(j) names the batch's j-th added node; a real id must name
    // one of g's nodes.
    const auto resolve = [base_n, n](NodeId v) -> std::optional<NodeId> {
      if (GraphDelta::is_pending(v)) {
        const NodeId j = v & ~GraphDelta::kPendingBit;
        if (j >= n - base_n) return std::nullopt;
        return base_n + j;
      }
      return v < base_n ? std::optional<NodeId>(v) : std::nullopt;
    };
    const auto arity = [&](NodeId v) { return out.arity(id(v)); };

    // Directed edges: ids [0, m) are g's, m + j the batch's j-th addition.
    // `joint` holds the added edges' matrices and set_potential rewrites
    // (per-edge stores); every other edge keeps g's.
    const auto m = static_cast<EdgeId>(g.num_edges());
    std::vector<DirectedEdge> added;
    std::vector<std::uint8_t> dead(topology ? m : 0, 0);
    std::unordered_map<EdgeId, std::shared_ptr<const JointMatrix>> joint;
    const auto find = [&](NodeId u, NodeId v) -> std::optional<EdgeId> {
      if (u < base_n) {
        for (const Csr::Entry& e : g.out_csr().neighbors(u)) {
          if (e.node == v && dead[e.edge] == 0) return e.edge;
        }
      }
      for (EdgeId j = 0; j < added.size(); ++j) {
        if (added[j].src == u && added[j].dst == v && dead[m + j] == 0) {
          return m + j;
        }
      }
      return std::nullopt;
    };
    const auto transposed = [](const JointMatrix& t) {
      return std::make_shared<const JointMatrix>(t.transposed());
    };
    const bool shared = g.joints_->is_shared();

    // Each op is checked against the version as built so far, then
    // applied; the first failure discards the version, `hit` and
    // `retired` with it.
    for (const GraphDelta::Op& op : d.ops_) {
      if (op.kind == K::kAddNode) {
        if (op.prior.size == 0 || op.prior.size > kMaxStates) {
          return invalid("GraphDelta: add_node prior arity out of range");
        }
        continue;  // appended above
      }
      const bool edge_op = op.kind == K::kAddEdge ||
                           op.kind == K::kRemoveEdge ||
                           op.kind == K::kSetPotential;
      const auto ra = resolve(op.a);
      const auto rb = edge_op ? resolve(op.b) : ra;
      if (!ra || !rb) return invalid("GraphDelta: node id out of range");
      const NodeId a = *ra;
      const NodeId b = *rb;
      hit.push_back(a);  // b == a for node ops
      hit.push_back(b);
      switch (op.kind) {
        case K::kSetPrior:
          if (retired[a] != 0) {
            return invalid("GraphDelta: set_prior on a removed node");
          }
          if (op.prior.size != arity(a)) {
            return invalid("GraphDelta: set_prior arity mismatch");
          }
          if (out.observed(id(a))) {
            return invalid(
                "GraphDelta: set_prior on an observed node (unobserve it "
                "first — observed beliefs are pinned)");
          }
          out.priors_[id(a)] = op.prior;
          break;
        case K::kObserve:
          if (retired[a] != 0) {
            return invalid("GraphDelta: observe on a removed node");
          }
          if (op.state >= arity(a)) {
            return invalid("GraphDelta: observed state out of range");
          }
          out.priors_[id(a)] = BeliefVec::observed(arity(a), op.state);
          out.observed_[id(a)] = 1;
          break;
        case K::kUnobserve:
          if (retired[a] != 0) {
            return invalid("GraphDelta: unobserve on a removed node");
          }
          out.priors_[id(a)] = BeliefVec::uniform(arity(a));
          out.observed_[id(a)] = 0;
          break;
        case K::kAddNode:
          break;  // checked above
        case K::kRemoveNode: {
          if (GraphDelta::is_pending(op.a)) {
            return invalid(
                "GraphDelta: remove_node on a node added in the same delta");
          }
          if (retired[a] != 0) {
            return invalid(
                "GraphDelta: remove_node on an already-removed node");
          }
          // The retiring node's neighbors lose an edge: they are perturbed
          // even though no op names them, so they must seed the frontier.
          // Its edges die with it, those this batch added included.
          const auto kill = [&](EdgeId e, NodeId other) {
            if (dead[e] != 0) return;
            dead[e] = 1;
            hit.push_back(other);
          };
          for (const Csr::Entry& e : g.out_csr().neighbors(a)) {
            kill(e.edge, e.node);
          }
          for (const Csr::Entry& e : g.in_csr().neighbors(a)) {
            kill(e.edge, e.node);
          }
          for (EdgeId j = 0; j < added.size(); ++j) {
            if (added[j].src == a) kill(m + j, added[j].dst);
            if (added[j].dst == a) kill(m + j, added[j].src);
          }
          out.priors_[a] = BeliefVec::observed(arity(a), 0);
          out.observed_[a] = 1;
          retired[a] = 1;
          break;
        }
        case K::kAddEdge: {
          if (a == b) return invalid("GraphDelta: add_edge self-loop");
          if (retired[a] != 0 || retired[b] != 0) {
            return invalid("GraphDelta: add_edge endpoint is a removed node");
          }
          if (find(a, b) || find(b, a)) {
            return invalid(
                "GraphDelta: add_edge duplicate — edge already live");
          }
          if (shared) {
            if (op.joint != nullptr) {
              return invalid(
                  "GraphDelta: shared-joint graph — use the matrix-free "
                  "add_edge overload");
            }
            const JointMatrix& sm = g.joints_->shared_matrix();
            if (sm.rows != arity(a) || sm.cols != arity(b)) {
              return invalid(
                  "GraphDelta: add_edge arity does not match the shared "
                  "joint");
            }
          } else {
            if (op.joint == nullptr) {
              return invalid(
                  "GraphDelta: per-edge graph — add_edge needs a matrix");
            }
            if (op.joint->rows != arity(a) || op.joint->cols != arity(b)) {
              return invalid("GraphDelta: add_edge matrix shape mismatch");
            }
            const auto e = m + static_cast<EdgeId>(added.size());
            joint[e] = op.joint;
            joint[e + 1] = transposed(*op.joint);
          }
          added.push_back(DirectedEdge{a, b});
          added.push_back(DirectedEdge{b, a});
          dead.resize(dead.size() + 2, 0);
          break;
        }
        case K::kRemoveEdge: {
          const auto ab = find(a, b);
          const auto ba = find(b, a);
          if (!ab && !ba) {
            return invalid("GraphDelta: remove_edge on an absent edge");
          }
          if (ab) dead[*ab] = 1;
          if (ba) dead[*ba] = 1;
          break;
        }
        case K::kSetPotential: {
          if (shared) {
            return invalid(
                "GraphDelta: set_potential on a shared-joint graph (the "
                "matrix is global — rebuild instead)");
          }
          const auto ab = find(a, b);
          if (!ab) {
            return invalid("GraphDelta: set_potential on an absent edge");
          }
          if (op.joint->rows != arity(a) || op.joint->cols != arity(b)) {
            return invalid("GraphDelta: set_potential matrix shape mismatch");
          }
          joint[*ab] = op.joint;
          if (const auto ba = find(b, a)) joint[*ba] = transposed(*op.joint);
          break;
        }
      }
    }

    // Every op passed: publish the flags and the frontier with the version.
    if (removed != nullptr) *removed = std::move(retired);
    if (touched != nullptr) {
      std::sort(hit.begin(), hit.end());
      hit.erase(std::unique(hit.begin(), hit.end()), hit.end());
      *touched = std::move(hit);
    }
    if (!topology) return out;

    // Builder order: each source row keeps its surviving edges in order,
    // followed by the batch's new edges in op order — what GraphBuilder's
    // stable by-source sort makes of the same insertion sequence. One pass
    // over g's out-CSR; only the batch's additions are sorted.
    std::vector<EdgeId> fresh(added.size());
    for (EdgeId j = 0; j < added.size(); ++j) fresh[j] = j;
    std::stable_sort(fresh.begin(), fresh.end(), [&](EdgeId x, EdgeId y) {
      return added[x].src < added[y].src;
    });
    std::vector<JointMatrix> joints;
    std::vector<DirectedEdge> edges;
    edges.reserve(m + added.size());
    if (!shared) joints.reserve(m + added.size());
    std::size_t next = 0;
    for (NodeId r = 0; r < n; ++r) {
      if (r < base_n) {
        for (const Csr::Entry& e : g.out_csr().neighbors(r)) {
          if (dead[e.edge] != 0) continue;
          edges.push_back(DirectedEdge{r, e.node});
          if (shared) continue;
          const auto it = joint.find(e.edge);
          joints.push_back(it != joint.end() ? *it->second
                                             : g.joints_->at(e.edge));
        }
      }
      for (; next < fresh.size() && added[fresh[next]].src == r; ++next) {
        const EdgeId j = fresh[next];
        if (dead[m + j] != 0) continue;
        edges.push_back(added[j]);
        if (!shared) joints.push_back(*joint.at(m + j));
      }
    }
    out.joints_ = shared ? g.joints_
                         : std::make_shared<const JointStore>(
                               JointStore::per_edge_from(std::move(joints)));
    out.set_edges(std::move(edges), n);
    out.family_ = g.family_;
    return out;
  }
};

util::StatusOr<FactorGraph> GraphDelta::applied(
    const FactorGraph& g, std::vector<std::uint8_t>* removed,
    std::vector<NodeId>* touched) const {
  return DeltaAccess::apply(g, *this, removed, touched);
}

FactorGraph with_delta(const FactorGraph& g, const GraphDelta& d,
                       std::vector<NodeId>* touched) {
  util::StatusOr<FactorGraph> next = d.applied(g, nullptr, touched);
  if (!next.is_ok()) throw util::InvalidArgument(next.status().message());
  return std::move(next).value();
}

}  // namespace credo::graph
