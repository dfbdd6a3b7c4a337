#include "graph/delta.h"

#include <algorithm>
#include <map>
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

std::vector<NodeId> GraphDelta::touched() const {
  std::vector<NodeId> nodes;
  nodes.reserve(ops_.size() * 2);
  for (const Op& op : ops_) {
    if (op.kind == OpKind::kAddNode) continue;
    if (!is_pending(op.a)) nodes.push_back(op.a);
    if (op.kind == OpKind::kAddEdge || op.kind == OpKind::kRemoveEdge ||
        op.kind == OpKind::kSetPotential) {
      if (!is_pending(op.b)) nodes.push_back(op.b);
    }
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

namespace {

constexpr const char* kTopologyNeedsDynamic =
    "GraphDelta: topology mutations cannot apply ephemerally to a static "
    "FactorGraph — route them through a graph::DynamicGraph";

/// True when a directed edge src->dst exists in `g` (ids as stored).
bool has_directed(const FactorGraph& g, NodeId src, NodeId dst) noexcept {
  for (const Csr::Entry& e : g.out_csr().neighbors(src)) {
    if (e.node == dst) return true;
  }
  return false;
}

}  // namespace

util::Status GraphDelta::validate(const FactorGraph& g) const noexcept {
  if (has_topology()) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        kTopologyNeedsDynamic);
  }
  return check(g, {});
}

util::Status GraphDelta::check(const FactorGraph& g,
                               std::span<const std::uint8_t> removed) const {
  using K = OpKind;
  const auto invalid = [](const char* msg) {
    return util::Status(util::StatusCode::kInvalidArgument, msg);
  };
  const Permutation* perm = g.permutation();
  const auto id = [perm](NodeId v) {
    return perm != nullptr ? perm->to_new(v) : v;
  };

  // Priors of the nodes this delta adds, in add order — new_node(j)
  // references added[j] regardless of where the add_node op sits.
  std::vector<const BeliefVec*> added;
  for (const Op& op : ops_) {
    if (op.kind == K::kAddNode) added.push_back(&op.prior);
  }

  const NodeId base_n = g.num_nodes();
  const auto resolve = [&](NodeId v) -> std::optional<NodeId> {
    if (is_pending(v)) {
      const std::uint32_t j = v & ~kPendingBit;
      if (j >= added.size()) return std::nullopt;
      return base_n + j;
    }
    return v < base_n ? std::optional<NodeId>(v) : std::nullopt;
  };
  const auto arity_of = [&](NodeId v) {
    return v < base_n ? g.arity(id(v)) : added[v - base_n]->size;
  };

  // Evolving state through the op list: observation flags, removals, and
  // edge liveness overrides (canonical unordered pair), falling back to
  // the graph for anything no earlier op touched.
  std::unordered_map<NodeId, bool> obs;
  std::unordered_map<NodeId, bool> rem;
  std::map<std::pair<NodeId, NodeId>, bool> elive;
  const auto pair_key = [](NodeId u, NodeId v) {
    return std::make_pair(std::min(u, v), std::max(u, v));
  };
  const auto observed_now = [&](NodeId v) {
    const auto it = obs.find(v);
    if (it != obs.end()) return it->second;
    return v < base_n && g.observed(id(v));
  };
  const auto removed_now = [&](NodeId v) {
    const auto it = rem.find(v);
    if (it != rem.end()) return it->second;
    return v < removed.size() && removed[v] != 0;
  };
  const auto edge_live = [&](NodeId u, NodeId v) {
    const auto it = elive.find(pair_key(u, v));
    if (it != elive.end()) return it->second;
    return u < base_n && v < base_n &&
           (has_directed(g, u, v) || has_directed(g, v, u));
  };
  const bool shared = g.joints().is_shared();

  for (const Op& op : ops_) {
    if (op.kind == K::kAddNode) {
      if (op.prior.size == 0 || op.prior.size > kMaxStates) {
        return invalid("GraphDelta: add_node prior arity out of range");
      }
      continue;
    }
    const auto a = resolve(op.a);
    if (!a.has_value()) return invalid("GraphDelta: node id out of range");
    switch (op.kind) {
      case K::kSetPrior:
        if (removed_now(*a)) {
          return invalid("GraphDelta: set_prior on a removed node");
        }
        if (op.prior.size != arity_of(*a)) {
          return invalid("GraphDelta: set_prior arity mismatch");
        }
        if (observed_now(*a)) {
          return invalid(
              "GraphDelta: set_prior on an observed node (unobserve it "
              "first — observed beliefs are pinned)");
        }
        break;
      case K::kObserve:
        if (removed_now(*a)) {
          return invalid("GraphDelta: observe on a removed node");
        }
        if (op.state >= arity_of(*a)) {
          return invalid("GraphDelta: observed state out of range");
        }
        obs[*a] = true;
        break;
      case K::kUnobserve:
        if (removed_now(*a)) {
          return invalid("GraphDelta: unobserve on a removed node");
        }
        obs[*a] = false;
        break;
      case K::kRemoveNode: {
        if (is_pending(op.a)) {
          return invalid(
              "GraphDelta: remove_node on a node added in the same delta");
        }
        if (removed_now(*a)) {
          return invalid("GraphDelta: remove_node on an already-removed node");
        }
        rem[*a] = true;
        obs[*a] = true;
        // Its incident edges die with it, those this delta added included;
        // record so a later op in this delta sees them gone.
        for (const Csr::Entry& e : g.out_csr().neighbors(*a)) {
          elive[pair_key(*a, e.node)] = false;
        }
        for (const Csr::Entry& e : g.in_csr().neighbors(*a)) {
          elive[pair_key(*a, e.node)] = false;
        }
        for (auto& [edge, live] : elive) {
          if (edge.first == *a || edge.second == *a) live = false;
        }
        break;
      }
      case K::kAddEdge: {
        const auto b = resolve(op.b);
        if (!b.has_value()) return invalid("GraphDelta: node id out of range");
        if (*a == *b) return invalid("GraphDelta: add_edge self-loop");
        if (removed_now(*a) || removed_now(*b)) {
          return invalid("GraphDelta: add_edge endpoint is a removed node");
        }
        if (edge_live(*a, *b)) {
          return invalid("GraphDelta: add_edge duplicate — edge already live");
        }
        if (shared) {
          if (op.joint != nullptr) {
            return invalid(
                "GraphDelta: shared-joint graph — use the matrix-free "
                "add_edge overload");
          }
          const JointMatrix& m = g.joints().shared_matrix();
          if (m.rows != arity_of(*a) || m.cols != arity_of(*b)) {
            return invalid(
                "GraphDelta: add_edge arity does not match the shared joint");
          }
        } else {
          if (op.joint == nullptr) {
            return invalid(
                "GraphDelta: per-edge graph — add_edge needs a matrix");
          }
          if (op.joint->rows != arity_of(*a) ||
              op.joint->cols != arity_of(*b)) {
            return invalid("GraphDelta: add_edge matrix shape mismatch");
          }
        }
        elive[pair_key(*a, *b)] = true;
        break;
      }
      case K::kRemoveEdge: {
        const auto b = resolve(op.b);
        if (!b.has_value()) return invalid("GraphDelta: node id out of range");
        if (!edge_live(*a, *b)) {
          return invalid("GraphDelta: remove_edge on an absent edge");
        }
        elive[pair_key(*a, *b)] = false;
        break;
      }
      case K::kSetPotential: {
        const auto b = resolve(op.b);
        if (!b.has_value()) return invalid("GraphDelta: node id out of range");
        if (shared) {
          return invalid(
              "GraphDelta: set_potential on a shared-joint graph (the "
              "matrix is global — rebuild instead)");
        }
        const auto it = elive.find(pair_key(*a, *b));
        const bool live = it != elive.end()
                              ? it->second
                              : *a < base_n && *b < base_n &&
                                    has_directed(g, *a, *b);
        if (!live) {
          return invalid("GraphDelta: set_potential on an absent edge");
        }
        if (op.joint->rows != arity_of(*a) || op.joint->cols != arity_of(*b)) {
          return invalid("GraphDelta: set_potential matrix shape mismatch");
        }
        break;
      }
      case K::kAddNode:
        break;  // handled above
    }
  }
  return util::Status::ok();
}

/// FactorGraph's write seam for the applier, mirroring ReorderAccess: the
/// one place outside GraphBuilder and the locality pass that assembles a
/// FactorGraph.
class DeltaAccess {
 public:
  static FactorGraph apply(const FactorGraph& g, const GraphDelta& d,
                           std::vector<std::uint8_t>* removed,
                           std::vector<NodeId>* touched) {
    using K = GraphDelta::OpKind;
    const bool topology = d.has_topology();
    CREDO_CHECK_MSG(!topology || g.permutation() == nullptr,
                    "topology deltas apply to graphs in original ids");
    const Permutation* perm = g.permutation();
    const auto id = [perm](NodeId v) {
      return perm != nullptr ? perm->to_new(v) : v;
    };
    const NodeId base_n = g.num_nodes();
    const auto resolve = [base_n](NodeId v) {
      return GraphDelta::is_pending(v)
                 ? base_n + (v & ~GraphDelta::kPendingBit)
                 : v;
    };

    // Evidence-only: a structural copy with the node arrays rewritten.
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
      if (removed != nullptr) removed->resize(base_n + adds, 0);
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

    // Directed edges: ids [0, m) are g's, m + j the batch's j-th addition.
    // `joint` holds the added edges' matrices and set_potential rewrites
    // (per-edge stores); every other edge keeps g's.
    const auto m = static_cast<EdgeId>(g.num_edges());
    std::vector<DirectedEdge> added;
    std::vector<std::uint8_t> dead(topology ? m : 0, 0);
    std::unordered_map<EdgeId, std::shared_ptr<const JointMatrix>> joint;
    const auto find = [&](NodeId u, NodeId v) -> std::optional<EdgeId> {
      if (u < base_n) {
        for (const Csr::Entry& e : g.out_csr_.neighbors(u)) {
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

    for (const GraphDelta::Op& op : d.ops_) {
      const NodeId a = resolve(op.a);
      const NodeId b = resolve(op.b);
      switch (op.kind) {
        case K::kSetPrior:
          hit.push_back(a);
          out.priors_[id(a)] = op.prior;
          break;
        case K::kObserve:
          hit.push_back(a);
          out.priors_[id(a)] =
              BeliefVec::observed(out.priors_[id(a)].size, op.state);
          out.observed_[id(a)] = 1;
          break;
        case K::kUnobserve:
          hit.push_back(a);
          out.priors_[id(a)] = BeliefVec::uniform(out.priors_[id(a)].size);
          out.observed_[id(a)] = 0;
          break;
        case K::kAddNode:
          break;  // appended above
        case K::kRemoveNode: {
          // The retiring node's neighbors lose an edge: they are perturbed
          // even though no op names them, so they must seed the frontier.
          hit.push_back(a);
          const auto kill = [&](EdgeId e, NodeId other) {
            if (dead[e] != 0) return;
            dead[e] = 1;
            hit.push_back(other);
          };
          for (const Csr::Entry& e : g.out_csr_.neighbors(a)) {
            kill(e.edge, e.node);
          }
          for (const Csr::Entry& e : g.in_csr_.neighbors(a)) {
            kill(e.edge, e.node);
          }
          for (EdgeId j = 0; j < added.size(); ++j) {
            if (added[j].src == a) kill(m + j, added[j].dst);
            if (added[j].dst == a) kill(m + j, added[j].src);
          }
          out.priors_[a] = BeliefVec::observed(out.priors_[a].size, 0);
          out.observed_[a] = 1;
          if (removed != nullptr) (*removed)[a] = 1;
          break;
        }
        case K::kAddEdge: {
          hit.push_back(a);
          hit.push_back(b);
          if (op.joint != nullptr) {
            joint[m + static_cast<EdgeId>(added.size())] = op.joint;
            joint[m + static_cast<EdgeId>(added.size()) + 1] =
                transposed(*op.joint);
          }
          added.push_back(DirectedEdge{a, b});
          added.push_back(DirectedEdge{b, a});
          dead.resize(dead.size() + 2, 0);
          break;
        }
        case K::kRemoveEdge:
          hit.push_back(a);
          hit.push_back(b);
          if (const auto e = find(a, b)) dead[*e] = 1;
          if (const auto e = find(b, a)) dead[*e] = 1;
          break;
        case K::kSetPotential:
          hit.push_back(a);
          hit.push_back(b);
          if (const auto e = find(a, b)) joint[*e] = op.joint;
          if (const auto e = find(b, a)) joint[*e] = transposed(*op.joint);
          break;
      }
    }
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
    const NodeId n = out.num_nodes();
    std::vector<EdgeId> fresh(added.size());
    for (EdgeId j = 0; j < added.size(); ++j) fresh[j] = j;
    std::stable_sort(fresh.begin(), fresh.end(), [&](EdgeId x, EdgeId y) {
      return added[x].src < added[y].src;
    });
    const bool per_edge = !g.joints_->is_shared();
    std::vector<JointMatrix> joints;
    out.edges_.reserve(m + added.size());
    if (per_edge) joints.reserve(m + added.size());
    std::size_t next = 0;
    for (NodeId r = 0; r < n; ++r) {
      if (r < base_n) {
        for (const Csr::Entry& e : g.out_csr_.neighbors(r)) {
          if (dead[e.edge] != 0) continue;
          out.edges_.push_back(DirectedEdge{r, e.node});
          if (!per_edge) continue;
          const auto it = joint.find(e.edge);
          joints.push_back(it != joint.end() ? *it->second
                                             : g.joints_->at(e.edge));
        }
      }
      for (; next < fresh.size() && added[fresh[next]].src == r; ++next) {
        const EdgeId j = fresh[next];
        if (dead[m + j] != 0) continue;
        out.edges_.push_back(added[j]);
        if (per_edge) joints.push_back(*joint.at(m + j));
      }
    }
    out.joints_ = per_edge ? std::make_shared<const JointStore>(
                                 JointStore::per_edge_from(std::move(joints)))
                           : g.joints_;
    out.in_csr_ = Csr::by_target(n, out.edges_);
    out.out_csr_ = Csr::by_source(n, out.edges_);
    out.family_ = g.family_;
    return out;
  }
};

FactorGraph GraphDelta::applied(const FactorGraph& g,
                                std::vector<std::uint8_t>* removed,
                                std::vector<NodeId>* touched) const {
  return DeltaAccess::apply(g, *this, removed, touched);
}

FactorGraph with_delta(const FactorGraph& g, const GraphDelta& d) {
  if (const util::Status s = d.validate(g); !s.is_ok()) {
    throw util::InvalidArgument(s.message());
  }
  return d.applied(g, nullptr, nullptr);
}

}  // namespace credo::graph
