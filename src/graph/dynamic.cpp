#include "graph/dynamic.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <numeric>
#include <unordered_map>
#include <utility>

namespace credo::graph {

namespace {

JointMatrix transpose(const JointMatrix& m) {
  JointMatrix t(m.cols, m.rows);
  for (std::uint32_t i = 0; i < m.rows; ++i) {
    for (std::uint32_t j = 0; j < m.cols; ++j) t.at(j, i) = m.at(i, j);
  }
  return t;
}

}  // namespace

/// Private-member access seam, mirroring ReorderAccess/EvidenceAccess: the
/// one place a FactorGraph is assembled outside GraphBuilder's finalize.
class DynamicAccess {
 public:
  static std::shared_ptr<const FactorGraph> build(
      std::vector<BeliefVec> priors, std::vector<std::uint8_t> observed,
      std::vector<std::string> names, std::vector<DirectedEdge> edges,
      JointStore&& joints, ReorderMode mode,
      std::shared_ptr<const Permutation> perm) {
    auto g = std::make_shared<FactorGraph>();
    const NodeId n = static_cast<NodeId>(priors.size());
    g->in_csr_ = Csr::by_target(n, edges);
    g->out_csr_ = Csr::by_source(n, edges);
    g->priors_ = std::move(priors);
    g->observed_ = std::move(observed);
    g->names_ = std::move(names);
    g->edges_ = std::move(edges);
    g->joints_ = std::make_shared<const JointStore>(std::move(joints));
    g->reorder_ = mode;
    g->perm_ = std::move(perm);
    g->family_ = FactorFamily::kTabular;
    return g;
  }
};

DynamicGraph DynamicGraph::from_graph(const FactorGraph& g,
                                      DynamicOptions opts) {
  if (is_ldpc(g.family()) || g.joints().is_closed_form()) {
    throw util::InvalidArgument(
        "DynamicGraph: closed-form (LDPC) graphs encode a fixed code and "
        "cannot be mutated");
  }
  DynamicGraph dg;
  dg.opts_ = opts;

  const NodeId n = g.num_nodes();
  const Permutation* p = g.permutation();

  // Fold any recorded permutation out: the DynamicGraph speaks original ids.
  std::vector<BeliefVec> priors = g.initial_beliefs();
  std::vector<std::uint8_t> observed(n, 0);
  for (NodeId v = 0; v < n; ++v) observed[v] = g.observed(v) ? 1 : 0;
  dg.priors_ = p != nullptr ? p->unapply(priors) : std::move(priors);
  dg.observed_ = p != nullptr ? p->unapply(observed) : std::move(observed);
  dg.names_ = g.names().empty()
                  ? std::vector<std::string>{}
                  : (p != nullptr ? p->unapply(g.names()) : g.names());
  dg.removed_.assign(n, 0);

  dg.eslots_.reserve(g.num_edges());
  for (const DirectedEdge& e : g.edges()) {
    dg.eslots_.push_back(p != nullptr
                             ? DirectedEdge{p->to_old(e.src), p->to_old(e.dst)}
                             : e);
  }
  dg.elive_.assign(dg.eslots_.size(), 1);
  dg.live_edges_ = dg.eslots_.size();
  if (g.joints().is_shared()) {
    dg.shared_ = g.joints().shared_matrix();
  } else {
    dg.ejoint_.reserve(dg.eslots_.size());
    for (EdgeId e = 0; e < dg.eslots_.size(); ++e) {
      dg.ejoint_.push_back(g.joints().at(e));
    }
  }

  dg.out_ = MutableCsr::build(n, dg.eslots_, /*by_source=*/true,
                              opts.row_slack);
  dg.in_ = MutableCsr::build(n, dg.eslots_, /*by_source=*/false,
                             opts.row_slack);

  if (opts.reorder != ReorderMode::kNone) {
    dg.perm_ = std::make_shared<const Permutation>(
        compute_order(opts.reorder, n, dg.eslots_));
    dg.span_at_compact_ = dg.mean_edge_span();
  }
  return dg;
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const noexcept {
  return out_.contains(u, v) || out_.contains(v, u);
}

double DynamicGraph::dead_fraction() const noexcept {
  return std::max(out_.dead_fraction(), in_.dead_fraction());
}

double DynamicGraph::mean_edge_span() const noexcept {
  if (live_edges_ == 0) return 0.0;
  double sum = 0.0;
  for (EdgeId s = 0; s < eslots_.size(); ++s) {
    if (elive_[s] == 0) continue;
    NodeId u = eslots_[s].src;
    NodeId v = eslots_[s].dst;
    if (perm_ != nullptr) {
      u = perm_->to_new(u);
      v = perm_->to_new(v);
    }
    sum += std::abs(static_cast<double>(u) - static_cast<double>(v));
  }
  return sum / static_cast<double>(live_edges_);
}

std::optional<EdgeId> DynamicGraph::find_slot(NodeId src,
                                              NodeId dst) const noexcept {
  for (const MutableCsr::Entry& e : out_.row(src)) {
    if (e.node == dst) return e.edge;
  }
  return std::nullopt;
}

util::Status DynamicGraph::validate(const GraphDelta& d) const {
  using K = GraphDelta::OpKind;
  const auto invalid = [](const char* msg) {
    return util::Status(util::StatusCode::kInvalidArgument, msg);
  };

  // Priors of the nodes this delta adds, in add order — new_node(j)
  // references added[j] regardless of where the add_node op sits.
  std::vector<const BeliefVec*> added;
  for (const GraphDelta::Op& op : d.ops_) {
    if (op.kind == K::kAddNode) added.push_back(&op.prior);
  }

  const NodeId base_n = num_nodes();
  const auto resolve = [&](NodeId v) -> std::optional<NodeId> {
    if (GraphDelta::is_pending(v)) {
      const std::uint32_t j = v & ~GraphDelta::kPendingBit;
      if (j >= added.size()) return std::nullopt;
      return base_n + j;
    }
    return v < base_n ? std::optional<NodeId>(v) : std::nullopt;
  };
  const auto arity_of = [&](NodeId v) {
    return v < base_n ? priors_[v].size : added[v - base_n]->size;
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
    return v < base_n && observed_[v] != 0;
  };
  const auto removed_now = [&](NodeId v) {
    const auto it = rem.find(v);
    if (it != rem.end()) return it->second;
    return v < base_n && removed_[v] != 0;
  };
  const auto edge_live = [&](NodeId u, NodeId v) {
    const auto it = elive.find(pair_key(u, v));
    if (it != elive.end()) return it->second;
    return u < base_n && v < base_n && has_edge(u, v);
  };

  for (const GraphDelta::Op& op : d.ops_) {
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
        if (GraphDelta::is_pending(op.a)) {
          return invalid(
              "GraphDelta: remove_node on a node added in the same delta");
        }
        if (removed_now(*a)) {
          return invalid("GraphDelta: remove_node on an already-removed node");
        }
        rem[*a] = true;
        obs[*a] = true;
        // Its incident edges die with it; record so a later op in this
        // delta sees them gone.
        for (const MutableCsr::Entry& e : out_.row(*a)) {
          elive[pair_key(*a, e.node)] = false;
        }
        for (const MutableCsr::Entry& e : in_.row(*a)) {
          elive[pair_key(*a, e.node)] = false;
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
        if (shared_.has_value()) {
          if (op.joint != nullptr) {
            return invalid(
                "GraphDelta: shared-joint graph — use the matrix-free "
                "add_edge overload");
          }
          if (shared_->rows != arity_of(*a) || shared_->cols != arity_of(*b)) {
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
        if (shared_.has_value()) {
          return invalid(
              "GraphDelta: set_potential on a shared-joint graph (the "
              "matrix is global — rebuild instead)");
        }
        const auto it = elive.find(pair_key(*a, *b));
        const bool live = it != elive.end()
                              ? it->second
                              : find_slot(*a, *b).has_value();
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

void DynamicGraph::add_directed(NodeId src, NodeId dst, const JointMatrix* m) {
  EdgeId slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    eslots_[slot] = DirectedEdge{src, dst};
    if (m != nullptr) ejoint_[slot] = *m;
    elive_[slot] = 1;
  } else {
    slot = static_cast<EdgeId>(eslots_.size());
    eslots_.push_back(DirectedEdge{src, dst});
    if (!shared_.has_value()) {
      ejoint_.push_back(m != nullptr ? *m : JointMatrix{});
    }
    elive_.push_back(1);
  }
  out_.add(src, MutableCsr::Entry{dst, slot});
  in_.add(dst, MutableCsr::Entry{src, slot});
  ++live_edges_;
}

void DynamicGraph::kill_slot(EdgeId slot) {
  const DirectedEdge de = eslots_[slot];
  out_.remove(de.src, slot);
  in_.remove(de.dst, slot);
  elive_[slot] = 0;
  free_.push_back(slot);
  --live_edges_;
}

util::Status DynamicGraph::apply(const GraphDelta& d) {
  using K = GraphDelta::OpKind;
  if (auto s = validate(d); !s.is_ok()) return s;

  const NodeId base_n = num_nodes();
  std::vector<NodeId> touched = d.touched();

  std::uint32_t adds = 0;
  const auto resolve = [&](NodeId v) {
    return GraphDelta::is_pending(v)
               ? base_n + (v & ~GraphDelta::kPendingBit)
               : v;
  };

  for (const GraphDelta::Op& op : d.ops_) {
    switch (op.kind) {
      case K::kAddNode: {
        priors_.push_back(op.prior);
        observed_.push_back(0);
        removed_.push_back(0);
        if (!names_.empty()) names_.emplace_back();
        out_.add_row(opts_.row_slack);
        in_.add_row(opts_.row_slack);
        touched.push_back(base_n + adds);
        ++adds;
        break;
      }
      case K::kSetPrior:
        priors_[resolve(op.a)] = op.prior;
        break;
      case K::kObserve: {
        const NodeId v = resolve(op.a);
        priors_[v] = BeliefVec::observed(priors_[v].size, op.state);
        observed_[v] = 1;
        break;
      }
      case K::kUnobserve: {
        const NodeId v = resolve(op.a);
        priors_[v] = BeliefVec::uniform(priors_[v].size);
        observed_[v] = 0;
        break;
      }
      case K::kRemoveNode: {
        const NodeId v = op.a;
        // The retiring node's neighbors lose an edge: they are perturbed
        // even though no op names them, so they must seed the frontier.
        std::vector<MutableCsr::Entry> out_row(out_.row(v).begin(),
                                               out_.row(v).end());
        for (const MutableCsr::Entry& e : out_row) {
          touched.push_back(e.node);
          kill_slot(e.edge);
        }
        std::vector<MutableCsr::Entry> in_row(in_.row(v).begin(),
                                              in_.row(v).end());
        for (const MutableCsr::Entry& e : in_row) {
          touched.push_back(e.node);
          kill_slot(e.edge);
        }
        priors_[v] = BeliefVec::observed(priors_[v].size, 0);
        observed_[v] = 1;
        removed_[v] = 1;
        break;
      }
      case K::kAddEdge: {
        const NodeId u = resolve(op.a);
        const NodeId v = resolve(op.b);
        touched.push_back(u);
        touched.push_back(v);
        if (op.joint != nullptr) {
          const JointMatrix t = transpose(*op.joint);
          add_directed(u, v, op.joint.get());
          add_directed(v, u, &t);
        } else {
          add_directed(u, v, nullptr);
          add_directed(v, u, nullptr);
        }
        break;
      }
      case K::kRemoveEdge: {
        const NodeId u = resolve(op.a);
        const NodeId v = resolve(op.b);
        touched.push_back(u);
        touched.push_back(v);
        if (const auto s = find_slot(u, v); s.has_value()) kill_slot(*s);
        if (const auto s = find_slot(v, u); s.has_value()) kill_slot(*s);
        break;
      }
      case K::kSetPotential: {
        const NodeId u = resolve(op.a);
        const NodeId v = resolve(op.b);
        touched.push_back(u);
        touched.push_back(v);
        if (const auto s = find_slot(u, v); s.has_value()) {
          ejoint_[*s] = *op.joint;
        }
        if (const auto s = find_slot(v, u); s.has_value()) {
          ejoint_[*s] = transpose(*op.joint);
        }
        break;
      }
    }
  }

  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  last_touched_ = std::move(touched);

  // Nodes added under a reorder mode take the next reordered ids in
  // original-id order, so the cached permutation stays a bijection over
  // the grown graph until the next compaction recomputes it.
  if (perm_ != nullptr && perm_->size() < num_nodes()) {
    std::vector<NodeId> new_to_old(num_nodes());
    for (NodeId k = 0; k < num_nodes(); ++k) {
      new_to_old[k] = k < perm_->size() ? perm_->to_old(k) : k;
    }
    perm_ = std::make_shared<const Permutation>(
        Permutation::from_new_to_old(std::move(new_to_old)));
  }

  ++version_;
  snap_.reset();
  maybe_compact();
  return util::Status::ok();
}

std::vector<DirectedEdge> DynamicGraph::live_edges_in_order(
    std::vector<EdgeId>* slots_out) const {
  std::vector<DirectedEdge> edges;
  edges.reserve(live_edges_);
  if (slots_out != nullptr) slots_out->reserve(live_edges_);
  for (NodeId r = 0; r < out_.num_rows(); ++r) {
    for (const MutableCsr::Entry& e : out_.row(r)) {
      edges.push_back(DirectedEdge{r, e.node});
      if (slots_out != nullptr) slots_out->push_back(e.edge);
    }
  }
  return edges;
}

void DynamicGraph::maybe_compact() {
  bool need = dead_fraction() > opts_.compact_dead_fraction;
  if (!need && opts_.reorder != ReorderMode::kNone && span_at_compact_ > 0) {
    need = mean_edge_span() > opts_.compact_span_drift * span_at_compact_;
  }
  if (need) compact();
}

void DynamicGraph::compact() {
  std::vector<EdgeId> slots;
  std::vector<DirectedEdge> edges = live_edges_in_order(&slots);

  if (!shared_.has_value()) {
    std::vector<JointMatrix> joints;
    joints.reserve(slots.size());
    for (const EdgeId s : slots) joints.push_back(std::move(ejoint_[s]));
    ejoint_ = std::move(joints);
  }
  eslots_ = edges;
  elive_.assign(edges.size(), 1);
  free_.clear();

  out_ = MutableCsr::build(num_nodes(), edges, /*by_source=*/true,
                           opts_.row_slack);
  in_ = MutableCsr::build(num_nodes(), edges, /*by_source=*/false,
                          opts_.row_slack);

  if (opts_.reorder != ReorderMode::kNone) {
    perm_ = std::make_shared<const Permutation>(
        compute_order(opts_.reorder, num_nodes(), edges));
    span_at_compact_ = mean_edge_span();
  }
  ++compactions_;
  snap_.reset();
}

std::shared_ptr<const FactorGraph> DynamicGraph::snapshot() {
  if (snap_ != nullptr) return snap_;

  std::vector<EdgeId> slots;
  std::vector<DirectedEdge> edges = live_edges_in_order(&slots);

  const auto gather_joints = [&](const std::vector<EdgeId>& order) {
    std::vector<JointMatrix> out;
    out.reserve(order.size());
    for (const EdgeId s : order) out.push_back(ejoint_[s]);
    return out;
  };

  if (opts_.reorder == ReorderMode::kNone || perm_ == nullptr) {
    JointStore store = shared_.has_value()
                           ? JointStore::shared(*shared_)
                           : JointStore::per_edge_from(gather_joints(slots));
    snap_ = DynamicAccess::build(priors_, observed_, names_, std::move(edges),
                                 std::move(store), ReorderMode::kNone, nullptr);
    return snap_;
  }

  // Reorder mode: relabel through the cached permutation and sort edges by
  // (target, source) exactly as graph::reordered does, so per-edge combines
  // land on warm accumulator lines (DESIGN.md §5d).
  const Permutation& p = *perm_;
  for (DirectedEdge& e : edges) {
    e = DirectedEdge{p.to_new(e.src), p.to_new(e.dst)};
  }
  std::vector<std::size_t> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     if (edges[x].dst != edges[y].dst) {
                       return edges[x].dst < edges[y].dst;
                     }
                     return edges[x].src < edges[y].src;
                   });
  std::vector<DirectedEdge> sorted;
  sorted.reserve(edges.size());
  std::vector<EdgeId> sorted_slots;
  sorted_slots.reserve(slots.size());
  for (const std::size_t i : order) {
    sorted.push_back(edges[i]);
    sorted_slots.push_back(slots[i]);
  }

  JointStore store =
      shared_.has_value() ? JointStore::shared(*shared_)
                          : JointStore::per_edge_from(gather_joints(sorted_slots));
  snap_ = DynamicAccess::build(
      p.apply(priors_), p.apply(observed_),
      names_.empty() ? std::vector<std::string>{} : p.apply(names_),
      std::move(sorted), std::move(store), opts_.reorder, perm_);
  return snap_;
}

std::vector<BeliefVec> DynamicGraph::patch_beliefs(
    const std::vector<BeliefVec>& prev) const {
  std::vector<BeliefVec> out = prev;
  out.resize(num_nodes());
  for (std::size_t v = prev.size(); v < out.size(); ++v) {
    out[v] = priors_[v];
  }
  for (const NodeId v : last_touched_) out[v] = priors_[v];
  return out;
}

}  // namespace credo::graph
