#include "io/mtx_belief.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>

#include "graph/builder.h"
#include "util/error.h"
#include "util/strings.h"

namespace credo::io {
namespace {

using graph::BeliefVec;
using graph::GraphBuilder;
using graph::JointMatrix;
using graph::kMaxStates;
using graph::NodeId;
using util::FieldCursor;
using util::ParseError;

constexpr std::string_view kNodeBanner = "%%MatrixMarket credo beliefs";
constexpr std::string_view kEdgeBanner = "%%MatrixMarket credo joints";
constexpr std::string_view kSharedJoint = "%%shared-joint";
// Family extension headers (DESIGN.md §5g), edge file only. Backward
// compatible: absent headers mean tabular, and old readers skip unknown
// '%'-lines in files that do not carry closed-form families.
constexpr std::string_view kFamilyHeader = "%%family";
constexpr std::string_view kLdpcVarsHeader = "%%ldpc-variables";

struct LineReader {
  std::istream& in;
  std::string file;
  std::string line;
  std::uint64_t lineno = 0;
  ParseStats* stats;

  /// Next non-empty, non-comment line (comment = starts with '%'). The
  /// %%shared-joint / %%family / %%ldpc-variables extension lines are NOT
  /// skipped; callers check for them.
  std::optional<std::string_view> next(bool keep_extensions = false) {
    while (std::getline(in, line)) {
      ++lineno;
      if (stats != nullptr) {
        ++stats->lines;
        stats->bytes += line.size() + 1;
      }
      const auto t = util::trim(line);
      if (t.empty()) continue;
      if (t[0] == '%') {
        if (keep_extensions &&
            (t.starts_with(kSharedJoint) ||
             t.starts_with(kFamilyHeader) ||
             t.starts_with(kLdpcVarsHeader))) {
          return t;
        }
        continue;
      }
      return t;
    }
    return std::nullopt;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(file, lineno, what);
  }
};

/// How many `min_line`-byte lines the rest of `in` can hold, or max() for
/// a stream that cannot seek. Reservations are capped by it, so a
/// dimensions line that claims more entries than its file holds ends in
/// "truncated" instead of a failed allocation.
std::uint64_t lines_left(std::istream& in, std::uint64_t min_line) {
  if (!in.good()) return 0;  // at the end already
  const auto here = in.tellg();
  if (here < 0 || !in.seekg(0, std::ios::end)) {
    in.clear();
    return std::numeric_limits<std::uint64_t>::max();
  }
  const auto end = in.tellg();
  in.seekg(here);
  return end > here ? static_cast<std::uint64_t>(end - here) / min_line + 1
                    : 1;
}

/// Parses "N N N" / "N N M" dimension lines; returns {nodes, entries}.
std::pair<std::uint64_t, std::uint64_t> parse_dims(LineReader& r,
                                                   std::string_view l) {
  FieldCursor c(l);
  const auto a = c.next_u64();
  const auto b = c.next_u64();
  const auto m = c.next_u64();
  if (!a || !b || !m || !c.done()) r.fail("malformed dimensions line");
  if (*a != *b) r.fail("dimensions line must be square (N N count)");
  return {*a, *m};
}

/// Parses rows x cols values into `m` (reused across lines: a fresh
/// JointMatrix is a 4 KiB zero-fill, which dominates per-edge parsing).
void parse_matrix_values(LineReader& r, FieldCursor& c, std::uint32_t rows,
                         std::uint32_t cols, JointMatrix& m) {
  m.rows = rows;
  m.cols = cols;
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j) {
      const auto v = c.next_float();
      if (!v) r.fail("joint matrix truncated");
      if (*v < 0.0f) r.fail("negative probability in joint matrix");
      m.at(i, j) = *v;
    }
  }
}

}  // namespace

graph::FactorGraph read_mtx_belief_streams(std::istream& nodes,
                                           std::istream& edges,
                                           ParseStats* stats) {
  GraphBuilder b;
  std::vector<std::uint32_t> arity;

  // ---- Node file ----
  LineReader nr{nodes, "<nodes>", {}, 0, stats};
  {
    std::string first;
    if (!std::getline(nodes, first)) nr.fail("empty node file");
    ++nr.lineno;
    if (stats != nullptr) {
      ++stats->lines;
      stats->bytes += first.size() + 1;
    }
    if (!util::trim(first).starts_with(kNodeBanner)) {
      nr.fail("missing node banner '" + std::string(kNodeBanner) + "'");
    }
  }
  const auto ndims = nr.next();
  if (!ndims) nr.fail("missing node dimensions line");
  const auto [n_nodes, n_entries] = parse_dims(nr, *ndims);
  if (n_entries != n_nodes) nr.fail("node file entry count must equal N");
  // "1 1 1\n" is the shortest node line.
  const auto reserved_nodes = static_cast<NodeId>(
      std::min<std::uint64_t>({n_nodes, lines_left(nodes, 6),
                               std::numeric_limits<NodeId>::max()}));
  arity.reserve(reserved_nodes);
  b.reserve(reserved_nodes, 0);

  for (std::uint64_t i = 0; i < n_nodes; ++i) {
    const auto l = nr.next();
    if (!l) nr.fail("node file truncated");
    FieldCursor c(*l);
    const auto id1 = c.next_u64();
    const auto id2 = c.next_u64();
    if (!id1 || !id2) nr.fail("malformed node line");
    if (*id1 != *id2) nr.fail("node line ids must match (self-cycle form)");
    if (*id1 != i + 1) nr.fail("node ids must be dense, 1-based, in order");
    BeliefVec prior;
    bool observed = false;
    float sum = 0.0f;
    while (auto f = c.next()) {
      if (*f == "*") {
        observed = true;
        if (!c.done()) nr.fail("'*' must be the last field");
        break;
      }
      const auto v = util::parse_float(*f);
      if (!v) nr.fail("malformed probability '" + std::string(*f) + "'");
      if (*v < 0.0f) nr.fail("negative prior probability");
      if (prior.size >= kMaxStates) nr.fail("too many states (max 32)");
      prior.v[prior.size++] = *v;
      sum += *v;
    }
    if (prior.size == 0) nr.fail("node line carries no probabilities");
    if (sum <= 0.0f) nr.fail("prior sums to zero");
    graph::normalize(prior);
    arity.push_back(prior.size);
    const NodeId id = b.add_node(prior);
    if (observed) {
      // Find the point-mass state; an observed node must be a point mass.
      std::uint32_t state = 0;
      float best = -1.0f;
      for (std::uint32_t s = 0; s < prior.size; ++s) {
        if (prior.v[s] > best) {
          best = prior.v[s];
          state = s;
        }
      }
      b.observe(id, state);
    }
  }

  // ---- Edge file ----
  LineReader er{edges, "<edges>", {}, 0, stats};
  {
    std::string first;
    if (!std::getline(edges, first)) er.fail("empty edge file");
    ++er.lineno;
    if (stats != nullptr) {
      ++stats->lines;
      stats->bytes += first.size() + 1;
    }
    if (!util::trim(first).starts_with(kEdgeBanner)) {
      er.fail("missing edge banner '" + std::string(kEdgeBanner) + "'");
    }
  }
  bool shared = false;
  graph::FactorFamily family = graph::FactorFamily::kTabular;
  std::uint64_t ldpc_vars = 0;
  bool have_ldpc_vars = false;
  auto l = er.next(/*keep_extensions=*/true);
  while (l && l->starts_with("%%")) {
    if (l->starts_with(kSharedJoint)) {
      FieldCursor c(l->substr(kSharedJoint.size()));
      const auto k = c.next_u64();
      if (!k || *k < 1 || *k > kMaxStates) {
        er.fail("bad shared-joint arity");
      }
      JointMatrix m;
      parse_matrix_values(er, c, static_cast<std::uint32_t>(*k),
                          static_cast<std::uint32_t>(*k), m);
      if (!c.done()) er.fail("trailing fields after shared joint matrix");
      b.use_shared_joint(m);
      shared = true;
    } else if (l->starts_with(kLdpcVarsHeader)) {
      FieldCursor c(l->substr(kLdpcVarsHeader.size()));
      const auto v = c.next_u64();
      if (!v || !c.done()) er.fail("malformed %%ldpc-variables line");
      ldpc_vars = *v;
      have_ldpc_vars = true;
    } else if (l->starts_with(kFamilyHeader)) {
      FieldCursor c(l->substr(kFamilyHeader.size()));
      const auto name = c.next();
      if (!name || !c.done()) er.fail("malformed %%family line");
      const auto f = graph::family_from_name(*name);
      if (!f) er.fail("unknown factor family '" + std::string(*name) + "'");
      family = *f;
    }
    l = er.next(/*keep_extensions=*/true);
  }
  if (graph::is_ldpc(family)) {
    if (shared) er.fail("%%family and %%shared-joint are exclusive");
    if (!have_ldpc_vars) {
      er.fail("LDPC families require a %%ldpc-variables line");
    }
    if (ldpc_vars == 0 || ldpc_vars >= n_nodes) {
      er.fail("%%ldpc-variables must be in [1, nodes)");
    }
    b.use_family(family);
    b.set_ldpc_variables(static_cast<NodeId>(ldpc_vars));
  } else if (have_ldpc_vars) {
    er.fail("%%ldpc-variables requires an LDPC %%family line");
  }
  if (!l) er.fail("missing edge dimensions line");
  const auto [e_nodes, e_count] = parse_dims(er, *l);
  if (e_nodes != n_nodes) {
    er.fail("edge file node count disagrees with node file");
  }
  // "1 2\n" is the shortest edge line.
  b.reserve(reserved_nodes, std::min(e_count, lines_left(edges, 4)));
  JointMatrix scratch;  // reused across edge lines
  for (std::uint64_t i = 0; i < e_count; ++i) {
    const auto el = er.next();
    if (!el) er.fail("edge file truncated");
    FieldCursor c(*el);
    const auto s = c.next_u64();
    const auto d = c.next_u64();
    if (!s || !d || *s < 1 || *d < 1 || *s > n_nodes || *d > n_nodes) {
      er.fail("edge endpoints out of range");
    }
    const auto src = static_cast<NodeId>(*s - 1);
    const auto dst = static_cast<NodeId>(*d - 1);
    if (shared || graph::is_ldpc(family)) {
      if (!c.done()) er.fail("per-edge values in a matrix-free edge file");
      b.add_edge(src, dst);
    } else {
      parse_matrix_values(er, c, arity[src], arity[dst], scratch);
      if (!c.done()) er.fail("trailing fields after joint matrix");
      b.add_edge(src, dst, scratch);
    }
  }
  return b.finalize();
}

graph::FactorGraph read_mtx_belief(const std::string& node_path,
                                   const std::string& edge_path,
                                   ParseStats* stats) {
  std::ifstream nodes(node_path);
  if (!nodes) throw util::IoError("cannot open node file: " + node_path);
  std::ifstream edges(edge_path);
  if (!edges) throw util::IoError("cannot open edge file: " + edge_path);
  try {
    return read_mtx_belief_streams(nodes, edges, stats);
  } catch (const ParseError& e) {
    // Re-tag stream pseudo-names with real paths.
    const std::string which = e.file() == "<nodes>" ? node_path : edge_path;
    throw ParseError(which, e.line(), e.message());
  }
}

void write_mtx_belief_streams(const graph::FactorGraph& g,
                              std::ostream& nodes, std::ostream& edges) {
  nodes << kNodeBanner << '\n';
  nodes << "% Credo node beliefs: id id p_1..p_k [*]\n";
  nodes << g.num_nodes() << ' ' << g.num_nodes() << ' ' << g.num_nodes()
        << '\n';
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    nodes << (v + 1) << ' ' << (v + 1);
    const auto& p = g.prior(v);
    for (std::uint32_t s = 0; s < p.size; ++s) nodes << ' ' << p.v[s];
    if (g.observed(v)) nodes << " *";
    nodes << '\n';
  }

  edges << kEdgeBanner << '\n';
  const auto& joints = g.joints();
  if (graph::is_ldpc(g.family())) {
    edges << kFamilyHeader << ' ' << graph::family_name(g.family()) << '\n';
    edges << kLdpcVarsHeader << ' ' << g.ldpc_variables() << '\n';
  }
  if (joints.is_shared()) {
    const auto& m = joints.shared_matrix();
    edges << kSharedJoint << ' ' << m.rows;
    for (std::uint32_t i = 0; i < m.rows; ++i) {
      for (std::uint32_t j = 0; j < m.cols; ++j) {
        edges << ' ' << m.at(i, j);
      }
    }
    edges << '\n';
  }
  edges << g.num_nodes() << ' ' << g.num_nodes() << ' ' << g.num_edges()
        << '\n';
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    edges << (ed.src + 1) << ' ' << (ed.dst + 1);
    if (!joints.is_shared() && !joints.is_closed_form()) {
      const auto& m = joints.at(e);
      for (std::uint32_t i = 0; i < m.rows; ++i) {
        for (std::uint32_t j = 0; j < m.cols; ++j) {
          edges << ' ' << m.at(i, j);
        }
      }
    }
    edges << '\n';
  }
}

void write_mtx_belief(const graph::FactorGraph& g,
                      const std::string& node_path,
                      const std::string& edge_path) {
  std::ofstream nodes(node_path);
  if (!nodes) throw util::IoError("cannot open for writing: " + node_path);
  std::ofstream edges(edge_path);
  if (!edges) throw util::IoError("cannot open for writing: " + edge_path);
  write_mtx_belief_streams(g, nodes, edges);
  if (!nodes || !edges) {
    throw util::IoError("write failed for MTX-belief pair");
  }
}

}  // namespace credo::io
