#include "io/mtx_graph.h"

#include <fstream>
#include <istream>
#include <limits>
#include <unordered_set>

#include "graph/builder.h"
#include "util/error.h"
#include "util/strings.h"

namespace credo::io {
namespace {

using util::ParseError;

}  // namespace

graph::FactorGraph read_mtx_graph_stream(std::istream& in,
                                         const graph::BeliefConfig& cfg,
                                         const std::string& name) {
  std::string line;
  std::uint64_t lineno = 0;

  // Banner.
  if (!std::getline(in, line)) throw ParseError(name, 1, "empty file");
  ++lineno;
  const auto banner = util::trim(line);
  if (!banner.starts_with("%%MatrixMarket")) {
    throw ParseError(name, lineno, "missing %%MatrixMarket banner");
  }
  const auto fields = util::split(banner);
  const bool symmetric =
      fields.size() >= 5 && util::iequals(fields[4], "symmetric");
  if (fields.size() >= 3 && !util::iequals(fields[2], "coordinate")) {
    throw ParseError(name, lineno,
                     "only coordinate (sparse) matrices are supported");
  }

  // Dimensions.
  std::uint64_t rows = 0;
  std::uint64_t entries = 0;
  for (;;) {
    if (!std::getline(in, line)) {
      throw ParseError(name, lineno, "missing dimensions line");
    }
    ++lineno;
    const auto t = util::trim(line);
    if (t.empty() || t[0] == '%') continue;
    util::FieldCursor c(t);
    const auto r = c.next_u64();
    const auto cols = c.next_u64();
    const auto e = c.next_u64();
    if (!r || !cols || !e) {
      throw ParseError(name, lineno, "malformed dimensions line");
    }
    rows = std::max(*r, *cols);
    entries = *e;
    break;
  }
  if (rows == 0) throw ParseError(name, lineno, "graph has no vertices");
  if (rows > std::numeric_limits<graph::NodeId>::max()) {
    throw ParseError(name, lineno, "vertex count exceeds NodeId range");
  }

  util::Prng rng(cfg.seed);
  graph::GraphBuilder b;
  if (cfg.shared_joint) {
    b.use_shared_joint(graph::random_joint(cfg.beliefs, cfg.coupling, rng));
  }
  b.reserve(static_cast<graph::NodeId>(rows), 2 * entries);
  for (graph::NodeId v = 0; v < rows; ++v) {
    if (rng.bernoulli(cfg.observed_fraction)) {
      b.add_observed_node(
          cfg.beliefs, static_cast<std::uint32_t>(rng.uniform(cfg.beliefs)));
    } else {
      b.add_node(graph::random_prior(cfg.beliefs, rng));
    }
  }

  // Edges: dedupe (u,v)/(v,u) so `general` files with explicit back-edges
  // do not double the undirected multiplicity.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(entries);
  std::uint64_t parsed = 0;
  while (parsed < entries) {
    if (!std::getline(in, line)) {
      throw ParseError(name, lineno, "edge list truncated");
    }
    ++lineno;
    const auto t = util::trim(line);
    if (t.empty() || t[0] == '%') continue;
    util::FieldCursor c(t);
    const auto u = c.next_u64();
    const auto v = c.next_u64();
    if (!u || !v || *u < 1 || *v < 1 || *u > rows || *v > rows) {
      throw ParseError(name, lineno, "edge endpoints out of range");
    }
    ++parsed;
    if (*u == *v) continue;  // drop self loops
    const std::uint64_t a = std::min(*u, *v) - 1;
    const std::uint64_t z = std::max(*u, *v) - 1;
    if (!seen.insert((a << 32) | z).second) continue;
    const auto src = static_cast<graph::NodeId>(a);
    const auto dst = static_cast<graph::NodeId>(z);
    if (cfg.shared_joint) {
      b.add_undirected(src, dst);
    } else {
      b.add_undirected(src, dst,
                       graph::random_joint(cfg.beliefs, cfg.coupling, rng));
    }
  }
  (void)symmetric;  // both symmetries produce undirected pairs for BP
  return b.finalize();
}

graph::FactorGraph read_mtx_graph(const std::string& path,
                                  const graph::BeliefConfig& cfg) {
  std::ifstream in(path);
  if (!in) throw util::IoError("cannot open MTX file: " + path);
  return read_mtx_graph_stream(in, cfg, path);
}

}  // namespace credo::io
