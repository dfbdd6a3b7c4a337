// Tests for the io module: MTX-belief round trips (property-based over
// random graphs), BIF and XML-BIF parsing/writing, the XML mini-parser,
// malformed-input rejection, a seeded fuzz of the MTX-belief parser, and
// format conversion.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <unistd.h>
#include <vector>

#include "bp/engine.h"
#include "graph/generators.h"
#include "graph/ldpc.h"
#include "io/bayes_net.h"
#include "io/bif.h"
#include "io/convert.h"
#include "io/mtx_belief.h"
#include "io/mtx_graph.h"
#include "io/xml.h"
#include "io/xmlbif.h"
#include "util/error.h"
#include "util/prng.h"

namespace credo::io {
namespace {

using graph::FactorGraph;

/// Structural + numeric equality of two graphs.
void expect_graphs_equal(const FactorGraph& a, const FactorGraph& b,
                         float tol = 1e-5f) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (graph::NodeId v = 0; v < a.num_nodes(); ++v) {
    EXPECT_EQ(a.arity(v), b.arity(v));
    EXPECT_EQ(a.observed(v), b.observed(v));
    EXPECT_LT(graph::l1_diff(a.prior(v), b.prior(v)), tol) << "node " << v;
  }
  ASSERT_EQ(a.joints().is_shared(), b.joints().is_shared());
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).src, b.edge(e).src);
    EXPECT_EQ(a.edge(e).dst, b.edge(e).dst);
    const auto& ma = a.joints().at(e);
    const auto& mb = b.joints().at(e);
    ASSERT_EQ(ma.rows, mb.rows);
    ASSERT_EQ(ma.cols, mb.cols);
    for (std::uint32_t r = 0; r < ma.rows; ++r) {
      for (std::uint32_t c = 0; c < ma.cols; ++c) {
        EXPECT_NEAR(ma.at(r, c), mb.at(r, c), tol);
      }
    }
  }
}

FactorGraph mtx_round_trip(const FactorGraph& g, ParseStats* stats = nullptr) {
  std::ostringstream n;
  std::ostringstream e;
  write_mtx_belief_streams(g, n, e);
  std::istringstream nin(n.str());
  std::istringstream ein(e.str());
  return read_mtx_belief_streams(nin, ein, stats);
}

// ---------------------------------------------------------------------------
// MTX-belief
// ---------------------------------------------------------------------------

struct MtxCase {
  const char* name;
  bool shared;
  std::uint32_t beliefs;
  double observed;
};

class MtxRoundTrip : public ::testing::TestWithParam<MtxCase> {};

TEST_P(MtxRoundTrip, PreservesGraph) {
  const auto& p = GetParam();
  graph::BeliefConfig cfg;
  cfg.shared_joint = p.shared;
  cfg.beliefs = p.beliefs;
  cfg.observed_fraction = p.observed;
  cfg.seed = 1234;
  const auto g = graph::uniform_random(60, 240, cfg);
  expect_graphs_equal(g, mtx_round_trip(g));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, MtxRoundTrip,
    ::testing::Values(MtxCase{"shared_b2", true, 2, 0.1},
                      MtxCase{"shared_b3", true, 3, 0.0},
                      MtxCase{"shared_b32", true, 32, 0.2},
                      MtxCase{"per_edge_b2", false, 2, 0.1},
                      MtxCase{"per_edge_b5", false, 5, 0.3}),
    [](const ::testing::TestParamInfo<MtxCase>& info) {
      return info.param.name;
    });

TEST(MtxBelief, StatsCountLinesAndBytes) {
  graph::BeliefConfig cfg;
  cfg.seed = 9;
  const auto g = graph::uniform_random(20, 80, cfg);
  ParseStats stats;
  (void)mtx_round_trip(g, &stats);
  // banner+comment+dims+20 nodes, banner+shared+dims+160 edges.
  EXPECT_GE(stats.lines, 20u + 160u + 5u);
  EXPECT_GT(stats.bytes, 500u);
}

TEST(MtxBelief, FileRoundTrip) {
  graph::BeliefConfig cfg;
  cfg.seed = 21;
  const auto g = graph::uniform_random(30, 100, cfg);
  const auto dir = std::filesystem::temp_directory_path();
  const auto npath = (dir / "credo_test_nodes.mtx").string();
  const auto epath = (dir / "credo_test_edges.mtx").string();
  write_mtx_belief(g, npath, epath);
  const auto back = read_mtx_belief(npath, epath);
  expect_graphs_equal(g, back);
  std::remove(npath.c_str());
  std::remove(epath.c_str());
}

TEST(MtxBelief, LdpcFamilyRoundTrips) {
  const auto code = graph::ldpc::random_regular(48, 3, 6, 77);
  std::vector<std::uint8_t> error(code.bits, 0);
  error[5] = 1;
  const auto syn = graph::ldpc::syndrome(code, error);
  for (const auto family : {graph::FactorFamily::kLdpcSumProduct,
                            graph::FactorFamily::kLdpcMinSum}) {
    const auto g = graph::ldpc::build_graph(code, syn, 0.05f, family);
    const auto back = mtx_round_trip(g);
    EXPECT_EQ(back.family(), family);
    EXPECT_EQ(back.ldpc_variables(), g.ldpc_variables());
    EXPECT_EQ(back.joints().payload_bytes(), 0u);
    ASSERT_EQ(back.num_nodes(), g.num_nodes());
    ASSERT_EQ(back.num_edges(), g.num_edges());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LT(graph::l1_diff(g.prior(v), back.prior(v)), 1e-5f);
    }
    // The reloaded graph must decode exactly like the original.
    bp::BpOptions opts;
    opts.max_iterations = 60;
    opts.syndrome_stop = true;
    const auto r = bp::make_default_engine(bp::EngineKind::kCpuNode)
                       ->run(back, opts);
    EXPECT_TRUE(r.stats.syndrome_satisfied);
    EXPECT_EQ(graph::ldpc::hard_decision(r.beliefs, code.bits), error);
  }
}

TEST(MtxBelief, LdpcHeaderRejectsMalformedInput) {
  const std::string nodes =
      "%%MatrixMarket credo beliefs\n3 3 3\n"
      "1 1 0.9 0.1\n2 2 0.9 0.1\n3 3 1 0\n";
  const auto parse = [&](const std::string& edge_text) {
    std::istringstream nin(nodes);
    std::istringstream ein(edge_text);
    return read_mtx_belief_streams(nin, ein);
  };
  // Unknown family name.
  EXPECT_THROW(parse("%%MatrixMarket credo joints\n%%family potts\n"
                     "%%ldpc-variables 2\n3 3 2\n1 3\n2 3\n"),
               util::ParseError);
  // LDPC family without the variable-count header.
  EXPECT_THROW(parse("%%MatrixMarket credo joints\n%%family ldpc-min-sum\n"
                     "3 3 2\n1 3\n2 3\n"),
               util::ParseError);
  // Variable count out of range.
  EXPECT_THROW(parse("%%MatrixMarket credo joints\n%%family ldpc-min-sum\n"
                     "%%ldpc-variables 3\n3 3 2\n1 3\n2 3\n"),
               util::ParseError);
  // ldpc-variables without a family.
  EXPECT_THROW(parse("%%MatrixMarket credo joints\n%%ldpc-variables 2\n"
                     "3 3 2\n1 3\n2 3\n"),
               util::ParseError);
  // Per-edge matrix values in a closed-form edge file.
  EXPECT_THROW(parse("%%MatrixMarket credo joints\n%%family ldpc-min-sum\n"
                     "%%ldpc-variables 2\n3 3 2\n1 3 0.5 0.5 0.5 0.5\n2 3\n"),
               util::ParseError);
  // The tabular spelling is accepted and means the default family.
  const auto g = parse(
      "%%MatrixMarket credo joints\n%%family tabular\n3 3 2\n"
      "1 3 0.5 0.5 0.5 0.5\n2 3 0.5 0.5 0.5 0.5\n");
  EXPECT_EQ(g.family(), graph::FactorFamily::kTabular);
}

TEST(MtxBelief, MissingFileThrowsIoError) {
  EXPECT_THROW(read_mtx_belief("/nonexistent/n.mtx", "/nonexistent/e.mtx"),
               util::IoError);
}

struct BadMtxCase {
  const char* name;
  const char* nodes;
  const char* edges;
};

class MtxRejects : public ::testing::TestWithParam<BadMtxCase> {};

TEST_P(MtxRejects, MalformedInput) {
  std::istringstream n(GetParam().nodes);
  std::istringstream e(GetParam().edges);
  EXPECT_THROW((void)read_mtx_belief_streams(n, e), util::ParseError)
      << GetParam().name;
}

constexpr const char* kGoodNodes =
    "%%MatrixMarket credo beliefs\n2 2 2\n1 1 0.5 0.5\n2 2 0.4 0.6\n";

INSTANTIATE_TEST_SUITE_P(
    Cases, MtxRejects,
    ::testing::Values(
        BadMtxCase{"missing_banner", "2 2 2\n1 1 0.5 0.5\n2 2 0.4 0.6\n",
                   "%%MatrixMarket credo joints\n2 2 0\n"},
        BadMtxCase{"id_mismatch",
                   "%%MatrixMarket credo beliefs\n2 2 2\n1 2 0.5 0.5\n"
                   "2 2 0.4 0.6\n",
                   "%%MatrixMarket credo joints\n2 2 0\n"},
        BadMtxCase{"non_dense_ids",
                   "%%MatrixMarket credo beliefs\n2 2 2\n1 1 0.5 0.5\n"
                   "3 3 0.4 0.6\n",
                   "%%MatrixMarket credo joints\n2 2 0\n"},
        BadMtxCase{"negative_prob",
                   "%%MatrixMarket credo beliefs\n2 2 2\n1 1 -0.5 1.5\n"
                   "2 2 0.4 0.6\n",
                   "%%MatrixMarket credo joints\n2 2 0\n"},
        BadMtxCase{"truncated_nodes",
                   "%%MatrixMarket credo beliefs\n2 2 2\n1 1 0.5 0.5\n",
                   "%%MatrixMarket credo joints\n2 2 0\n"},
        BadMtxCase{"edge_out_of_range", kGoodNodes,
                   "%%MatrixMarket credo joints\n2 2 1\n"
                   "1 3 0.5 0.5 0.5 0.5\n"},
        BadMtxCase{"edge_matrix_truncated", kGoodNodes,
                   "%%MatrixMarket credo joints\n2 2 1\n1 2 0.5 0.5\n"},
        BadMtxCase{"edge_node_count_mismatch", kGoodNodes,
                   "%%MatrixMarket credo joints\n3 3 0\n"},
        BadMtxCase{"bad_dims", kGoodNodes,
                   "%%MatrixMarket credo joints\n2 3 0\n"},
        // Counts no file of this size can hold: once an allocation
        // failure (std::bad_alloc, an abort under ASan).
        BadMtxCase{"node_count_beyond_the_file",
                   "%%MatrixMarket credo beliefs\n"
                   "100000000000 100000000000 100000000000\n1 1 0.5 0.5\n",
                   "%%MatrixMarket credo joints\n2 2 0\n"},
        BadMtxCase{"edge_count_beyond_the_file", kGoodNodes,
                   "%%MatrixMarket credo joints\n2 2 100000000000\n"
                   "1 2 0.5 0.5 0.5 0.5\n"}),
    [](const ::testing::TestParamInfo<BadMtxCase>& info) {
      return info.param.name;
    });

TEST(MtxBelief, ObservedMarkerParses) {
  std::istringstream n(
      "%%MatrixMarket credo beliefs\n2 2 2\n1 1 1 0 *\n2 2 0.4 0.6\n");
  std::istringstream e("%%MatrixMarket credo joints\n2 2 0\n");
  const auto g = read_mtx_belief_streams(n, e);
  EXPECT_TRUE(g.observed(0));
  EXPECT_FALSE(g.observed(1));
  EXPECT_FLOAT_EQ(g.prior(0)[0], 1.0f);
}

// The parser on the serve cache's miss path must turn any malformed pair
// into one of its declared errors. Each case takes a valid pair (4x4
// arity-3 grids, per-edge and shared joints) and applies one to four
// seeded byte-level mutations to one of its files: a bit flip, an insert
// of a format-significant or arbitrary byte, a deletion of up to eight
// bytes, or a truncation. Any other exception fails the case and prints
// the input; a crash fails the run (and the sanitizer build reports it).
// Inputs it finds go into MtxRejects above.

/// One seeded mutation of `text`.
void mutate(std::string& text, util::Prng& rng) {
  static constexpr std::string_view kSignificant = "0123456789.-+eE* \n%";
  const std::size_t at = rng.uniform(text.size() + 1);
  switch (rng.uniform(4)) {
    case 0:
      if (at < text.size()) {
        text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform(8)));
      }
      break;
    case 1:
      text.insert(at, 1,
                  rng.uniform(2) == 0
                      ? kSignificant[rng.uniform(kSignificant.size())]
                      : static_cast<char>(rng.uniform(256)));
      break;
    case 2:
      if (at < text.size()) text.erase(at, 1 + rng.uniform(8));
      break;
    default:
      text.resize(at);
      break;
  }
}

/// `text` with non-printable bytes escaped, for a failure message.
std::string printable(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n";
    } else if (u < 0x20 || u >= 0x7f) {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

TEST(MtxBeliefFuzz, MutatedPairsParseOrThrowADeclaredError) {
  struct Pair {
    std::string nodes, edges;
  };
  std::vector<Pair> bases;
  for (const bool shared : {false, true}) {
    graph::BeliefConfig cfg;
    cfg.beliefs = 3;
    cfg.shared_joint = shared;
    cfg.observed_fraction = 0.2;
    cfg.seed = 5;
    std::ostringstream n;
    std::ostringstream e;
    write_mtx_belief_streams(graph::grid(4, 4, cfg), n, e);
    bases.push_back({n.str(), e.str()});
  }
  const auto dir = std::filesystem::temp_directory_path() /
                   ("credo_io_fuzz_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string npath = (dir / "nodes.mtx").string();
  const std::string epath = (dir / "edges.mtx").string();

  util::Prng rng(2025);
  constexpr int kCases = 3000;
  int parsed = 0, parse_errors = 0, io_errors = 0, invalid = 0;
  for (int i = 0; i < kCases; ++i) {
    Pair p = bases[i % bases.size()];
    std::string& target = rng.uniform(2) == 0 ? p.nodes : p.edges;
    for (std::uint64_t m = 1 + rng.uniform(4); m > 0; --m) mutate(target, rng);
    std::ofstream(npath, std::ios::binary) << p.nodes;
    std::ofstream(epath, std::ios::binary) << p.edges;
    try {
      (void)read_mtx_belief(npath, epath);
      ++parsed;
    } catch (const util::ParseError&) {
      ++parse_errors;
    } catch (const util::IoError&) {
      ++io_errors;
    } catch (const util::InvalidArgument&) {
      ++invalid;
    } catch (const std::exception& ex) {
      ADD_FAILURE() << "case " << i << " threw " << ex.what()
                    << "\nnodes: " << printable(p.nodes)
                    << "\nedges: " << printable(p.edges);
    }
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(parsed, 0);  // some mutations keep a pair valid
  EXPECT_GT(parse_errors, kCases / 2);
  RecordProperty("parsed", parsed);
  RecordProperty("parse_errors", parse_errors);
  RecordProperty("io_errors", io_errors);
  RecordProperty("invalid_arguments", invalid);
}

// ---------------------------------------------------------------------------
// BayesNet
// ---------------------------------------------------------------------------

TEST(BayesNet, FamilyOutValidatesAndLowers) {
  const auto net = BayesNet::family_out();
  net.validate();
  const auto g = net.to_factor_graph();
  EXPECT_EQ(g.num_nodes(), 5u);
  // Dependencies: lo|fo (1), do|fo + do|bp (2), hb|do (1) = 4 undirected
  // pairs = 8 directed edges.
  EXPECT_EQ(g.num_edges(), 8u);
  EXPECT_EQ(g.names().at(0), "family-out");
  EXPECT_FLOAT_EQ(g.prior(0)[0], 0.15f);
}

TEST(BayesNet, ValidateCatchesBadNets) {
  BayesNet net;
  net.variables.push_back({"a", {"t", "f"}});
  // Missing CPT.
  EXPECT_THROW(net.validate(), util::InvalidArgument);
  net.cpts.push_back({0, {}, {0.5f, 0.5f}});
  net.validate();
  // Duplicate CPT.
  net.cpts.push_back({0, {}, {0.5f, 0.5f}});
  EXPECT_THROW(net.validate(), util::InvalidArgument);
  net.cpts.pop_back();
  // Wrong table size.
  net.cpts[0].values.push_back(0.1f);
  EXPECT_THROW(net.validate(), util::InvalidArgument);
  net.cpts[0].values.pop_back();
  // Self-parent.
  net.cpts[0].parents.push_back(0);
  EXPECT_THROW(net.validate(), util::InvalidArgument);
}

TEST(BayesNet, RandomNetsAreValidAndDeterministic) {
  const auto a = BayesNet::random(50, 3, 3, 77);
  const auto b = BayesNet::random(50, 3, 3, 77);
  a.validate();
  EXPECT_EQ(a.variables.size(), 50u);
  ASSERT_EQ(a.cpts.size(), b.cpts.size());
  for (std::size_t i = 0; i < a.cpts.size(); ++i) {
    EXPECT_EQ(a.cpts[i].parents, b.cpts[i].parents);
    EXPECT_EQ(a.cpts[i].values, b.cpts[i].values);
  }
}

// ---------------------------------------------------------------------------
// BIF
// ---------------------------------------------------------------------------

TEST(Bif, RoundTripFamilyOut) {
  const auto net = BayesNet::family_out();
  const auto text = write_bif_string(net);
  const auto back = read_bif_string(text, "fam.bif");
  EXPECT_EQ(back.variables.size(), net.variables.size());
  ASSERT_EQ(back.cpts.size(), net.cpts.size());
  for (std::size_t i = 0; i < net.cpts.size(); ++i) {
    EXPECT_EQ(back.cpts[i].child, net.cpts[i].child);
    EXPECT_EQ(back.cpts[i].parents, net.cpts[i].parents);
    ASSERT_EQ(back.cpts[i].values.size(), net.cpts[i].values.size());
    for (std::size_t k = 0; k < net.cpts[i].values.size(); ++k) {
      EXPECT_NEAR(back.cpts[i].values[k], net.cpts[i].values[k], 1e-5f);
    }
  }
}

TEST(Bif, RoundTripRandomNet) {
  const auto net = BayesNet::random(40, 3, 2, 5);
  const auto back = read_bif_string(write_bif_string(net), "r.bif");
  EXPECT_EQ(back.variables.size(), 40u);
  EXPECT_EQ(back.cpts.size(), 40u);
}

TEST(Bif, ParsesRowEntryForm) {
  const std::string text = R"(
network test {
}
variable rain {
  type discrete [ 2 ] { yes, no };
}
variable grass {
  type discrete [ 2 ] { wet, dry };
}
probability ( rain ) {
  table 0.2, 0.8;
}
probability ( grass | rain ) {
  (yes) 0.9, 0.1;
  (no) 0.3, 0.7;
}
)";
  const auto net = read_bif_string(text, "rain.bif");
  EXPECT_EQ(net.name, "test");
  ASSERT_EQ(net.cpts.size(), 2u);
  const auto& cpt = net.cpts[1];
  EXPECT_FLOAT_EQ(cpt.values[0], 0.9f);  // p(wet | yes)
  EXPECT_FLOAT_EQ(cpt.values[2], 0.3f);  // p(wet | no)
}

TEST(Bif, SkipsCommentsAndProperties) {
  const std::string text = R"(
// line comment
network n { property anything goes here ; }
/* block
   comment */
variable v { type discrete [ 2 ] { a, b }; property p x; }
probability ( v ) { table 0.5, 0.5; }
)";
  const auto net = read_bif_string(text, "c.bif");
  EXPECT_EQ(net.variables.size(), 1u);
}

struct BadBifCase {
  const char* name;
  const char* text;
};

class BifRejects : public ::testing::TestWithParam<BadBifCase> {};

TEST_P(BifRejects, MalformedInput) {
  EXPECT_THROW((void)read_bif_string(GetParam().text, "bad.bif"),
               util::ParseError)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BifRejects,
    ::testing::Values(
        BadBifCase{"unknown_variable",
                   "network n {}\nvariable v { type discrete [ 2 ] "
                   "{ a, b }; }\nprobability ( w ) { table 0.5, 0.5; }\n"},
        BadBifCase{"bad_count",
                   "network n {}\nvariable v { type discrete [ 0 ] { }; }\n"},
        BadBifCase{"truncated", "network n {"},
        BadBifCase{"missing_network",
                   "variable v { type discrete [ 2 ] { a, b }; }"},
        BadBifCase{"unknown_outcome",
                   "network n {}\n"
                   "variable a { type discrete [ 2 ] { t, f }; }\n"
                   "variable b { type discrete [ 2 ] { t, f }; }\n"
                   "probability ( b | a ) { (x) 0.5, 0.5; }\n"}),
    [](const ::testing::TestParamInfo<BadBifCase>& info) {
      return info.param.name;
    });

TEST(Bif, MissingFileThrows) {
  EXPECT_THROW(read_bif("/nonexistent/x.bif"), util::IoError);
}

// ---------------------------------------------------------------------------
// XML + XML-BIF
// ---------------------------------------------------------------------------

TEST(Xml, ParsesAttributesChildrenAndText) {
  const auto root = parse_xml(
      "<?xml version=\"1.0\"?><!-- c --><a x=\"1\" y='two'>"
      "hi<b/>there<c>deep</c></a>",
      "t.xml");
  EXPECT_EQ(root->name, "a");
  EXPECT_EQ(root->attribute("x"), "1");
  EXPECT_EQ(root->attribute("y"), "two");
  EXPECT_EQ(root->attribute("missing"), "");
  EXPECT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->text, "hithere");
  EXPECT_EQ(root->child("c")->text, "deep");
  EXPECT_EQ(root->child("nope"), nullptr);
}

TEST(Xml, DecodesEntities) {
  const auto root =
      parse_xml("<a>&lt;&gt;&amp;&quot;&apos;&#65;</a>", "e.xml");
  EXPECT_EQ(root->text, "<>&\"'A");
}

TEST(Xml, ParsesCdata) {
  const auto root = parse_xml("<a><![CDATA[1 < 2 & 3]]></a>", "cd.xml");
  EXPECT_EQ(root->text, "1 < 2 & 3");
}

struct BadXmlCase {
  const char* name;
  const char* text;
};

class XmlRejects : public ::testing::TestWithParam<BadXmlCase> {};

TEST_P(XmlRejects, MalformedInput) {
  EXPECT_THROW((void)parse_xml(GetParam().text, "bad.xml"),
               util::ParseError)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, XmlRejects,
    ::testing::Values(BadXmlCase{"mismatched_close", "<a></b>"},
                      BadXmlCase{"unterminated", "<a><b></b>"},
                      BadXmlCase{"trailing", "<a/><b/>"},
                      BadXmlCase{"bad_entity", "<a>&nope;</a>"},
                      BadXmlCase{"unterminated_comment", "<a><!-- x</a>"}),
    [](const ::testing::TestParamInfo<BadXmlCase>& info) {
      return info.param.name;
    });

TEST(XmlBif, RoundTripFamilyOut) {
  const auto net = BayesNet::family_out();
  const auto back =
      read_xmlbif_string(write_xmlbif_string(net), "fam.xml");
  EXPECT_EQ(back.variables.size(), net.variables.size());
  EXPECT_EQ(back.cpts.size(), net.cpts.size());
  expect_graphs_equal(net.to_factor_graph(), back.to_factor_graph(),
                      1e-4f);
}

TEST(XmlBif, RoundTripRandomNet) {
  const auto net = BayesNet::random(30, 4, 2, 3);
  const auto back = read_xmlbif_string(write_xmlbif_string(net), "r.xml");
  expect_graphs_equal(net.to_factor_graph(), back.to_factor_graph(),
                      1e-4f);
}

TEST(XmlBif, RejectsWrongRoot) {
  EXPECT_THROW((void)read_xmlbif_string("<NOTBIF/>", "w.xml"),
               util::ParseError);
}


// ---------------------------------------------------------------------------
// Plain Matrix Market graphs
// ---------------------------------------------------------------------------

TEST(MtxGraph, ParsesSymmetricCoordinate) {
  const std::string text =
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment\n"
      "4 4 3\n"
      "2 1\n"
      "3 1\n"
      "4 3\n";
  std::istringstream in(text);
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 3;
  const auto g = read_mtx_graph_stream(in, cfg);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 6u);  // 3 undirected pairs
  EXPECT_TRUE(g.joints().is_shared());
}

TEST(MtxGraph, DedupesBackEdgesAndDropsSelfLoops) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 4\n"
      "1 2 0.5\n"
      "2 1 0.5\n"
      "2 2 1.0\n"
      "2 3 0.5\n";
  std::istringstream in(text);
  graph::BeliefConfig cfg;
  cfg.seed = 4;
  const auto g = read_mtx_graph_stream(in, cfg);
  EXPECT_EQ(g.num_edges(), 4u);  // {1,2} and {2,3} as directed pairs
}

TEST(MtxGraph, BeliefSynthesisIsDeterministic) {
  const std::string text =
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "5 5 4\n2 1\n3 2\n4 3\n5 4\n";
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 11;
  std::istringstream a(text);
  std::istringstream b(text);
  const auto ga = read_mtx_graph_stream(a, cfg);
  const auto gb = read_mtx_graph_stream(b, cfg);
  for (graph::NodeId v = 0; v < ga.num_nodes(); ++v) {
    EXPECT_EQ(graph::l1_diff(ga.prior(v), gb.prior(v)), 0.0f);
  }
}

struct BadPlainMtx {
  const char* name;
  const char* text;
};

class MtxGraphRejects : public ::testing::TestWithParam<BadPlainMtx> {};

TEST_P(MtxGraphRejects, MalformedInput) {
  std::istringstream in(GetParam().text);
  graph::BeliefConfig cfg;
  EXPECT_THROW((void)read_mtx_graph_stream(in, cfg), util::ParseError)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MtxGraphRejects,
    ::testing::Values(
        BadPlainMtx{"no_banner", "3 3 1\n1 2\n"},
        BadPlainMtx{"dense_unsupported",
                    "%%MatrixMarket matrix array real general\n3 3 9\n"},
        BadPlainMtx{"truncated_edges",
                    "%%MatrixMarket matrix coordinate pattern symmetric\n"
                    "3 3 2\n1 2\n"},
        BadPlainMtx{"endpoint_out_of_range",
                    "%%MatrixMarket matrix coordinate pattern symmetric\n"
                    "3 3 1\n1 9\n"}),
    [](const ::testing::TestParamInfo<BadPlainMtx>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Conversion
// ---------------------------------------------------------------------------

TEST(Convert, BifToMtxPreservesGraph) {
  const auto net = BayesNet::random(25, 2, 2, 9);
  const auto dir = std::filesystem::temp_directory_path();
  const auto bif = (dir / "credo_conv.bif").string();
  const auto np = (dir / "credo_conv_nodes.mtx").string();
  const auto ep = (dir / "credo_conv_edges.mtx").string();
  write_bif(net, bif);
  convert_bif_to_mtx(bif, np, ep);
  const auto back = read_mtx_belief(np, ep);
  expect_graphs_equal(net.to_factor_graph(), back, 1e-4f);
  std::remove(bif.c_str());
  std::remove(np.c_str());
  std::remove(ep.c_str());
}

}  // namespace
}  // namespace credo::io
