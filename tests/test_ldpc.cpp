// Tests for the LDPC factor families (DESIGN.md §5g): the random regular
// code generator's invariants, closed-form decode correctness across the
// engine paradigms (including the parallel bulk-residual engine),
// sum-product vs min-sum agreement, syndrome-satisfaction stopping, the
// per-family capability gates, and the tabular-path guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "bp/engine.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/ldpc.h"
#include "graph/reorder.h"
#include "util/error.h"

namespace credo {
namespace {

using bp::BpOptions;
using bp::BpResult;
using bp::EngineKind;
using graph::FactorFamily;
using graph::FactorGraph;
using graph::ldpc::Code;

BpOptions decode_opts() {
  BpOptions o;
  o.max_iterations = 60;
  o.threads = 2;  // keep per-run pools small; serial engines ignore it
  o.syndrome_stop = true;
  return o;
}

BpResult decode(const FactorGraph& g, EngineKind kind,
                const BpOptions& opts) {
  return bp::make_default_engine(kind)->run(g, opts);
}

// ---------------------------------------------------------------------------
// Generator invariants
// ---------------------------------------------------------------------------

TEST(LdpcCode, RandomRegularDegreesAreExact) {
  const Code code = graph::ldpc::random_regular(96, 3, 6, 11);
  EXPECT_EQ(code.bits, 96u);
  EXPECT_EQ(code.checks, 48u);  // bits * dv / dc
  ASSERT_EQ(code.row_ptr.size(), code.checks + 1);
  ASSERT_EQ(code.bit_idx.size(), std::size_t{96} * 3);

  // Every check covers exactly dc distinct bits.
  for (std::uint32_t c = 0; c < code.checks; ++c) {
    const auto bits = code.check_bits(c);
    ASSERT_EQ(bits.size(), 6u);
    const std::set<std::uint32_t> uniq(bits.begin(), bits.end());
    EXPECT_EQ(uniq.size(), 6u) << "duplicate bit in check " << c;
    for (const std::uint32_t b : bits) EXPECT_LT(b, code.bits);
  }
  // Every bit participates in exactly dv checks.
  for (const std::uint32_t d : code.bit_degrees()) EXPECT_EQ(d, 3u);
}

TEST(LdpcCode, GeneratorIsDeterministicInSeed) {
  const Code a = graph::ldpc::random_regular(48, 3, 6, 5);
  const Code b = graph::ldpc::random_regular(48, 3, 6, 5);
  const Code c = graph::ldpc::random_regular(48, 3, 6, 6);
  EXPECT_EQ(a.bit_idx, b.bit_idx);
  EXPECT_NE(a.bit_idx, c.bit_idx);
}

TEST(LdpcCode, RejectsUnrealizableParameters) {
  EXPECT_THROW(graph::ldpc::random_regular(10, 3, 4, 1),
               util::InvalidArgument);  // 30 sockets not divisible by 4
  EXPECT_THROW(graph::ldpc::random_regular(4, 3, 6, 1),
               util::InvalidArgument);  // dc > bits
  EXPECT_THROW(graph::ldpc::random_regular(0, 3, 6, 1),
               util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Graph construction
// ---------------------------------------------------------------------------

TEST(LdpcGraph, TannerGraphStructure) {
  const Code code = graph::ldpc::random_regular(48, 3, 6, 7);
  const std::vector<std::uint8_t> zero(code.bits, 0);
  const auto syn = graph::ldpc::syndrome(code, zero);
  const FactorGraph g = graph::ldpc::build_graph(
      code, syn, 0.05f, FactorFamily::kLdpcSumProduct);

  EXPECT_EQ(g.family(), FactorFamily::kLdpcSumProduct);
  EXPECT_EQ(g.ldpc_variables(), code.bits);
  EXPECT_EQ(g.num_nodes(), code.bits + code.checks);
  EXPECT_EQ(g.num_edges(), 2ull * code.bit_idx.size());
  EXPECT_TRUE(g.joints().is_closed_form());
  EXPECT_EQ(g.joints().payload_bytes(), 0u);  // no tables, honest accounting
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.arity(v), 2u);
    EXPECT_FALSE(g.observed(v));  // checks message-pass like any node
  }
}

TEST(LdpcGraph, FamilyNamesRoundTrip) {
  using graph::family_from_name;
  using graph::family_name;
  EXPECT_EQ(family_name(FactorFamily::kTabular), "tabular");
  EXPECT_EQ(family_name(FactorFamily::kLdpcSumProduct), "ldpc-sum-product");
  EXPECT_EQ(family_name(FactorFamily::kLdpcMinSum), "ldpc-min-sum");
  for (const auto f :
       {FactorFamily::kTabular, FactorFamily::kLdpcSumProduct,
        FactorFamily::kLdpcMinSum}) {
    const auto back = family_from_name(family_name(f));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, f);
  }
  EXPECT_EQ(family_from_name("ldpc"), FactorFamily::kLdpcSumProduct);
  EXPECT_FALSE(family_from_name("potts").has_value());
}

TEST(LdpcGraph, ReorderingIsRejected) {
  const Code code = graph::ldpc::random_regular(24, 3, 6, 3);
  const std::vector<std::uint8_t> zero(code.bits, 0);
  const FactorGraph g = graph::ldpc::build_graph(
      code, graph::ldpc::syndrome(code, zero), 0.05f,
      FactorFamily::kLdpcMinSum);
  EXPECT_THROW(
      (void)graph::reordered(g, graph::ReorderMode::kBfs),
      util::InvalidArgument);
}

TEST(LdpcGraph, BuilderRejectsTabularMixing) {
  graph::GraphBuilder b;
  b.use_family(FactorFamily::kLdpcSumProduct);
  EXPECT_THROW(b.use_shared_joint(graph::JointMatrix::diffusion(2, 0.8f)),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// Decode correctness
// ---------------------------------------------------------------------------

/// The acceptance matrix: one engine per paradigm family, including the
/// parallel bulk-residual engine.
const EngineKind kDecodeEngines[] = {
    EngineKind::kCpuNode,  EngineKind::kCpuEdge,  EngineKind::kOmpNode,
    EngineKind::kOmpEdge,  EngineKind::kResidual, EngineKind::kBulkResidual,
};

/// Decodes `error` on `code` with the given family/engine and expects the
/// exact pattern back.
void expect_corrects(const Code& code, const std::vector<std::uint8_t>& error,
                     FactorFamily family, EngineKind kind) {
  const auto syn = graph::ldpc::syndrome(code, error);
  const FactorGraph g = graph::ldpc::build_graph(code, syn, 0.05f, family);
  const BpResult r = decode(g, kind, decode_opts());
  EXPECT_TRUE(r.stats.syndrome_satisfied)
      << graph::family_name(family) << " on "
      << bp::engine_slug(kind);
  const auto bits = graph::ldpc::hard_decision(r.beliefs, code.bits);
  EXPECT_EQ(bits, error) << graph::family_name(family) << " on "
                         << bp::engine_slug(kind);
  EXPECT_TRUE(graph::ldpc::satisfies(code, bits, syn));
}

TEST(LdpcDecode, NoiselessSyndromeAgreesAcrossFamiliesAndEngines) {
  const Code code = graph::ldpc::random_regular(48, 3, 6, 17);
  const std::vector<std::uint8_t> zero(code.bits, 0);
  for (const auto family :
       {FactorFamily::kLdpcSumProduct, FactorFamily::kLdpcMinSum}) {
    for (const auto kind : kDecodeEngines) {
      expect_corrects(code, zero, family, kind);
    }
  }
}

TEST(LdpcDecode, CorrectsAllWeightOnePatterns) {
  // The acceptance bar: every weight-<=t pattern on a generated (3,6)
  // code, both families, at least three engines including the parallel
  // residual engine (t = 1 here; weight-2 coverage below).
  const Code code = graph::ldpc::random_regular(48, 3, 6, 17);
  const EngineKind engines[] = {EngineKind::kCpuNode, EngineKind::kCpuEdge,
                                EngineKind::kBulkResidual};
  for (const auto family :
       {FactorFamily::kLdpcSumProduct, FactorFamily::kLdpcMinSum}) {
    for (std::uint32_t b = 0; b < code.bits; ++b) {
      std::vector<std::uint8_t> error(code.bits, 0);
      error[b] = 1;
      for (const auto kind : engines) {
        expect_corrects(code, error, family, kind);
      }
    }
  }
}

TEST(LdpcDecode, WorkQueueStillDecodes) {
  // §3.5 work-queue regression: a variable's belief cannot move before
  // any check has run, so a self-only keep rule freezes the variable side
  // on sweep 1 and the frontier drains at a bogus fixed point. The
  // frontier runners re-enqueue an active node's out-neighbors, so queued
  // runs must decode exactly like dense ones.
  const Code code = graph::ldpc::random_regular(48, 3, 6, 17);
  std::vector<std::uint8_t> error(code.bits, 0);
  error[7] = 1;
  const auto syn = graph::ldpc::syndrome(code, error);
  for (const auto kind : {EngineKind::kCpuNode, EngineKind::kOmpNode}) {
    const FactorGraph g = graph::ldpc::build_graph(
        code, syn, 0.05f, FactorFamily::kLdpcMinSum);
    BpOptions opts = decode_opts();
    opts.work_queue = true;
    const BpResult r = decode(g, kind, opts);
    EXPECT_TRUE(r.stats.syndrome_satisfied) << bp::engine_slug(kind);
    EXPECT_EQ(graph::ldpc::hard_decision(r.beliefs, code.bits), error)
        << bp::engine_slug(kind);
  }
}

TEST(LdpcDecode, CorrectsSpreadWeightTwoPatterns) {
  // Weight-2 patterns with well-separated supports (adjacent bits can
  // share checks, where two errors may be miscorrected by any decoder).
  const Code code = graph::ldpc::random_regular(48, 3, 6, 17);
  for (const auto family :
       {FactorFamily::kLdpcSumProduct, FactorFamily::kLdpcMinSum}) {
    for (std::uint32_t b = 0; b + 24 < code.bits; b += 5) {
      std::vector<std::uint8_t> error(code.bits, 0);
      error[b] = 1;
      error[b + 24] = 1;
      for (const auto kind :
           {EngineKind::kCpuNode, EngineKind::kOmpNode,
            EngineKind::kBulkResidual}) {
        const auto syn = graph::ldpc::syndrome(code, error);
        const FactorGraph g =
            graph::ldpc::build_graph(code, syn, 0.05f, family);
        const BpResult r = decode(g, kind, decode_opts());
        // Success criterion: a coset-equivalent correction (H·e == s).
        const auto bits = graph::ldpc::hard_decision(r.beliefs, code.bits);
        EXPECT_TRUE(graph::ldpc::satisfies(code, bits, syn))
            << graph::family_name(family) << " on "
            << bp::engine_slug(kind) << " bit " << b;
      }
    }
  }
}

TEST(LdpcDecode, ParallelNodeEnginesAreIndependentOfThreadCount) {
  // Min-sum decodes depend on update order: about one in a thousand random
  // orders leaves these weight-2 patterns oscillating. The parallel node
  // engines run variables and checks as separate phases, so thread timing
  // cannot pick the order: omp-node's dense sweep equals c-node's, and
  // bulk-residual equals its one-worker run, bit for bit.
  const Code code = graph::ldpc::random_regular(48, 3, 6, 17);
  const auto same = [](const BpResult& a, const BpResult& b) {
    if (a.beliefs.size() != b.beliefs.size()) return false;
    for (std::size_t v = 0; v < a.beliefs.size(); ++v) {
      for (std::uint32_t s = 0; s < a.beliefs[v].size; ++s) {
        if (a.beliefs[v].v[s] != b.beliefs[v].v[s]) return false;
      }
    }
    return true;
  };
  for (const std::uint32_t b : {0u, 20u}) {
    std::vector<std::uint8_t> error(code.bits, 0);
    error[b] = 1;
    error[b + 24] = 1;
    const FactorGraph g = graph::ldpc::build_graph(
        code, graph::ldpc::syndrome(code, error), 0.05f,
        FactorFamily::kLdpcMinSum);
    BpOptions one = decode_opts();
    one.threads = 1;
    const BpResult sweep = decode(g, EngineKind::kCpuNode, one);
    const BpResult bulk = decode(g, EngineKind::kBulkResidual, one);
    for (const unsigned threads : {2u, 4u, 8u}) {
      BpOptions opts = decode_opts();
      opts.threads = threads;
      EXPECT_TRUE(same(sweep, decode(g, EngineKind::kOmpNode, opts)))
          << "omp-node bit " << b << " threads " << threads;
      EXPECT_TRUE(same(bulk, decode(g, EngineKind::kBulkResidual, opts)))
          << "bulk-residual bit " << b << " threads " << threads;
    }
  }
}

TEST(LdpcDecode, SyndromeStopReportsAndStopsEarly) {
  const Code code = graph::ldpc::random_regular(96, 3, 6, 23);
  std::vector<std::uint8_t> error(code.bits, 0);
  error[10] = 1;
  const auto syn = graph::ldpc::syndrome(code, error);
  const FactorGraph g = graph::ldpc::build_graph(
      code, syn, 0.05f, FactorFamily::kLdpcSumProduct);

  BpOptions with_stop = decode_opts();
  const BpResult a = decode(g, EngineKind::kCpuNode, with_stop);
  EXPECT_TRUE(a.stats.converged);
  EXPECT_TRUE(a.stats.syndrome_satisfied);

  // Without the syndrome rule the decode still succeeds (belief deltas
  // reach the fixed point) and the success bit is still reported.
  BpOptions no_stop = decode_opts();
  no_stop.syndrome_stop = false;
  const BpResult b = decode(g, EngineKind::kCpuNode, no_stop);
  EXPECT_TRUE(b.stats.syndrome_satisfied);
  EXPECT_GE(b.stats.iterations, a.stats.iterations);
}

TEST(LdpcDecode, MinSumAndSumProductAgreeOnDecodedBits) {
  const Code code = graph::ldpc::random_regular(96, 3, 6, 29);
  std::vector<std::uint8_t> error(code.bits, 0);
  error[3] = 1;
  error[71] = 1;
  const auto syn = graph::ldpc::syndrome(code, error);
  const FactorGraph sp = graph::ldpc::build_graph(
      code, syn, 0.05f, FactorFamily::kLdpcSumProduct);
  const FactorGraph ms = graph::ldpc::build_graph(
      code, syn, 0.05f, FactorFamily::kLdpcMinSum);
  const BpResult a = decode(sp, EngineKind::kCpuNode, decode_opts());
  const BpResult b = decode(ms, EngineKind::kCpuNode, decode_opts());
  EXPECT_EQ(graph::ldpc::hard_decision(a.beliefs, code.bits),
            graph::ldpc::hard_decision(b.beliefs, code.bits));
}

// ---------------------------------------------------------------------------
// Capability gates and the tabular guard
// ---------------------------------------------------------------------------

TEST(LdpcDecode, TreeAndDeviceEnginesRejectLdpcGraphs) {
  const Code code = graph::ldpc::random_regular(24, 3, 6, 3);
  const std::vector<std::uint8_t> zero(code.bits, 0);
  const FactorGraph g = graph::ldpc::build_graph(
      code, graph::ldpc::syndrome(code, zero), 0.05f,
      FactorFamily::kLdpcSumProduct);
  for (const auto kind :
       {EngineKind::kTree, EngineKind::kCudaNode, EngineKind::kCudaEdge,
        EngineKind::kAccEdge}) {
    EXPECT_THROW((void)decode(g, kind, decode_opts()),
                 util::InvalidArgument)
        << bp::engine_slug(kind);
  }
}

TEST(LdpcDecode, VerdictMatchesFinalHardDecisions) {
  // BpStats::syndrome_satisfied describes the state the run returns: the
  // final beliefs' hard decisions satisfy the syndrome iff it says so. The
  // parallel engines check parity between regions, with the team joined;
  // more workers than cores would widen any window in which a state still
  // being written could pass.
  const Code code = graph::ldpc::random_regular(48, 3, 6, 17);
  BpOptions opts = decode_opts();
  opts.threads = std::max(8u, 2 * std::thread::hardware_concurrency());
  const EngineKind all[] = {
      EngineKind::kCpuNode,        EngineKind::kCpuEdge,
      EngineKind::kOmpNode,        EngineKind::kOmpEdge,
      EngineKind::kCudaNode,       EngineKind::kCudaEdge,
      EngineKind::kAccEdge,        EngineKind::kTree,
      EngineKind::kResidual,       EngineKind::kBulkResidual,
      EngineKind::kSharded,
  };
  for (const auto family :
       {FactorFamily::kLdpcSumProduct, FactorFamily::kLdpcMinSum}) {
    for (std::uint32_t b = 0; b < code.bits; ++b) {
      std::vector<std::uint8_t> error(code.bits, 0);
      error[b] = 1;
      const auto syn = graph::ldpc::syndrome(code, error);
      const FactorGraph g =
          graph::ldpc::build_graph(code, syn, 0.05f, family);
      for (const auto kind : all) {
        if (!bp::engine_supports_family(kind, family)) continue;
        const BpResult r = decode(g, kind, opts);
        const auto bits = graph::ldpc::hard_decision(r.beliefs, code.bits);
        EXPECT_EQ(r.stats.syndrome_satisfied,
                  graph::ldpc::satisfies(code, bits, syn))
            << graph::family_name(family) << " on "
            << bp::engine_slug(kind) << " bit " << b;
      }
    }
  }
}

TEST(TabularGuard, DefaultFamilyIsTabularAndRunsAreBitIdentical) {
  // The tabular hot path must be untouched by the family seam: the
  // default family is tabular, tabular stores still report real payload
  // bytes, and repeated runs stay bit-identical.
  graph::BeliefConfig cfg;
  cfg.beliefs = 4;
  cfg.observed_fraction = 0.2;
  cfg.seed = 21;
  const FactorGraph g = graph::grid(12, 12, cfg);
  EXPECT_EQ(g.family(), FactorFamily::kTabular);
  EXPECT_GT(g.joints().payload_bytes(), 0u);

  BpOptions opts;
  opts.threads = 2;
  const BpResult a = decode(g, EngineKind::kCpuNode, opts);
  const BpResult b = decode(g, EngineKind::kCpuNode, opts);
  ASSERT_EQ(a.beliefs.size(), b.beliefs.size());
  for (std::size_t i = 0; i < a.beliefs.size(); ++i) {
    for (std::uint32_t s = 0; s < a.beliefs[i].size; ++s) {
      EXPECT_EQ(a.beliefs[i].v[s], b.beliefs[i].v[s]);
    }
  }
  EXPECT_FALSE(a.stats.syndrome_satisfied);  // tabular: no syndrome
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
}

TEST(TabularGuard, SyndromeStopIsIgnoredByTabularGraphs) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 9;
  const FactorGraph g = graph::random_tree(32, cfg);
  BpOptions opts;
  opts.threads = 2;
  opts.syndrome_stop = true;  // no-op outside the LDPC families
  const BpResult r = decode(g, EngineKind::kCpuNode, opts);
  EXPECT_TRUE(r.stats.converged);
  EXPECT_FALSE(r.stats.syndrome_satisfied);
}

}  // namespace
}  // namespace credo
