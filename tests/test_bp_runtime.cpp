// Unit tests for the shared BP runtime layer (DESIGN.md §5b): the packed
// belief state, schedule policies, the convergence controller, and
// per-iteration telemetry.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <stop_token>
#include <string>
#include <vector>

#include "bp/engine.h"
#include "bp/runtime/belief_state.h"
#include "bp/runtime/convergence.h"
#include "bp/runtime/schedule.h"
#include "bp/runtime/telemetry.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "util/error.h"
#include "util/prng.h"

namespace credo::bp::runtime {
namespace {

using graph::BeliefVec;
using graph::EdgeId;
using graph::FactorGraph;
using graph::GraphBuilder;
using graph::JointMatrix;
using graph::NodeId;

// A 4-node chain 0 -> 1 -> 2 -> 3 with node 2 observed. Undirected edges,
// so each adjacent pair contributes two directed edges.
FactorGraph chain_graph() {
  GraphBuilder b;
  const auto j = JointMatrix::diffusion(2, 0.8f);
  for (int i = 0; i < 4; ++i) b.add_node(BeliefVec::uniform(2));
  b.observe(2, 1);
  b.add_undirected(0, 1, j);
  b.add_undirected(1, 2, j);
  b.add_undirected(2, 3, j);
  return b.finalize();
}

BpOptions base_opts() {
  BpOptions o;
  o.convergence_threshold = 1e-4f;
  o.queue_threshold = 1e-5f;
  o.max_iterations = 50;
  return o;
}

// ---------------------------------------------------------------------------
// ConvergenceController
// ---------------------------------------------------------------------------

TEST(ConvergenceController, EveryIterationCadenceChecksAlways) {
  const ConvergenceController ctl(base_opts(),
                                  ConvergenceController::Cadence::kEveryIteration);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_TRUE(ctl.should_check(i));
}

TEST(ConvergenceController, BatchedCadenceChecksOnBatchAndFinalIteration) {
  auto opts = base_opts();
  opts.convergence_batch = 4;
  opts.max_iterations = 10;
  const ConvergenceController ctl(opts,
                                  ConvergenceController::Cadence::kBatched);
  // 0-based iterations: checks fall after iterations 3 and 7 ((i+1)%4==0)
  // plus the budget cap at iteration 9.
  for (std::uint32_t i = 0; i < 10; ++i) {
    const bool expect = (i == 3 || i == 7 || i == 9);
    EXPECT_EQ(ctl.should_check(i), expect) << "iteration " << i;
  }
}

TEST(ConvergenceController, GlobalAndElementThresholdsAreStrict) {
  auto opts = base_opts();
  opts.convergence_threshold = 0.5f;
  opts.queue_threshold = 0.25f;
  const ConvergenceController ctl(opts,
                                  ConvergenceController::Cadence::kEveryIteration);
  EXPECT_TRUE(ctl.global_converged(0.49));
  EXPECT_FALSE(ctl.global_converged(0.5));   // sum < threshold, not <=
  EXPECT_FALSE(ctl.global_converged(0.51));
  EXPECT_FALSE(ctl.element_active(0.25f));   // delta > threshold, not >=
  EXPECT_TRUE(ctl.element_active(0.2500001f));
}

TEST(ConvergenceController, DampIsIdentityAtZeroAndBlendsOtherwise) {
  const float bv[] = {0.9f, 0.1f};
  const float pv[] = {0.1f, 0.9f};
  BeliefVec b{std::span<const float>(bv)};
  const BeliefVec prev{std::span<const float>(pv)};

  auto opts = base_opts();
  opts.damping = 0.0f;
  const ConvergenceController off(opts,
                                  ConvergenceController::Cadence::kEveryIteration);
  EXPECT_EQ(off.damp(b, prev), 0u);
  EXPECT_FLOAT_EQ(b.v[0], 0.9f);

  opts.damping = 0.5f;
  const ConvergenceController half(opts,
                                   ConvergenceController::Cadence::kEveryIteration);
  EXPECT_EQ(half.damp(b, prev), 5u * b.size);
  // 0.5*0.9 + 0.5*0.1 = 0.5 each way; normalized stays 0.5/0.5.
  EXPECT_NEAR(b.v[0], 0.5f, 1e-6f);
  EXPECT_NEAR(b.v[1], 0.5f, 1e-6f);
}

// ---------------------------------------------------------------------------
// BeliefState: the packed engine state
// ---------------------------------------------------------------------------

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// An 8-node path of arities {2, 9, 17, 32, 2, 9, 17, 32} with per-edge
/// tables; node 1 is observed.
FactorGraph mixed_arity_path() {
  GraphBuilder b;
  util::Prng rng(3);
  const std::uint32_t arities[] = {2, 9, 17, 32, 2, 9, 17, 32};
  for (const std::uint32_t a : arities) b.add_node(graph::random_prior(a, rng));
  b.observe(1, 4);
  for (NodeId i = 0; i + 1 < 8; ++i) {
    JointMatrix j(arities[i], arities[i + 1]);
    for (std::uint32_t r = 0; r < j.rows; ++r) {
      for (std::uint32_t c = 0; c < j.cols; ++c) {
        j.at(r, c) = 0.05f + rng.uniform01f();
      }
    }
    b.add_undirected(i, i + 1, j);
  }
  return b.finalize();
}

/// The same path under a shuffled relabeling, BFS-reordered: its recorded
/// permutation is not the identity.
FactorGraph permuted_path() {
  return graph::reordered(
      graph::relabeled(mixed_arity_path(), graph::random_order(8, 11)),
      graph::ReorderMode::kBfs);
}

/// Node v's packed lanes hold `want`'s live states, then zero pads.
void expect_lanes(const BeliefState& state, NodeId v, const BeliefVec& want) {
  ASSERT_EQ(state.arity(v), want.size) << "node " << v;
  const float* lanes = state.lanes(v);
  for (std::uint32_t s = 0; s < want.size; ++s) {
    EXPECT_EQ(bits(lanes[s]), bits(want.v[s])) << "node " << v << " lane " << s;
  }
  for (std::uint32_t s = want.size; s < state.stride(); ++s) {
    EXPECT_EQ(bits(lanes[s]), 0u) << "node " << v << " pad lane " << s;
  }
}

TEST(BeliefState, PriorsPackWithZeroPadLanes) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.observed_fraction = 0.2;
  const FactorGraph g = graph::uniform_random(50, 100, cfg);
  const BeliefState state(g, BpOptions{});
  ASSERT_EQ(state.size(), g.num_nodes());
  EXPECT_EQ(state.stride(), 8u);  // an arity-3 slot is 32 bytes
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    expect_lanes(state, v, g.prior(v));
  }
}

TEST(BeliefState, MixedAritiesShareOneStride) {
  const FactorGraph g = mixed_arity_path();
  const BeliefState state(g, BpOptions{});
  EXPECT_EQ(state.stride(), 32u);  // padded_states of the widest node
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(state.lanes(v) - state.lanes(0), 32 * static_cast<int>(v));
    expect_lanes(state, v, g.prior(v));
  }
}

TEST(BeliefState, WarmOverlayReadsCallerIdsAndKeepsEvidencePinned) {
  const FactorGraph g = permuted_path();
  const graph::Permutation* perm = g.permutation();
  ASSERT_NE(perm, nullptr);
  ASSERT_FALSE(perm->is_identity());
  // Warm vectors in the caller's ids, each distinct from its prior.
  auto warm = std::make_shared<std::vector<BeliefVec>>();
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    BeliefVec b = BeliefVec::uniform(g.arity(perm->to_new(i)));
    b.v[0] = 0.5f + 0.01f * static_cast<float>(i);
    warm->push_back(b);
  }
  const BeliefState state(g, BpOptions{}.with_init_beliefs(warm));
  std::size_t pinned = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.observed(v)) {
      ++pinned;
      expect_lanes(state, v, g.prior(v));  // evidence stays pinned
    } else {
      expect_lanes(state, v, (*warm)[perm->to_old(v)]);
    }
  }
  EXPECT_EQ(pinned, 1u);
}

TEST(BeliefState, WrongArityWarmVectorThrows) {
  const FactorGraph g = permuted_path();
  const graph::Permutation* perm = g.permutation();
  auto warm = std::make_shared<std::vector<BeliefVec>>();
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    warm->push_back(BeliefVec::uniform(g.arity(perm->to_new(i))));
  }
  // An unobserved caller node of arity 17 gets a binary vector.
  NodeId open_node = 0, pinned = 0;
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    const NodeId v = perm->to_new(i);
    if (g.observed(v)) pinned = i;
    if (!g.observed(v) && g.arity(v) == 17) open_node = i;
  }
  ASSERT_TRUE(g.observed(perm->to_new(pinned)));
  (*warm)[open_node] = BeliefVec::uniform(2);
  EXPECT_THROW(BeliefState(g, BpOptions{}.with_init_beliefs(warm)),
               util::InvalidArgument);
  // The same mistake on the observed node is ignored: evidence is pinned.
  (*warm)[open_node] = BeliefVec::uniform(17);
  (*warm)[pinned] = BeliefVec::uniform(g.arity(perm->to_new(pinned)) + 1);
  EXPECT_NO_THROW(BeliefState(g, BpOptions{}.with_init_beliefs(warm)));
}

TEST(BeliefState, WriteOutInCallerIdsIsTheUnappliedState) {
  const FactorGraph g = permuted_path();
  const graph::Permutation* perm = g.permutation();
  BpOptions opts;
  opts.max_iterations = 3;
  // A state the engines have written: run c-node on it, then compare the
  // fused write-out with un-permuting the internal-order unpack.
  const auto r = make_default_engine(EngineKind::kCpuNode)->run(g, opts);
  auto warm = std::make_shared<const std::vector<BeliefVec>>(r.beliefs);
  const BeliefState state(g, BpOptions{}.with_init_beliefs(warm));
  std::vector<BeliefVec> internal(g.num_nodes());
  std::vector<BeliefVec> caller(g.num_nodes());
  state.unpack(nullptr, internal);
  state.unpack(perm, caller);
  const std::vector<BeliefVec> want = perm->unapply(internal);
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    ASSERT_EQ(caller[i].size, want[i].size) << "node " << i;
    for (std::uint32_t s = 0; s < graph::kMaxStates; ++s) {
      EXPECT_EQ(bits(caller[i].v[s]), bits(want[i].v[s]))
          << "node " << i << " lane " << s;
    }
  }
  // And the warm state round-trips: caller ids in, caller ids out.
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    for (std::uint32_t s = 0; s < caller[i].size; ++s) {
      EXPECT_EQ(bits(caller[i].v[s]), bits(r.beliefs[i].v[s]))
          << "node " << i << " lane " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Schedule policies
// ---------------------------------------------------------------------------

TEST(Schedules, DenseSweepNeverDrains) {
  const DenseSweep s(7);
  EXPECT_EQ(s.begin_iteration(0), 7u);
  EXPECT_EQ(s.size(), 7u);
  EXPECT_TRUE(s.advance(0));
  EXPECT_TRUE(s.advance(1));
}

// The one node frontier in both of its forms: the sequential backend's
// (one fragment, no team charges) and a team of three workers'.
class NodeFrontierTest : public ::testing::TestWithParam<unsigned> {
 protected:
  [[nodiscard]] unsigned workers() const { return GetParam(); }
  [[nodiscard]] bool team() const { return GetParam() > 1; }

  void keep(NodeFrontier& s, perf::Meter& meter, unsigned w, NodeId v) {
    if (team()) {
      s.keep<true>(meter, w, v);
    } else {
      s.keep<false>(meter, w, v);
    }
  }
};

TEST_P(NodeFrontierTest, DenseModeCoversAllNodes) {
  const auto g = chain_graph();
  perf::Counters c;
  perf::Meter meter(c);
  NodeFrontier s(g, /*use_queue=*/false, workers());
  EXPECT_FALSE(s.queued());
  EXPECT_EQ(s.size(), g.num_nodes());
  EXPECT_EQ(s.at(meter, 3), 3u);
  EXPECT_EQ(c.seq_read_bytes, 0u);  // dense fetch is the loop index
  EXPECT_TRUE(s.advance(0));        // dense sweeps never drain
}

TEST_P(NodeFrontierTest, QueueShrinksAndDrains) {
  const auto g = chain_graph();  // node 2 observed -> 3 initial entries
  perf::Counters c;
  perf::Meter meter(c);
  NodeFrontier s(g, /*use_queue=*/true, workers());
  EXPECT_TRUE(s.queued());
  ASSERT_EQ(s.begin_iteration(0), 3u);
  std::vector<NodeId> seen;
  for (std::uint64_t i = 0; i < s.size(); ++i) seen.push_back(s.at(meter, i));
  EXPECT_EQ(seen, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(c.seq_read_bytes, 3 * sizeof(NodeId));

  keep(s, meter, workers() - 1, 1);  // only node 1 stays active
  EXPECT_EQ(c.seq_write_bytes, sizeof(NodeId));
  ASSERT_TRUE(s.advance(0));
  ASSERT_EQ(s.begin_iteration(1), 1u);
  EXPECT_EQ(s.at(meter, 0), 1u);
  EXPECT_FALSE(s.advance(1));  // nothing kept -> frontier drained
}

TEST_P(NodeFrontierTest, MergesWorkerFragmentsAndChargesTheTeamCursor) {
  const auto g = chain_graph();
  perf::Counters c;
  perf::Meter meter(c);
  NodeFrontier s(g, /*use_queue=*/true, workers());
  ASSERT_EQ(s.begin_iteration(0), 3u);
  keep(s, meter, workers() - 1, 3);
  keep(s, meter, 0, 0);
  // A team appends through one shared cursor: one atomic per keep, all on
  // one conflict chain. The sequential form charges none.
  EXPECT_EQ(c.atomic_ops, team() ? 2u : 0u);
  EXPECT_EQ(c.atomic_chain_ops, team() ? 2u : 0u);
  ASSERT_TRUE(s.advance(0));
  ASSERT_EQ(s.begin_iteration(1), 2u);
  // Fragments merge in worker order; one fragment keeps append order.
  const std::vector<NodeId> want =
      team() ? std::vector<NodeId>{0, 3} : std::vector<NodeId>{3, 0};
  EXPECT_EQ(s.at(meter, 0), want[0]);
  EXPECT_EQ(s.at(meter, 1), want[1]);
  EXPECT_FALSE(s.advance(1));
}

TEST_P(NodeFrontierTest, SeededKeepWakesChildrenOncePerRound) {
  const auto g = chain_graph();  // 0 - 1 - 2(observed) - 3
  perf::Counters c;
  perf::Meter meter(c);
  const std::vector<NodeId> seed{1};
  NodeFrontier s(g, /*use_queue=*/false, workers(), &seed);
  EXPECT_TRUE(s.queued());  // a seed forces queue mode
  ASSERT_EQ(s.begin_iteration(0), 1u);
  keep(s, meter, 0, 1);              // 1 and its unobserved child 0
  keep(s, meter, workers() - 1, 0);  // 0 and its child 1: both stamped
  EXPECT_EQ(c.atomic_ops, team() ? 2u : 0u);  // two appends
  ASSERT_TRUE(s.advance(0));
  ASSERT_EQ(s.begin_iteration(1), 2u);
  EXPECT_EQ(s.at(meter, 0), 1u);
  EXPECT_EQ(s.at(meter, 1), 0u);
  keep(s, meter, 0, 1);  // a new round: the stamps no longer match
  ASSERT_TRUE(s.advance(1));
  EXPECT_EQ(s.begin_iteration(2), 2u);
}

INSTANTIATE_TEST_SUITE_P(SequentialAndTeam, NodeFrontierTest,
                         ::testing::Values(1u, 3u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return std::to_string(info.param) + "_workers";
                         });

TEST(Schedules, EdgeFrontierSkipsObservedDestinations) {
  const auto g = chain_graph();
  perf::Counters c;
  perf::Meter meter(c);
  EdgeFrontier s(g);
  // 6 directed edges; 1->2 and 3->2 point at the observed node.
  ASSERT_EQ(s.size(), 4u);
  for (std::uint64_t i = 0; i < s.size(); ++i) {
    const EdgeId e = s.at(meter, i);
    EXPECT_FALSE(g.observed(g.edge(e).dst));
    EXPECT_EQ(s.peek(i), e);  // unmetered re-read returns the same entry
  }
  const auto reads = c.seq_read_bytes;
  (void)s.peek(0);
  EXPECT_EQ(c.seq_read_bytes, reads);  // peek charges nothing

  s.keep(meter, s.peek(1));
  ASSERT_TRUE(s.advance(0));
  EXPECT_EQ(s.begin_iteration(1), 1u);
  EXPECT_FALSE(s.advance(1));
}

TEST(Schedules, ResidualSchedulePrioritizesLargestResidual) {
  const auto g = chain_graph();
  auto opts = base_opts();
  opts.queue_threshold = 0.01f;
  const ConvergenceController ctl(opts,
                                  ConvergenceController::Cadence::kEveryIteration);
  perf::Counters c;
  perf::Meter meter(c);
  ResidualSchedule s(g, ctl, meter);
  // All unobserved nodes have parents in the undirected chain, so all three
  // start at FLT_MAX. Drain the initial sweep with sub-threshold deltas.
  NodeId v = 0;
  std::vector<NodeId> initial;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.pop(v));
    s.record(v, 0.0f);  // below queue_threshold: no reprioritization
    initial.push_back(v);
  }
  EXPECT_FALSE(s.pop(v));
  EXPECT_TRUE(s.empty());
  ASSERT_EQ(initial.size(), 3u);

  // Recording an active delta raises only the unconverged children.
  s.record(1, 0.5f);  // children of 1: nodes 0 and 2 (2 observed -> skipped)
  ASSERT_TRUE(s.pop(v));
  EXPECT_EQ(v, 0u);
  s.record(0, 0.2f);  // raises 1 (its only unobserved child)
  ASSERT_TRUE(s.pop(v));
  EXPECT_EQ(v, 1u);
  s.record(1, 0.0f);
  EXPECT_FALSE(s.pop(v));
}

TEST(Schedules, ResidualSchedulePopSkipsStaleEntries) {
  const auto g = chain_graph();
  const ConvergenceController ctl(base_opts(),
                                  ConvergenceController::Cadence::kEveryIteration);
  perf::Counters c;
  perf::Meter meter(c);
  ResidualSchedule s(g, ctl, meter);
  // record(1, ...) clears node 1's residual, so its initial FLT_MAX heap
  // entry no longer matches the residual table and must be skipped.
  s.record(1, 0.3f);
  NodeId v = 0;
  std::uint64_t pops = 0;
  while (s.pop(v)) {
    ++pops;
    EXPECT_NE(v, 1u);
    s.record(v, 0.0f);
  }
  EXPECT_EQ(pops, 2u);  // only nodes 0 and 3 remain fresh
  EXPECT_TRUE(s.empty());
}

TEST(Schedules, TreeLevelsNaiveAndIndexedAgree) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 11;
  const auto g = graph::random_tree(40, cfg);
  perf::Counters c1, c2;
  perf::Meter m1(c1), m2(c2);
  const TreeLevels naive(g, /*naive=*/true, m1);
  const TreeLevels indexed(g, /*naive=*/false, m2);
  EXPECT_EQ(naive.max_level(), indexed.max_level());
  // The naive mode's full edge-list scans are the §2.1.1 "enormous
  // overhead": strictly more modelled traffic than the indexed walk.
  EXPECT_GT(c1.seq_read_bytes, c2.seq_read_bytes);
  // Identical edge visitation in both cost regimes.
  for (std::uint32_t l = 1; l <= naive.max_level(); ++l) {
    std::vector<EdgeId> e1, e2;
    naive.for_edges(g, l, l - 1, m1, [&](EdgeId e) { e1.push_back(e); });
    indexed.for_edges(g, l, l - 1, m2, [&](EdgeId e) { e2.push_back(e); });
    EXPECT_EQ(e1, e2) << "level " << l;
  }
}

// ---------------------------------------------------------------------------
// BpOptions::validate_status
// ---------------------------------------------------------------------------

TEST(Validate, RejectsEachBadField) {
  const auto reject = [](auto&& mutate) {
    auto o = base_opts();
    mutate(o);
    EXPECT_EQ(o.validate_status().code(),
              util::StatusCode::kInvalidArgument);
  };
  reject([](BpOptions& o) { o.convergence_threshold = 0.0f; });
  reject([](BpOptions& o) { o.convergence_threshold = -1.0f; });
  reject([](BpOptions& o) { o.convergence_threshold = NAN; });
  reject([](BpOptions& o) { o.queue_threshold = 0.0f; });
  reject([](BpOptions& o) { o.max_iterations = 0; });
  reject([](BpOptions& o) { o.damping = -0.1f; });
  reject([](BpOptions& o) { o.damping = 1.0f; });
  reject([](BpOptions& o) { o.damping = NAN; });
  reject([](BpOptions& o) { o.threads = 0; });
  reject([](BpOptions& o) { o.block_threads = 0; });
  reject([](BpOptions& o) { o.convergence_batch = 0; });
  reject([](BpOptions& o) { o.host_deadline_seconds = -1.0; });
  reject([](BpOptions& o) { o.host_deadline_seconds = NAN; });
  reject([](BpOptions& o) { o.modelled_deadline_seconds = -1.0; });
  EXPECT_TRUE(base_opts().validate_status().is_ok());
}

// Regression: a queue bar at or above the global threshold lets the §3.5
// work queue drop elements the global stopping rule still counts, so the
// run can neither drain nor converge. validate_status() must refuse it.
TEST(Validate, RejectsQueueThresholdAtOrAboveConvergenceThreshold) {
  auto o = base_opts();
  o.queue_threshold = o.convergence_threshold;  // equal is already wrong
  EXPECT_EQ(o.validate_status().code(),
            util::StatusCode::kInvalidArgument);
  o.queue_threshold = o.convergence_threshold * 10.0f;
  EXPECT_EQ(o.validate_status().code(),
            util::StatusCode::kInvalidArgument);
  o.queue_threshold = o.convergence_threshold * 0.5f;
  EXPECT_TRUE(o.validate_status().is_ok());
}

TEST(Validate, FluentSettersChainAndAggregateInitStillWorks) {
  const BpOptions fluent = BpOptions{}
                               .with_convergence_threshold(1e-4f)
                               .with_queue_threshold(1e-5f)
                               .with_max_iterations(50)
                               .with_work_queue()
                               .with_threads(4)
                               .with_damping(0.25f)
                               .with_collect_trace();
  EXPECT_FLOAT_EQ(fluent.convergence_threshold, 1e-4f);
  EXPECT_FLOAT_EQ(fluent.queue_threshold, 1e-5f);
  EXPECT_EQ(fluent.max_iterations, 50u);
  EXPECT_TRUE(fluent.work_queue);
  EXPECT_EQ(fluent.threads, 4u);
  EXPECT_FLOAT_EQ(fluent.damping, 0.25f);
  EXPECT_TRUE(fluent.collect_trace);
  EXPECT_TRUE(fluent.validate_status().is_ok());

  // Designated-initializer (aggregate) construction must keep compiling:
  // the setters are plain member functions, not constructors.
  const BpOptions aggregate{.convergence_threshold = 1e-4f,
                            .max_iterations = 10};
  EXPECT_EQ(aggregate.max_iterations, 10u);
  EXPECT_FALSE(aggregate.work_queue);
}

// ---------------------------------------------------------------------------
// Cooperative stop: tokens and deadlines through the drivers (§5c)
// ---------------------------------------------------------------------------

FactorGraph stop_graph() {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 31;
  cfg.observed_fraction = 0.05;
  return graph::grid(10, 10, cfg);
}

TEST(Stop, DefaultTokenNeverFires) {
  const std::stop_token token;
  EXPECT_FALSE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_FALSE(DeadlineGuard(token, 0.0, 0.0).active());
}

TEST(Stop, PreCancelledTokenStopsRunAtFirstIteration) {
  std::stop_source source;
  source.request_stop();
  for (const auto kind : {EngineKind::kCpuNode, EngineKind::kCpuEdge,
                          EngineKind::kResidual}) {
    auto opts = base_opts();
    opts.with_stop(source.get_token());
    const auto r = make_default_engine(kind)->run(stop_graph(), opts);
    EXPECT_EQ(r.stats.stop_reason, StopReason::kCancelled)
        << engine_name(kind);
    EXPECT_FALSE(r.stats.converged) << engine_name(kind);
    EXPECT_LE(r.stats.iterations, 1u) << engine_name(kind);
  }
}

TEST(Stop, ModelledDeadlineFiresAtConvergenceCheck) {
  auto opts = base_opts();
  opts.convergence_threshold = 1e-9f;  // keep iterating to the cap...
  opts.queue_threshold = 1e-10f;
  opts.max_iterations = 100;
  opts.with_modelled_deadline(1e-12);  // ...but the budget fires first
  const auto r =
      make_default_engine(EngineKind::kCpuNode)->run(stop_graph(), opts);
  EXPECT_EQ(r.stats.stop_reason, StopReason::kDeadline);
  EXPECT_FALSE(r.stats.converged);
  EXPECT_LT(r.stats.iterations, 100u);
}

TEST(Stop, UnconstrainedRunReportsNoStopReason) {
  const auto r =
      make_default_engine(EngineKind::kCpuNode)->run(stop_graph(),
                                                     base_opts());
  EXPECT_EQ(r.stats.stop_reason, StopReason::kNone);
  EXPECT_TRUE(r.stats.converged);
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

FactorGraph trace_graph() {
  graph::BeliefConfig cfg;
  cfg.beliefs = 3;
  cfg.seed = 23;
  cfg.observed_fraction = 0.1;
  return graph::grid(8, 8, cfg);
}

TEST(Telemetry, TraceOffByDefault) {
  const auto r =
      make_default_engine(EngineKind::kCpuNode)->run(trace_graph(), base_opts());
  EXPECT_TRUE(r.stats.trace.empty());
}

TEST(Telemetry, CpuTraceMatchesFinalStats) {
  for (const auto kind : {EngineKind::kCpuNode, EngineKind::kCpuEdge,
                          EngineKind::kOmpNode, EngineKind::kOmpEdge}) {
    auto opts = base_opts();
    opts.collect_trace = true;
    opts.work_queue = true;
    const auto r = make_default_engine(kind)->run(trace_graph(), opts);
    ASSERT_EQ(r.stats.trace.size(), r.stats.iterations) << engine_name(kind);
    std::uint64_t processed = 0;
    for (std::size_t i = 0; i < r.stats.trace.size(); ++i) {
      const auto& rec = r.stats.trace[i];
      EXPECT_EQ(rec.iteration, i + 1);
      EXPECT_TRUE(rec.checked);  // CPU engines check every iteration
      EXPECT_GE(rec.frontier, rec.processed);
      processed += rec.processed;
      if (i > 0) {
        EXPECT_GE(rec.time.total(), r.stats.trace[i - 1].time.total());
      }
    }
    EXPECT_EQ(processed, r.stats.elements_processed) << engine_name(kind);
    EXPECT_DOUBLE_EQ(r.stats.trace.back().delta, r.stats.final_delta)
        << engine_name(kind);
  }
}

TEST(Telemetry, GpuTraceFollowsBatchedCadence) {
  auto opts = base_opts();
  opts.collect_trace = true;
  opts.convergence_batch = 4;
  const auto r =
      make_default_engine(EngineKind::kCudaNode)->run(trace_graph(), opts);
  ASSERT_EQ(r.stats.trace.size(), r.stats.iterations);
  for (std::size_t i = 0; i < r.stats.trace.size(); ++i) {
    const auto& rec = r.stats.trace[i];
    const bool batch_boundary =
        (i + 1) % 4 == 0 || i + 1 == opts.max_iterations;
    EXPECT_EQ(rec.checked, batch_boundary) << "iteration " << i + 1;
    if (!rec.checked) EXPECT_EQ(rec.delta, 0.0);
  }
  EXPECT_TRUE(r.stats.trace.back().checked);
  EXPECT_DOUBLE_EQ(r.stats.trace.back().delta, r.stats.final_delta);
}

TEST(Telemetry, TreeTraceHasOneRecordPerSweep) {
  graph::BeliefConfig cfg;
  cfg.beliefs = 2;
  cfg.seed = 5;
  const auto g = graph::random_tree(30, cfg);
  auto opts = base_opts();
  opts.collect_trace = true;
  const auto r = make_default_engine(EngineKind::kTree)->run(g, opts);
  ASSERT_EQ(r.stats.trace.size(), 2u);
  EXPECT_EQ(r.stats.trace[0].iteration, 1u);
  EXPECT_EQ(r.stats.trace[1].iteration, 2u);
  EXPECT_FALSE(r.stats.trace[0].checked);  // no convergence sum on trees
  EXPECT_EQ(r.stats.trace[0].processed + r.stats.trace[1].processed,
            r.stats.elements_processed);
}

TEST(Telemetry, WriteTraceCsvEmitsHeaderAndRows) {
  std::vector<IterationRecord> trace(2);
  trace[0].iteration = 1;
  trace[0].delta = 0.5;
  trace[0].checked = true;
  trace[0].frontier = 10;
  trace[0].processed = 9;
  trace[1].iteration = 2;
  std::ostringstream os;
  write_trace_csv(os, trace);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line,
            "iteration,delta,checked,frontier,processed,compute_s,memory_s,"
            "atomic_s,critical_s,overhead_s,transfer_s,alloc_s,total_s");
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line.substr(0, 2), "1,");
  EXPECT_NE(line.find(",1,10,9,"), std::string::npos);
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line.substr(0, 2), "2,");
  EXPECT_FALSE(std::getline(is, line));
}

}  // namespace
}  // namespace credo::bp::runtime
