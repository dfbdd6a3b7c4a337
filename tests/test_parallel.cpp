// Tests for the thread-pool substrate: team execution, the static
// chunk-granular dispatch, reductions, and coverage properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace credo::parallel {
namespace {

TEST(ThreadPool, RunsEveryWorkerOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run_team([&](unsigned w) { hits[w].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int region = 0; region < 50; ++region) {
    pool.run_team([&](unsigned) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, SingleWorkerWorks) {
  ThreadPool pool(1);
  int value = 0;
  pool.run_team([&](unsigned w) {
    EXPECT_EQ(w, 0u);
    value = 42;
  });
  EXPECT_EQ(value, 42);
}

// ---------------------------------------------------------------------------
// Static chunk-granular dispatch: the body(lo, hi, worker) form every
// PoolBackend region uses (no type-erased call per element).
// ---------------------------------------------------------------------------

TEST(ParallelChunked, ForTilesTheRangeExactly) {
  ThreadPool pool(4);
  constexpr std::uint64_t kBegin = 17, kEnd = 10'017;
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
  parallel_for_chunked(pool, kBegin, kEnd,
                       [&](std::uint64_t lo, std::uint64_t hi, unsigned w) {
                         std::lock_guard<std::mutex> lock(mu);
                         EXPECT_LT(lo, hi);
                         EXPECT_LT(w, 4u);
                         chunks.emplace_back(lo, hi);
                       });
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 4u);  // one contiguous block per worker
  EXPECT_EQ(chunks.front().first, kBegin);
  EXPECT_EQ(chunks.back().second, kEnd);
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, chunks[i - 1].second)
        << "gap or overlap at chunk " << i;
  }
}

TEST(ParallelChunked, ForEmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for_chunked(pool, 5, 5,
                       [&](std::uint64_t, std::uint64_t, unsigned) {
                         calls.fetch_add(1);
                       });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelChunked, ForSmallOffsetRangesTileAcrossTheTeam) {
  // A range shorter than the team leaves the extra workers without a
  // block; either way the blocks tile the range exactly.
  ThreadPool pool(4);
  for (const std::uint64_t len : {10u, 3u, 1u}) {
    std::mutex mu;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
    parallel_for_chunked(pool, 100, 100 + len,
                         [&](std::uint64_t lo, std::uint64_t hi, unsigned) {
                           std::lock_guard<std::mutex> lock(mu);
                           EXPECT_LT(lo, hi);
                           chunks.emplace_back(lo, hi);
                         });
    std::sort(chunks.begin(), chunks.end());
    ASSERT_EQ(chunks.size(), std::min<std::uint64_t>(len, 4)) << len;
    EXPECT_EQ(chunks.front().first, 100u);
    EXPECT_EQ(chunks.back().second, 100 + len);
    for (std::size_t i = 1; i < chunks.size(); ++i) {
      EXPECT_EQ(chunks[i].first, chunks[i - 1].second);
    }
  }
}

TEST(ParallelChunked, ReduceMatchesSerialSum) {
  ThreadPool pool(4);
  constexpr std::uint64_t kN = 5000;
  const double sum = parallel_reduce_chunked(
      pool, 0, kN,
      [](std::uint64_t lo, std::uint64_t hi, unsigned, double& partial) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          partial += static_cast<double>(i);
        }
      });
  EXPECT_DOUBLE_EQ(sum, kN * (kN - 1) / 2.0);
}

TEST(ParallelChunked, StaticReductionIsDeterministic) {
  // Static block->worker assignment is a pure function of (range,
  // workers), and partials are summed in worker order — so a reduction
  // over rounding-sensitive values must give the same bits every run.
  ThreadPool pool(4);
  constexpr std::uint64_t kN = 20'000;
  const auto run = [&] {
    return parallel_reduce_chunked(
        pool, 0, kN,
        [](std::uint64_t lo, std::uint64_t hi, unsigned, double& partial) {
          for (std::uint64_t i = lo; i < hi; ++i) {
            partial += 0.1 * static_cast<double>(i % 7);
          }
        });
  };
  const double first = run();
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_EQ(run(), first) << "run " << rep;
  }
}

TEST(ParallelChunked, ReducePartialsAreIsolatedPerWorker) {
  // A reduction whose body writes its partial per element must not race:
  // the result must be exact, not approximately right.
  ThreadPool pool(4);
  const double sum = parallel_reduce_chunked(
      pool, 0, 100'000,
      [](std::uint64_t lo, std::uint64_t hi, unsigned, double& partial) {
        for (std::uint64_t i = lo; i < hi; ++i) partial += 1.0;
      });
  EXPECT_DOUBLE_EQ(sum, 100'000.0);
}

}  // namespace
}  // namespace credo::parallel
