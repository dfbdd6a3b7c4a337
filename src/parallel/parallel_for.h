// Static fork/join loop dispatch over a ThreadPool — OpenMP's
// `schedule(static)`, the §2.4 parallel loop.
//
// Chunk-granular: the body receives a whole [lo, hi) range plus the worker
// index, so the element loop lives in the caller and inlines — no
// type-erased call per element. Each worker gets one contiguous block, a
// pure function of (range, team size); parallel_reduce_chunked adds the
// reduction pattern the convergence check uses.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/thread_pool.h"

namespace credo::parallel {

/// Runs body(lo, hi, worker) over disjoint subranges covering
/// [begin, end): worker w gets the w-th of `pool.size()` near-equal
/// contiguous blocks (workers with an empty block are not called).
template <typename Body>
void parallel_for_chunked(ThreadPool& pool, std::uint64_t begin,
                          std::uint64_t end, Body&& body) {
  if (begin >= end) return;
  const unsigned team = pool.size();
  const std::uint64_t span = end - begin;
  pool.run_team([&](unsigned w) {
    const std::uint64_t lo = begin + span * w / team;
    const std::uint64_t hi = begin + span * (w + 1) / team;
    if (lo < hi) body(lo, hi, w);
  });
}

/// Chunk-granular reduction: body(lo, hi, worker, partial) accumulates into
/// one cache-line-padded double per worker; the partials are summed in
/// worker order, so the result is reproducible for a fixed range and team
/// size (and exact whenever the addends are exactly representable).
template <typename Body>
[[nodiscard]] double parallel_reduce_chunked(ThreadPool& pool,
                                             std::uint64_t begin,
                                             std::uint64_t end, Body&& body) {
  struct alignas(64) Padded {
    double v = 0.0;
  };
  std::vector<Padded> partials(pool.size());
  parallel_for_chunked(pool, begin, end,
                       [&](std::uint64_t lo, std::uint64_t hi, unsigned w) {
                         body(lo, hi, w, partials[w].v);
                       });
  double sum = 0.0;
  for (const auto& p : partials) sum += p.v;
  return sum;
}

}  // namespace credo::parallel
