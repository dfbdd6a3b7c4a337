// Execution backends (DESIGN.md §5b): where a schedule's elements run.
//
// The runtime's third axis. A backend binds the engine's loop body to an
// execution substrate without owning any BP semantics:
//  * SequentialBackend — the body runs inline on the calling thread;
//  * PoolBackend       — one static fork/join dispatch over a ThreadPool per
//                        call (§2.4's "#pragma omp parallel for", with the
//                        parallel_region event the cost model charges for
//                        team wake/join);
//  * DeviceBackend     — kernel launches on the simulated GPU, plus the
//                        §3.6 shared-memory tree reduction for deferred
//                        convergence sums.
//
// The two CPU backends carry `kTeam`: the engine bodies written over either
// one (c-node/omp-node, c-edge/omp-edge) meter the events of a thread team
// — the §3.5 shared queue cursor and the §3.3 atomic combine — only when
// it is true, so the sequential engines keep their serial costs.
#pragma once

#include <cstdint>
#include <utility>

#include "gpusim/device.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "perf/counters.h"

namespace credo::bp::runtime {

/// Inline execution: the body sees the whole range as one chunk, worker 0.
struct SequentialBackend {
  static constexpr bool kTeam = false;

  [[nodiscard]] static constexpr unsigned workers() noexcept { return 1; }

  template <typename Body>
  void for_range(std::uint64_t begin, std::uint64_t end, Body&& body) const {
    if (begin < end) body(begin, end, 0u);
  }

  /// body(lo, hi, worker, partial); returns the accumulated sum.
  template <typename Body>
  [[nodiscard]] double reduce_range(std::uint64_t begin, std::uint64_t end,
                                    Body&& body) const {
    double partial = 0.0;
    if (begin < end) body(begin, end, 0u, partial);
    return partial;
  }
};

/// Static fork/join dispatch over a ThreadPool. Each dispatch meters one
/// parallel_region on the main counters — the team wake/join overhead that
/// §2.4 found dominating BP's sub-millisecond regions.
class PoolBackend {
 public:
  static constexpr bool kTeam = true;

  PoolBackend(parallel::ThreadPool& pool,
              perf::Counters& main_counters) noexcept
      : pool_(pool), meter_(main_counters) {}

  [[nodiscard]] unsigned workers() const noexcept { return pool_.size(); }

  template <typename Body>
  void for_range(std::uint64_t begin, std::uint64_t end, Body&& body) {
    meter_.parallel_region();
    parallel::parallel_for_chunked(pool_, begin, end,
                                   std::forward<Body>(body));
  }

  template <typename Body>
  [[nodiscard]] double reduce_range(std::uint64_t begin, std::uint64_t end,
                                    Body&& body) {
    meter_.parallel_region();
    return parallel::parallel_reduce_chunked(pool_, begin, end,
                                             std::forward<Body>(body));
  }

 private:
  parallel::ThreadPool& pool_;
  perf::Meter meter_;
};

/// Kernel launches on the simulated device with the run's block size.
class DeviceBackend {
 public:
  DeviceBackend(gpusim::Device& dev, std::uint32_t block_threads) noexcept
      : dev_(dev), block_(block_threads) {}

  template <typename Kernel>
  void launch(std::uint64_t work_items, Kernel&& kernel) {
    dev_.launch(gpusim::LaunchDims::cover(work_items, block_), work_items,
                std::forward<Kernel>(kernel));
  }

  /// The §3.6 deferred convergence sum: shared-memory tree reduction plus
  /// the scalar transfer of the batched check.
  [[nodiscard]] double reduce_to_host(const gpusim::DeviceBuffer<float>& buf,
                                      std::uint64_t n) {
    return dev_.read_scalar(dev_.reduce_sum(buf, n));
  }

 private:
  gpusim::Device& dev_;
  std::uint32_t block_;
};

}  // namespace credo::bp::runtime
