#include "perf/cost_model.h"

#include <algorithm>
#include <cmath>

namespace credo::perf {
namespace {

/// Scattered-access time: transactions serialized through the platform's
/// miss-handling capacity.
double scattered_time(std::uint64_t bytes, std::uint64_t ops,
                      double granularity, double latency,
                      double concurrency) {
  if (ops == 0) return 0.0;
  const double avg_access = static_cast<double>(bytes) / static_cast<double>(ops);
  const double trans_per_access =
      std::max(1.0, std::ceil(avg_access / granularity));
  const double transactions = static_cast<double>(ops) * trans_per_access;
  return transactions * latency / std::max(1.0, concurrency);
}

}  // namespace

TimeBreakdown model_time(const Counters& c, const HardwareProfile& p) {
  TimeBreakdown t;

  t.compute_s = static_cast<double>(c.flops) / p.flops_per_s;
  t.compute_s += static_cast<double>(c.shared_ops) * p.shared_op_s;
  t.compute_s += static_cast<double>(c.const_ops) * p.const_op_s;

  const double stream_bytes =
      static_cast<double>(c.seq_read_bytes + c.seq_write_bytes);
  t.memory_s = stream_bytes / p.seq_bw;
  t.memory_s += scattered_time(c.rand_read_bytes, c.rand_read_ops,
                               p.rand_transaction_bytes, p.rand_latency_s,
                               p.rand_concurrency);
  t.memory_s += scattered_time(c.rand_write_bytes, c.rand_write_ops,
                               p.rand_transaction_bytes, p.rand_latency_s,
                               p.rand_concurrency);
  t.memory_s += scattered_time(c.near_read_bytes, c.near_read_ops,
                               p.rand_transaction_bytes, p.near_latency_s,
                               p.near_concurrency);
  t.memory_s += scattered_time(c.near_write_bytes, c.near_write_ops,
                               p.rand_transaction_bytes, p.near_latency_s,
                               p.near_concurrency);

  t.critical_s = static_cast<double>(c.serial_latency_ops) *
                 p.rand_latency_s / std::max(1.0, p.thread_ilp);

  if (c.atomic_ops > 0) {
    // Issue cost is paid by every op (parallel across units); the engines
    // additionally report the longest same-address conflict chain per
    // kernel/region, which serializes at the platform's turn-around cost.
    t.atomic_s = static_cast<double>(c.atomic_ops) * p.atomic_issue_s +
                 static_cast<double>(c.atomic_chain_ops) * p.atomic_serial_s;
  }

  t.overhead_s = static_cast<double>(c.kernel_launches) * p.launch_s +
                 static_cast<double>(c.barriers) * p.barrier_s +
                 static_cast<double>(c.parallel_regions) * p.fork_join_s;

  const double moved = static_cast<double>(c.h2d_bytes + c.d2h_bytes);
  t.transfer_s = moved / p.pcie_bw +
                 static_cast<double>(c.transfer_ops) * p.transfer_latency_s;

  t.alloc_s = static_cast<double>(c.device_allocs) * p.alloc_base_s +
              static_cast<double>(c.device_alloc_bytes) * p.alloc_per_byte_s;

  if (p.smt_penalty > 1.0) {
    t.compute_s *= p.smt_penalty;
    t.memory_s *= p.smt_penalty;
  }
  return t;
}

}  // namespace credo::perf
