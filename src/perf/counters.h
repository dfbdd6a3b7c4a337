// Hardware-event accounting.
//
// Every BP engine executes the real algorithm on the real graph and, as it
// does so, meters the hardware events the execution would generate: floating
// point operations, streaming vs scattered memory traffic, atomic
// read-modify-writes, kernel launches, host<->device transfers, fork/join
// regions. The cost model in cost_model.h maps these measured counts onto a
// hardware profile (GTX 1070, V100, i7-7700HQ, ...) to produce modelled
// execution time. See DESIGN.md §2 for why this substitution preserves the
// paper's results.
#pragma once

#include <cstddef>
#include <cstdint>

namespace credo::perf {

/// Raw event counts accumulated during an engine run.
///
/// "seq" traffic is streaming/coalesced (prefetchable on a CPU, coalesced on
/// a GPU); "rand" traffic is scattered (cache-missing on a CPU, uncoalesced
/// on a GPU) and is counted both in bytes and in individual accesses so the
/// cost model can apply per-transaction granularity (64 B cache lines on the
/// CPU, 32 B sectors on the GPU).
struct Counters {
  // Compute.
  std::uint64_t flops = 0;

  // Streaming memory traffic, bytes.
  std::uint64_t seq_read_bytes = 0;
  std::uint64_t seq_write_bytes = 0;

  // Scattered memory traffic: bytes plus access counts. "rand" traffic
  // targets working sets beyond the cache (DRAM-latency scatter); "near"
  // traffic is scattered but cache-resident (e.g. the Edge paradigm's
  // packed n*beliefs accumulator array, which fits in L2/LLC).
  std::uint64_t rand_read_bytes = 0;
  std::uint64_t rand_read_ops = 0;
  std::uint64_t rand_write_bytes = 0;
  std::uint64_t rand_write_ops = 0;
  std::uint64_t near_read_bytes = 0;
  std::uint64_t near_read_ops = 0;
  std::uint64_t near_write_bytes = 0;
  std::uint64_t near_write_ops = 0;

  // GPU on-chip memory operations (counts, not bytes: latency dominated).
  std::uint64_t shared_ops = 0;
  std::uint64_t const_ops = 0;

  // Atomic read-modify-write operations. `atomic_ops` counts every atomic
  // issued; `atomic_chain_ops` accumulates, per kernel/region, the length of
  // the longest same-address conflict chain (ops on one address serialize;
  // different addresses proceed in parallel). Engines compute the chain from
  // the structure of the update — e.g. per-edge combines conflict
  // max-in-degree deep on the hottest node, and a single work-queue cursor
  // makes every append part of one chain.
  std::uint64_t atomic_ops = 0;
  std::uint64_t atomic_chain_ops = 0;

  // Critical-path serialization: full-latency round trips on a single
  // lane that bound a kernel from below (a hub node's adjacency walk in
  // the Node kernel — no amount of other warps can hide the last lane).
  std::uint64_t serial_latency_ops = 0;

  // Control overheads.
  std::uint64_t kernel_launches = 0;
  std::uint64_t barriers = 0;
  std::uint64_t parallel_regions = 0;

  // Host <-> device traffic.
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t transfer_ops = 0;

  // Device allocations.
  std::uint64_t device_allocs = 0;
  std::uint64_t device_alloc_bytes = 0;

  /// Element-wise accumulation (atomic_groups takes the max: it describes
  /// the widest spread observed, not a sum).
  void add(const Counters& o) noexcept {
    flops += o.flops;
    seq_read_bytes += o.seq_read_bytes;
    seq_write_bytes += o.seq_write_bytes;
    rand_read_bytes += o.rand_read_bytes;
    rand_read_ops += o.rand_read_ops;
    rand_write_bytes += o.rand_write_bytes;
    rand_write_ops += o.rand_write_ops;
    near_read_bytes += o.near_read_bytes;
    near_read_ops += o.near_read_ops;
    near_write_bytes += o.near_write_bytes;
    near_write_ops += o.near_write_ops;
    shared_ops += o.shared_ops;
    const_ops += o.const_ops;
    atomic_ops += o.atomic_ops;
    atomic_chain_ops += o.atomic_chain_ops;
    serial_latency_ops += o.serial_latency_ops;
    kernel_launches += o.kernel_launches;
    barriers += o.barriers;
    parallel_regions += o.parallel_regions;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    transfer_ops += o.transfer_ops;
    device_allocs += o.device_allocs;
    device_alloc_bytes += o.device_alloc_bytes;
  }

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return seq_read_bytes + seq_write_bytes + rand_read_bytes +
           rand_write_bytes + near_read_bytes + near_write_bytes;
  }
};

/// Cheap inline metering facade engines write through. Non-atomic by design:
/// each engine (or simulated device) owns its own Meter and merges at the
/// end, so metering never perturbs the execution being measured.
class Meter {
 public:
  explicit Meter(Counters& c) noexcept : c_(&c) {}

  void flop(std::uint64_t n = 1) noexcept { c_->flops += n; }

  void seq_read(std::uint64_t bytes) noexcept { c_->seq_read_bytes += bytes; }
  void seq_write(std::uint64_t bytes) noexcept {
    c_->seq_write_bytes += bytes;
  }

  /// One scattered access of `bytes` contiguous bytes.
  void rand_read(std::uint64_t bytes, std::uint64_t ops = 1) noexcept {
    c_->rand_read_bytes += bytes * ops;
    c_->rand_read_ops += ops;
  }
  void rand_write(std::uint64_t bytes, std::uint64_t ops = 1) noexcept {
    c_->rand_write_bytes += bytes * ops;
    c_->rand_write_ops += ops;
  }

  /// Scattered but cache-resident accesses (compact working sets).
  void near_read(std::uint64_t bytes, std::uint64_t ops = 1) noexcept {
    c_->near_read_bytes += bytes * ops;
    c_->near_read_ops += ops;
  }
  void near_write(std::uint64_t bytes, std::uint64_t ops = 1) noexcept {
    c_->near_write_bytes += bytes * ops;
    c_->near_write_ops += ops;
  }

  void shared_op(std::uint64_t n = 1) noexcept { c_->shared_ops += n; }
  void const_op(std::uint64_t n = 1) noexcept { c_->const_ops += n; }

  void atomic(std::uint64_t ops, std::uint64_t chain_ops = 0) noexcept {
    c_->atomic_ops += ops;
    c_->atomic_chain_ops += chain_ops;
  }

  void serial_latency(std::uint64_t ops) noexcept {
    c_->serial_latency_ops += ops;
  }

  void kernel_launch() noexcept { ++c_->kernel_launches; }
  void barrier(std::uint64_t n = 1) noexcept { c_->barriers += n; }
  void parallel_region(std::uint64_t n = 1) noexcept {
    c_->parallel_regions += n;
  }

  void h2d(std::uint64_t bytes) noexcept {
    c_->h2d_bytes += bytes;
    ++c_->transfer_ops;
  }
  void d2h(std::uint64_t bytes) noexcept {
    c_->d2h_bytes += bytes;
    ++c_->transfer_ops;
  }
  void device_alloc(std::uint64_t bytes) noexcept {
    ++c_->device_allocs;
    c_->device_alloc_bytes += bytes;
  }

  [[nodiscard]] Counters& counters() noexcept { return *c_; }

 private:
  Counters* c_;
};

}  // namespace credo::perf
