// Hardware platform profiles.
//
// A HardwareProfile holds the per-platform constants the cost model combines
// with measured event counts. The shipped profiles describe the paper's two
// evaluation machines (i7-7700HQ + GTX 1070 "Pascal"; the AWS p3.2xlarge's
// V100 "Volta") using published datasheet figures, plus derived CPU-parallel
// profiles for the OpenMP study.
#pragma once

#include <string>

namespace credo::perf {

/// Platform class; decides which overhead terms apply.
enum class PlatformKind {
  kCpuSerial,    // single thread; no launches, no transfers
  kCpuParallel,  // fork/join thread team; region overheads apply
  kGpu,          // device; launches + transfers + allocation overheads apply
};

/// Constants describing one execution platform. Times are seconds,
/// bandwidths bytes/second, rates per-second.
struct HardwareProfile {
  std::string name;
  PlatformKind kind = PlatformKind::kCpuSerial;

  /// Number of hardware execution units (threads or SMs); informational and
  /// used for fork/join scaling on CPUs.
  int parallel_units = 1;

  /// Peak sustainable FLOP rate across the whole platform.
  double flops_per_s = 1e9;

  /// Streaming (coalesced / prefetch-friendly) memory bandwidth.
  double seq_bw = 1e9;

  /// Scattered access: granularity of one transaction (cache line or DRAM
  /// sector), the latency of one transaction, and how many transactions the
  /// platform keeps in flight (memory-level parallelism). Effective random
  /// bandwidth = granularity * concurrency / latency.
  double rand_transaction_bytes = 64;
  double rand_latency_s = 80e-9;
  double rand_concurrency = 8;

  /// Scattered accesses into a cache-resident working set (the Edge
  /// paradigm's packed accumulators): same granularity, cache latency.
  double near_latency_s = 16e-9;
  double near_concurrency = 4;

  /// Memory-level parallelism a single lane sustains on its own critical
  /// path (outstanding loads per thread); divides serial_latency_ops.
  double thread_ilp = 2;

  /// On-chip memories (GPU): per-operation costs, already amortized across
  /// the platform's parallelism.
  double shared_op_s = 0;
  double const_op_s = 0;

  /// Atomics: issue cost per operation (fully parallel across units) plus a
  /// serialization cost paid per operation within the most contended group.
  double atomic_issue_s = 1e-9;
  double atomic_serial_s = 10e-9;

  /// Control overheads.
  double launch_s = 0;        // per kernel launch
  double barrier_s = 0;       // per device-wide barrier / __syncthreads wave
  double fork_join_s = 0;     // per CPU parallel region (grows with team)
  double smt_penalty = 1.0;   // multiplier on compute+memory when the team
                              // oversubscribes physical cores (hyperthreads)

  /// Host <-> device interconnect.
  double pcie_bw = 12e9;
  double transfer_latency_s = 10e-6;

  /// Device memory management.
  double alloc_base_s = 0;       // per cudaMalloc-like call
  double alloc_per_byte_s = 0;   // page-mapping cost
  double vram_bytes = 0;         // capacity (0 = host memory, unchecked)
};

/// Intel i7-7700HQ, one thread at turbo clock — the paper's control
/// "optimized single threaded C implementation".
[[nodiscard]] HardwareProfile cpu_i7_7700hq_serial();

/// i7-7700HQ running an OpenMP-style fork/join team of `threads` threads
/// (4 physical cores + hyperthreads, as in the paper's §2.4 study).
[[nodiscard]] HardwareProfile cpu_i7_7700hq_parallel(int threads);

/// NVIDIA GTX 1070 (Pascal): 15 SMs, 1920 CUDA cores, 8 GB VRAM.
[[nodiscard]] HardwareProfile gpu_gtx1070();

/// NVIDIA V100 SXM2 16 GB (Volta): 80 SMs, 5120 CUDA cores, independent
/// thread scheduling (cheaper atomics), ~1.5x Pascal memory bandwidth.
[[nodiscard]] HardwareProfile gpu_v100();

/// OpenACC-style naive offload on the GTX 1070: same silicon, but with the
/// scheduler overheads the paper observed (imprecise device-side reductions
/// and per-iteration transfer scheduling are modelled in the engine itself;
/// this profile only adds the runtime's higher launch cost).
[[nodiscard]] HardwareProfile gpu_gtx1070_openacc();

}  // namespace credo::perf
