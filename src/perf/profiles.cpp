#include "perf/profiles.h"

#include <algorithm>

namespace credo::perf {

HardwareProfile cpu_i7_7700hq_serial() {
  HardwareProfile p;
  p.name = "i7-7700HQ (1 thread)";
  p.kind = PlatformKind::kCpuSerial;
  p.parallel_units = 1;
  // One Kaby Lake core at ~3.4 GHz turbo; scalar+partial-vector FP on the
  // pointer-chasing BP loops sustains nowhere near peak AVX2.
  p.flops_per_s = 8e9;
  p.seq_bw = 14e9;  // single-core streaming share of dual-channel DDR4-2400
  p.rand_transaction_bytes = 64;  // cache line
  p.rand_latency_s = 85e-9;       // DRAM round trip
  // BP's scatter across the padded AoS belief array sustains little
  // memory-level parallelism (index chains through the adjacency list).
  p.rand_concurrency = 2;
  p.near_latency_s = 16e-9;  // L2-resident accumulators
  p.near_concurrency = 4;
  p.atomic_issue_s = 6e-9;        // lock-prefixed RMW, uncontended
  p.atomic_serial_s = 0;          // single thread: no contention
  return p;
}

HardwareProfile cpu_i7_7700hq_parallel(int threads) {
  HardwareProfile p = cpu_i7_7700hq_serial();
  threads = std::max(1, threads);
  p.name = "i7-7700HQ (" + std::to_string(threads) + " threads)";
  p.kind = PlatformKind::kCpuParallel;
  p.parallel_units = threads;
  const int physical = 4;
  const double effective =
      threads <= physical
          ? threads
          // Hyperthreads share ports and L1/L2; each pair yields ~1.25x one
          // core, matching the paper's observation that 8 threads perform
          // worst of all.
          : physical + 0.25 * (threads - physical);
  p.flops_per_s *= effective;
  // Streaming bandwidth is shared: it grows only marginally before the
  // dual-channel controller saturates (the "memory stalls" of §2.4).
  p.seq_bw *= std::min(1.3, 1.0 + 0.15 * (threads - 1));
  // Scattered-miss concurrency does not scale with the team: the DRAM
  // banks and shared LLC queue are the bottleneck, so more threads mostly
  // queue behind the same misses (vTune's observation in §2.4).
  // rand/near concurrency therefore stay at the single-core values.
  // Contended atomics bounce cache lines between cores.
  p.atomic_serial_s = 20e-9;
  // Fork/join: OMP-style team wake + barrier, growing with team size; the
  // paper measured (gprof) regions of <1 ms where this dominates.
  p.fork_join_s = 4e-6 + 6e-6 * threads;
  p.smt_penalty = threads > physical ? 1.5 : 1.0;
  return p;
}

HardwareProfile gpu_gtx1070() {
  HardwareProfile p;
  p.name = "GTX 1070 (Pascal)";
  p.kind = PlatformKind::kGpu;
  p.parallel_units = 15;  // SMs
  p.flops_per_s = 6.5e12;
  p.seq_bw = 256e9;
  // Uncoalesced access is served in 32 B sectors; Pascal keeps a deep queue
  // of outstanding transactions across all SMs (latency hiding is the
  // GPU's core advantage over the CPU on the Node paradigm's scatter).
  p.rand_transaction_bytes = 32;
  p.rand_latency_s = 400e-9;
  p.rand_concurrency = 15 * 150.0;
  p.near_latency_s = 240e-9;  // L2-resident scatter
  p.near_concurrency = 15 * 150.0;
  p.shared_op_s = 2.2e-11;    // bank-conflict-free shared access, chipwide
  p.const_op_s = 1.2e-11;     // constant cache broadcast
  // Scattered atomics resolve in L2 at ~3 G ops/s chipwide; conflicting
  // addresses additionally serialize at ~4 ns per turn.
  p.atomic_issue_s = 0.35e-9;
  p.atomic_serial_s = 4e-9;
  p.launch_s = 8e-6;
  p.barrier_s = 3e-8;  // per-block __syncthreads wave
  p.pcie_bw = 11e9;    // PCIe 3.0 x16 effective
  p.transfer_latency_s = 9e-6;
  // cudaMalloc/cudaFree pairs for multi-MB buffers.
  p.alloc_base_s = 450e-6;
  p.alloc_per_byte_s = 9e-12;  // VRAM page mapping
  p.vram_bytes = 8.0 * (1ull << 30);
  return p;
}

HardwareProfile gpu_v100() {
  HardwareProfile p = gpu_gtx1070();
  p.name = "V100 SXM2 (Volta)";
  p.parallel_units = 80;
  p.flops_per_s = 14e12;
  // The paper calls out Volta's ~1.5x memory bandwidth over Pascal as a key
  // portability factor (900 vs 256 GB/s on paper; ~1.5x realized on the BP
  // access patterns, which are latency-limited).
  p.seq_bw = 840e9;
  p.rand_latency_s = 390e-9;
  p.rand_concurrency = 80 * 150.0;
  p.near_latency_s = 230e-9;
  p.near_concurrency = 80 * 150.0;
  p.shared_op_s = 0.9e-11;
  p.const_op_s = 0.7e-11;
  // Independent thread scheduling lowers the cost of contended atomics —
  // the second stated cause of the classifier's portability gap (§4.4).
  p.atomic_issue_s = 0.15e-9;
  p.atomic_serial_s = 1.6e-9;
  p.launch_s = 7e-6;
  p.barrier_s = 2e-8;
  p.alloc_base_s = 400e-6;
  p.vram_bytes = 16.0 * (1ull << 30);
  return p;
}

HardwareProfile gpu_gtx1070_openacc() {
  HardwareProfile p = gpu_gtx1070();
  p.name = "GTX 1070 (OpenACC runtime)";
  // The PGI runtime adds per-launch scheduling overhead over raw CUDA and
  // its generated kernels reach lower occupancy.
  p.launch_s = 22e-6;
  p.flops_per_s *= 0.7;
  p.rand_concurrency *= 0.7;
  return p;
}

}  // namespace credo::perf
