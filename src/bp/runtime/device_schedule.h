// The device-resident §3.5 work-queue frontier (DESIGN.md §5b).
//
// The GPU form of the work queue is a double-buffered index buffer plus an
// atomic cursor: the kernel appends still-active indices through the
// cursor, and a 4-byte cursor readback (metered d2h plus the append
// serialization) sizes the next launch. DeviceFrontier owns that machinery
// — buffers, parity, the cursor reset and the readback — for node and edge
// indices alike; the engines keep the kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.h"

namespace credo::bp::runtime {

/// An index frontier over [0, count). Built without a queue it is a dense
/// sweep of every index and allocates nothing; built with a seed it is a
/// §3.5 queue holding the indices the seed keeps.
class DeviceFrontier {
 public:
  /// Dense sweep of [0, count) every iteration.
  DeviceFrontier(gpusim::Device& dev, std::uint64_t count) noexcept
      : dev_(dev), size_(count) {}

  /// Queue of up to `count` indices, starting with every i in [0, count)
  /// for which `seed(i)` holds.
  template <typename Seed>
  DeviceFrontier(gpusim::Device& dev, std::uint64_t count, Seed&& seed)
      : dev_(dev), queued_(true) {
    std::vector<std::uint32_t> init;
    init.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      if (seed(i)) init.push_back(static_cast<std::uint32_t>(i));
    }
    upload(count, init);
  }

  [[nodiscard]] bool queued() const noexcept { return queued_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Resets the append cursor (queue mode). Returns the frontier size for
  /// this launch.
  std::uint64_t begin_iteration(std::uint32_t /*iter*/) {
    if (queued_) cursor_.host()[0] = 0;
    return size_;
  }

  /// Current/next queue by iteration parity, and the append cursor, for
  /// the engine's kernel captures.
  [[nodiscard]] gpusim::DeviceSpan<const std::uint32_t> current(
      std::uint32_t iter) const noexcept {
    return (iter % 2 == 0) ? queue_a_.cspan() : queue_b_.cspan();
  }
  [[nodiscard]] gpusim::DeviceSpan<std::uint32_t> next(
      std::uint32_t iter) noexcept {
    return (iter % 2 == 0) ? queue_b_.span() : queue_a_.span();
  }
  [[nodiscard]] gpusim::DeviceSpan<std::uint32_t> cursor() noexcept {
    return cursor_.span();
  }

  /// Host-side read of the i-th scheduled index (the warp-divergence
  /// accounting walks the frontier on the host).
  [[nodiscard]] std::uint32_t host_at(std::uint32_t iter,
                                      std::uint64_t i) const noexcept {
    return current(iter).host(i);
  }

  /// Queue mode: cursor readback (a 4-byte d2h every iteration, part of
  /// the §3.5 queue-management overhead) plus the append serialization,
  /// sizing the next launch; false when the queue drained.
  bool advance(std::uint32_t iter);

 private:
  void upload(std::uint64_t count, std::span<const std::uint32_t> init);

  gpusim::Device& dev_;
  bool queued_ = false;
  std::uint64_t size_ = 0;
  gpusim::DeviceBuffer<std::uint32_t> queue_a_;
  gpusim::DeviceBuffer<std::uint32_t> queue_b_;
  gpusim::DeviceBuffer<std::uint32_t> cursor_;
};

}  // namespace credo::bp::runtime
