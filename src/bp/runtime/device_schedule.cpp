#include "bp/runtime/device_schedule.h"

namespace credo::bp::runtime {

void DeviceFrontier::upload(std::uint64_t count,
                            std::span<const std::uint32_t> init) {
  queue_a_ = dev_.alloc<std::uint32_t>(count);
  queue_b_ = dev_.alloc<std::uint32_t>(count);
  cursor_ = dev_.alloc<std::uint32_t>(1);
  dev_.h2d<std::uint32_t>(queue_a_, init);
  size_ = init.size();
}

bool DeviceFrontier::advance(std::uint32_t /*iter*/) {
  if (!queued_) return true;
  const std::uint32_t appended = cursor_.host()[0];
  perf::Meter m(dev_.mutable_counters());
  m.d2h(sizeof(std::uint32_t));
  // Every append serialized on the single cursor.
  m.atomic(0, appended);
  size_ = appended;
  return size_ != 0;
}

}  // namespace credo::bp::runtime
