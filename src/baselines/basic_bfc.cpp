#include "baselines/basic_bfc.h"

namespace xmem::baselines {

fw::BackendAllocResult BasicBfcAllocator::backend_alloc(std::int64_t bytes) {
  core_.check_request(bytes);
  const std::int64_t rounded = backend_round(bytes);
  alloc::BlockCore::Block* block = core_.take_fit(0, rounded);
  if (block == nullptr) {
    // Carve a fresh segment out of the unbounded arena.
    const std::int64_t segment = util::round_up(rounded, kSegmentGranularity);
    block = core_.new_block(next_addr_, segment, 0);
    next_addr_ += static_cast<std::uint64_t>(segment) + kSegmentGranularity;
    core_.reserve(segment);
  }
  if (block->size - rounded >= kAlignment) core_.split(block, rounded);
  return core_.activate(block);
}

}  // namespace xmem::baselines
