#include "alloc/tf_bfc_allocator.h"

namespace xmem::alloc {

BlockCore::Block* TfBfcAllocator::extend(std::int64_t rounded) {
  // Region growth: at least the request, preferring the doubling schedule.
  // TF backs off to smaller regions before giving up, trying each distinct
  // size once: a failed driver malloc has no side effect, so repeating a
  // size can only fail again.
  const std::int64_t min_region = util::round_up(rounded, kInitialRegionSize);
  std::int64_t region = std::max(next_region_size_, min_region);
  BlockCore::Block* region_block = core_.map_segment(region, 0);
  while (region_block == nullptr && region > min_region) {
    region = std::max(min_region, region / 2);
    region_block = core_.map_segment(region, 0);
  }
  if (region_block != nullptr) {
    next_region_size_ = std::min<std::int64_t>(region * 2,
                                               std::int64_t{1} << 33);
  }
  return region_block;
}

fw::BackendAllocResult TfBfcAllocator::allocate(std::int64_t bytes) {
  core_.check_request(bytes);
  const std::int64_t rounded = round_size(bytes);
  BlockCore::Block* chunk = core_.take_fit(0, rounded);
  if (chunk == nullptr) chunk = extend(rounded);
  if (chunk == nullptr) return fw::BackendAllocResult{-1, rounded, true};
  if (chunk->size - rounded >= kMinAllocationSize) core_.split(chunk, rounded);
  return core_.activate(chunk);
}

}  // namespace xmem::alloc
