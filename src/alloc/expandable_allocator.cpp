#include "alloc/expandable_allocator.h"

#include <stdexcept>
#include <string>

namespace xmem::alloc {

namespace {
// Allocator-owned VA bases for the two expandable segments. These are the
// allocator's addresses (what block handles point into), disjoint from the
// driver's VA space, and far enough apart that neither segment can grow
// into the other in any simulated workload.
constexpr std::uint64_t kSegmentBase[2] = {
    0x010000000000ULL,  // small pool: 1 TiB
    0x400000000000ULL,  // large pool: 64 TiB
};
}  // namespace

ExpandableSegmentsAllocator::ExpandableSegmentsAllocator(
    SimulatedCudaDriver& driver, const ExpandableConfig& config)
    : config_(config), core_("pytorch-expandable", &driver) {
  if (config.page_bytes <= 0) {
    throw std::invalid_argument(
        "pytorch-expandable: page_bytes must be > 0 (got " +
        std::to_string(config.page_bytes) + ")");
  }
  if (config.max_split_size_bytes < 0) {
    throw std::invalid_argument(
        "pytorch-expandable: max_split_size_bytes must be >= 0 "
        "(0 = unlimited; got " +
        std::to_string(config.max_split_size_bytes) + ")");
  }
}

BlockCore::Block* ExpandableSegmentsAllocator::expand(int pool,
                                                      std::int64_t rounded) {
  // Grow the segment by just what the (possibly free) tail is missing,
  // rounded up to the page granularity. A free tail that is already large
  // enough only reaches here when the split cap blocked its reuse — in that
  // case it must not be extended (that would hand an over-cap block to an
  // under-cap request); a fresh block is appended past it instead.
  BlockCore::Block* tail = tail_[pool];
  const bool into_tail =
      tail != nullptr && !tail->allocated && tail->size < rounded;
  const std::int64_t grow = util::round_up(
      into_tail ? rounded - tail->size : rounded, config_.page_bytes);

  BlockCore::Block* extent = core_.map_block(grow, pool);
  if (extent == nullptr) {
    // Return the other segment's trailing free extents and retry once (the
    // expandable analogue of the reclaim-then-retry step).
    trim(pool == kSmallPool ? kLargePool : kSmallPool);
    extent = core_.map_block(grow, pool);
  }
  if (extent == nullptr) return nullptr;
  extents_[pool].push_back(extent);
  if (into_tail) {
    core_.unlist(tail);
    tail->size += grow;
    return tail;
  }
  // An empty segment has no extents left, so it restarts at its base.
  tail_[pool] = tail == nullptr
                    ? core_.new_block(kSegmentBase[pool], grow, pool)
                    : core_.append(tail, grow);
  return tail_[pool];
}

fw::BackendAllocResult ExpandableSegmentsAllocator::backend_alloc(
    std::int64_t bytes) {
  core_.check_request(bytes);
  const std::int64_t rounded = round_size(bytes);
  const int pool = rounded <= kSmallSize ? kSmallPool : kLargePool;
  // max_split_size semantics: an over-cap free block is never split, so it
  // may only be reused (whole) by a request that is itself over the cap —
  // smaller requests skip past it rather than swallowing it.
  const std::int64_t cap = config_.max_split_size_bytes;
  const auto oversize = [cap](const BlockCore::Block& block) {
    return cap > 0 && block.size > cap;
  };
  BlockCore::Block* block =
      core_.take_fit(pool, rounded, [&](const BlockCore::Block& candidate) {
        return !oversize(candidate) || rounded > cap;
      });
  if (block == nullptr) block = expand(pool, rounded);
  if (block == nullptr) return fw::BackendAllocResult{-1, 0, true};

  const std::int64_t min_remainder =
      pool == kSmallPool ? kMinBlockSize : kSmallSize + 1;
  if (block->size - rounded >= min_remainder && !oversize(*block)) {
    note_tail(core_.split(block, rounded));
  }
  return core_.activate(block);
}

void ExpandableSegmentsAllocator::trim(int pool) {
  // Release trailing wholly-free extents, newest first — the only part of
  // an expandable segment that can be unmapped without moving live blocks.
  std::vector<BlockCore::Block*>& extents = extents_[pool];
  while (!extents.empty()) {
    BlockCore::Block* tail = tail_[pool];
    const std::int64_t bytes = extents.back()->size;
    if (tail == nullptr || tail->allocated || tail->size < bytes) break;
    core_.unmap(extents.back());
    extents.pop_back();
    core_.unlist(tail);
    if (tail->size > bytes) {
      tail->size -= bytes;
      core_.list(tail);
    } else {
      tail_[pool] = tail->prev;
      core_.drop_last(tail);
    }
  }
}

void ExpandableSegmentsAllocator::backend_reset() {
  // The core frees the extents with every other mapped block.
  for (int pool : {kSmallPool, kLargePool}) {
    extents_[pool].clear();
    tail_[pool] = nullptr;
  }
  core_.reset();
}

}  // namespace xmem::alloc
