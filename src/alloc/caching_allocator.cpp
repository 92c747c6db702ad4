#include "alloc/caching_allocator.h"

#include <stdexcept>

#include "util/json.h"

namespace xmem::alloc {

std::int64_t CachingAllocatorSim::round_size(std::int64_t size) {
  if (size < kMinBlockSize) return kMinBlockSize;
  return util::round_up(size, kMinBlockSize);
}

std::int64_t CachingAllocatorSim::allocation_size(std::int64_t rounded_size) {
  if (rounded_size <= kSmallSize) return kSmallBuffer;
  if (rounded_size < kMinLargeAlloc) return kLargeBuffer;
  return util::round_up(rounded_size, kRoundLarge);
}

AllocOutcome CachingAllocatorSim::allocate(std::int64_t size) {
  core_.check_request(size);
  const std::int64_t rounded = round_size(size);
  const int pool = rounded <= kSmallSize ? kSmallPool : kLargePool;

  Block* block = core_.take_fit(pool, rounded);
  if (block == nullptr) {
    const std::int64_t segment = allocation_size(rounded);
    block = core_.map_segment(segment, pool);
    // First-level miss at the device: reclaim every unsplit cached segment
    // (the step DNNMem's model omits — see Section 5.1) and retry once.
    if (block == nullptr && release_cached_segments() > 0) {
      ++num_cache_reclaims_;
      block = core_.map_segment(segment, pool);
    }
    if (block == nullptr) return AllocOutcome{kInvalidBlock, true, rounded};
    ++num_segments_allocated_;
  }
  // Upstream's should_split: keep a remainder of any 512 B multiple in the
  // small pool, but only one larger than kSmallSize in the large pool.
  const std::int64_t remaining = block->size - rounded;
  if (pool == kSmallPool ? remaining >= kMinBlockSize
                         : remaining > kSmallSize) {
    core_.split(block, rounded);
  }
  block->requested = size;
  requested_bytes_ += size;
  const fw::BackendAllocResult result = core_.activate(block);
  return AllocOutcome{result.id, false, result.charged_bytes};
}

void CachingAllocatorSim::free(BlockId id) {
  Block* block = core_.retire(id);
  requested_bytes_ -= block->requested;
  core_.coalesce(block);
}

std::int64_t CachingAllocatorSim::release_cached_segments() {
  // A segment is releasable when its whole extent is one free block.
  return core_.release_free_segments([] { return false; });
}

void CachingAllocatorSim::backend_reset() {
  core_.reset();
  requested_bytes_ = 0;
  num_segments_allocated_ = 0;
  num_cache_reclaims_ = 0;
}

CachingAllocatorStats CachingAllocatorSim::stats() const {
  const fw::BackendStats& core = core_.stats();
  CachingAllocatorStats s;
  s.allocated_bytes = core.active_bytes;
  s.peak_allocated_bytes = core.peak_active_bytes;
  s.requested_bytes = requested_bytes_;
  s.reserved_bytes = core.reserved_bytes;
  s.peak_reserved_bytes = core.peak_reserved_bytes;
  s.num_allocs = core.num_allocs;
  s.num_frees = core.num_frees;
  s.num_splits = core_.num_splits();
  s.num_coalesces = core_.num_coalesces();
  s.num_segments_allocated = num_segments_allocated_;
  s.num_segments_released = num_segments_allocated_ - core.num_segments;
  s.num_cache_reclaims = num_cache_reclaims_;
  return s;
}

const BlockCore::Block& CachingAllocatorSim::live_block(BlockId id) const {
  const Block* block = core_.live(id);
  if (block == nullptr) throw std::logic_error("unknown block id");
  return *block;
}

std::string snapshot_to_json(const std::vector<SegmentInfo>& segments,
                             int indent) {
  util::Json doc = util::Json::array();
  for (const SegmentInfo& segment : segments) {
    util::Json seg = util::Json::object();
    seg["address"] = util::Json(static_cast<std::int64_t>(segment.addr));
    seg["total_size"] = util::Json(segment.size);
    seg["segment_type"] = util::Json(segment.is_small_pool ? "small" : "large");
    util::Json blocks = util::Json::array();
    std::int64_t active = 0;
    for (const BlockInfo& block : segment.blocks) {
      util::Json b = util::Json::object();
      b["address"] = util::Json(static_cast<std::int64_t>(block.addr));
      b["size"] = util::Json(block.size);
      b["state"] = util::Json(block.allocated ? "active_allocated"
                                              : "inactive");
      if (block.allocated) active += block.size;
      blocks.push_back(std::move(b));
    }
    seg["allocated_size"] = util::Json(active);
    seg["blocks"] = std::move(blocks);
    doc.push_back(std::move(seg));
  }
  return doc.dump(indent);
}

std::vector<SegmentInfo> CachingAllocatorSim::snapshot() const {
  std::vector<SegmentInfo> segments;
  for (const Block* head : core_.segments()) {
    SegmentInfo info;
    info.addr = head->addr;
    info.is_small_pool = head->pool == kSmallPool;
    for (const Block* b = head; b != nullptr; b = b->next) {
      info.blocks.push_back(BlockInfo{b->addr, b->size, b->allocated});
      info.size += b->size;
    }
    segments.push_back(std::move(info));
  }
  return segments;
}

}  // namespace xmem::alloc
