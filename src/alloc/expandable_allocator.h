// PyTorch caching allocator with expandable segments — the
// `expandable_segments:True` + `max_split_size_mb` configuration of the
// CUDACachingAllocator that the base port (caching_allocator.h) explicitly
// leaves out.
//
// Policy differences from the base "pytorch" backend:
//
//   * One *expandable segment* per pool (small/large) instead of many
//     fixed-size buffers: the segment is a contiguous allocator-owned VA
//     range grown in `page_bytes` increments, each increment charged to the
//     driver as its own reservation (upstream maps physical pages into a
//     reserved VA range with cuMemMap; the driver charge models the
//     physical side).
//   * Because growth is incremental, a request that misses the cache only
//     reserves what the tail of the segment is missing — no 20 MiB
//     over-reservation buckets, so reserved tracks active much tighter.
//   * `max_split_size_bytes` caps splitting the way max_split_size_mb does
//     upstream: free blocks larger than the cap are never split, and can
//     only be reused whole by requests that are themselves over the cap.
//     0 means unlimited (the upstream default).
//   * backend_trim() releases the trailing wholly-free extents of each
//     segment (the only part an expandable segment can return).
//
// Each expandable segment is one block list of the shared block core
// (alloc/block_core.h), grown and shrunk at its tail.
#pragma once

#include <cstdint>
#include <vector>

#include "alloc/block_core.h"

namespace xmem::alloc {

struct ExpandableConfig {
  /// Growth granularity of an expandable segment. Driver reservations are
  /// made in multiples of this.
  std::int64_t page_bytes = 2 * util::kMiB;
  /// Free blocks larger than this are never split (0 = unlimited, the
  /// upstream max_split_size default).
  std::int64_t max_split_size_bytes = 0;
};

class ExpandableSegmentsAllocator final : public fw::AllocatorBackend {
 public:
  // Same request-rounding and pool-classification constants as the base
  // caching allocator (c10/cuda/CUDACachingAllocator.cpp).
  static constexpr std::int64_t kMinBlockSize = 512;
  static constexpr std::int64_t kSmallSize = util::kMiB;

  /// Throws std::invalid_argument on a malformed config (non-positive
  /// page_bytes, negative split cap).
  ExpandableSegmentsAllocator(SimulatedCudaDriver& driver,
                              const ExpandableConfig& config);
  ExpandableSegmentsAllocator(const ExpandableSegmentsAllocator&) = delete;
  ExpandableSegmentsAllocator& operator=(const ExpandableSegmentsAllocator&) =
      delete;

  static std::int64_t round_size(std::int64_t size) {
    return util::round_up(std::max(size, kMinBlockSize), kMinBlockSize);
  }

  // fw::AllocatorBackend.
  std::string_view backend_name() const override { return "pytorch-expandable"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override;
  void backend_free(std::int64_t id) override { note_tail(core_.free(id)); }
  fw::BackendStats backend_stats() const override { return core_.stats(); }
  std::int64_t backend_round(std::int64_t bytes) const override {
    return round_size(bytes);
  }
  void backend_trim() override {
    trim(kSmallPool);
    trim(kLargePool);
  }
  void backend_reset() override;

 private:
  static constexpr int kSmallPool = 0;
  static constexpr int kLargePool = 1;

  BlockCore::Block* expand(int pool, std::int64_t rounded);
  void trim(int pool);
  /// Record `block` as its segment's tail if it ends the block list.
  void note_tail(BlockCore::Block* block) {
    if (block->next == nullptr) tail_[block->pool] = block;
  }

  ExpandableConfig config_;
  BlockCore core_;
  // Per pool: the last block of the segment's list (null while empty) and
  // the extents backing the list, newest last. An extent is one driver
  // reservation, kept as a standalone core mapping (its address is the
  // driver's, not the segment's); the list spans exactly their bytes.
  BlockCore::Block* tail_[2] = {nullptr, nullptr};
  std::vector<BlockCore::Block*> extents_[2];
};

}  // namespace xmem::alloc
