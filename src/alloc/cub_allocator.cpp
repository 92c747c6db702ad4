#include "alloc/cub_allocator.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace xmem::alloc {

CubBinnedAllocator::CubBinnedAllocator(SimulatedCudaDriver& driver,
                                       const CubConfig& config)
    : config_(config), core_("cub-binned", &driver) {
  if (config.bin_growth < 2) {
    throw std::invalid_argument(
        "cub-binned: malformed bin config: bin_growth must be >= 2 (got " +
        std::to_string(config.bin_growth) + ")");
  }
  if (config.min_bin < 0) {
    throw std::invalid_argument(
        "cub-binned: malformed bin config: min_bin must be >= 0 (got " +
        std::to_string(config.min_bin) + ")");
  }
  if (config.max_bin < config.min_bin) {
    throw std::invalid_argument(
        "cub-binned: malformed bin config: max_bin (" +
        std::to_string(config.max_bin) + ") must be >= min_bin (" +
        std::to_string(config.min_bin) + ")");
  }
  if (config.max_cached_bytes < 0) {
    throw std::invalid_argument(
        "cub-binned: max_cached_bytes must be >= 0 (got " +
        std::to_string(config.max_cached_bytes) + ")");
  }
  // largest bin = bin_growth^max_bin, rejected if it overflows.
  std::int64_t size = 1;
  for (std::int64_t i = 0; i < config.max_bin; ++i) {
    if (size > (std::int64_t{1} << 62) / config.bin_growth) {
      throw std::invalid_argument(
          "cub-binned: malformed bin config: bin_growth^max_bin (" +
          std::to_string(config.bin_growth) + "^" +
          std::to_string(config.max_bin) + ") overflows 64-bit sizes; "
          "lower max_bin or bin_growth");
    }
    size *= config.bin_growth;
  }
  largest_bin_bytes_ = size;
}

std::int64_t CubBinnedAllocator::backend_round(std::int64_t bytes) const {
  // Smallest bin >= bytes; past the largest bin requests are served exact.
  std::int64_t size = 1;
  for (std::int64_t i = 0; i < config_.min_bin; ++i) size *= config_.bin_growth;
  while (size < bytes && size < largest_bin_bytes_) size *= config_.bin_growth;
  return size >= bytes ? size : bytes;
}

fw::BackendAllocResult CubBinnedAllocator::backend_alloc(std::int64_t bytes) {
  core_.check_request(bytes);
  const std::int64_t bin_bytes = backend_round(bytes);
  const bool oversize = bin_bytes > largest_bin_bytes_;

  BlockCore::Block* block = nullptr;
  auto cached_it = oversize ? cached_.end() : cached_.find(bin_bytes);
  if (cached_it != cached_.end() && !cached_it->second.empty()) {
    // Reuse the lowest-addressed cached block of this bin.
    block = *cached_it->second.begin();
    cached_it->second.erase(cached_it->second.begin());
    cached_bytes_ -= bin_bytes;
  } else {
    block = core_.map_block(bin_bytes, 0);
    if (block == nullptr && cached_bytes_ > 0) {
      // cub's failure path: free every cached block, then retry once.
      free_all_cached();
      block = core_.map_block(bin_bytes, 0);
    }
    if (block == nullptr) return fw::BackendAllocResult{-1, 0, true};
    ++num_driver_mallocs_;
  }
  return core_.activate(block);
}

void CubBinnedAllocator::backend_free(std::int64_t id) {
  BlockCore::Block* block = core_.retire(id);
  // Past the largest bin blocks are never cached.
  if (block->size > largest_bin_bytes_ ||
      cached_bytes_ + block->size > config_.max_cached_bytes) {
    core_.unmap(block);
  } else {
    cached_[block->size].insert(block);
    cached_bytes_ += block->size;
  }
}

void CubBinnedAllocator::free_all_cached() {
  for (auto& [bin_bytes, blocks] : cached_) {
    for (BlockCore::Block* block : blocks) core_.unmap(block);
    blocks.clear();
  }
  cached_bytes_ = 0;
}

void CubBinnedAllocator::backend_reset() {
  // The core frees every mapped block, cached or live.
  cached_.clear();
  cached_bytes_ = 0;
  core_.reset();
  num_driver_mallocs_ = 0;
}

}  // namespace xmem::alloc
