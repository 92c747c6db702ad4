#include "alloc/stream_pool_allocator.h"

#include <stdexcept>
#include <string>

namespace xmem::alloc {

StreamPoolAllocator::StreamPoolAllocator(SimulatedCudaDriver& driver,
                                         const StreamPoolConfig& config)
    : core_("stream-pool", &driver), config_(config) {
  if (config.chunk_bytes <= 0) {
    throw std::invalid_argument(
        "stream-pool: chunk_bytes must be > 0 (got " +
        std::to_string(config.chunk_bytes) + ")");
  }
  if (config.release_threshold_bytes < 0) {
    throw std::invalid_argument(
        "stream-pool: release_threshold_bytes must be >= 0 (got " +
        std::to_string(config.release_threshold_bytes) + ")");
  }
}

fw::BackendAllocResult StreamPoolAllocator::backend_alloc(std::int64_t bytes) {
  core_.check_request(bytes);
  const std::int64_t rounded = backend_round(bytes);
  BlockCore::Block* block = core_.take_fit(0, rounded);
  if (block == nullptr) {
    const std::int64_t chunk = std::max(config_.chunk_bytes, rounded);
    block = core_.map_segment(chunk, 0);
    if (block == nullptr) {
      // Pool OOM path: give everything idle back to the driver, retry once.
      release_free_chunks(0);
      block = core_.map_segment(chunk, 0);
    }
    if (block == nullptr) return fw::BackendAllocResult{-1, 0, true};
  }
  if (block->size - rounded >= kAlignment) core_.split(block, rounded);
  return core_.activate(block);
}

void StreamPoolAllocator::backend_free(std::int64_t id) {
  core_.free(id);
  // The stream-ordered trim: shed wholly-free chunks until the idle
  // (reserved minus active) memory fits under the release threshold.
  const fw::BackendStats& stats = core_.stats();
  if (stats.reserved_bytes - stats.active_bytes >
      config_.release_threshold_bytes) {
    const std::int64_t before = stats.num_segments;
    release_free_chunks(config_.release_threshold_bytes);
    num_threshold_releases_ += before - stats.num_segments;
  }
}

void StreamPoolAllocator::release_free_chunks(std::int64_t keep_idle_bytes) {
  // Chunks whose whole extent is one free block go back lowest address
  // first, stopping once idle memory is back under the bound.
  const fw::BackendStats& stats = core_.stats();
  core_.release_free_segments([&] {
    return stats.reserved_bytes - stats.active_bytes <= keep_idle_bytes;
  });
}

}  // namespace xmem::alloc
