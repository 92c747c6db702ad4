#include "alloc/block_core.h"

namespace xmem::alloc {

BlockCore::Block* BlockCore::map_block(std::int64_t size, int pool) {
  const auto addr = driver_->cuda_malloc(size);
  if (!addr.has_value()) return nullptr;
  Block* block = new_block(*addr, size, pool);
  block->mapped = true;
  reserve(size);
  return block;
}

BlockCore::Block* BlockCore::map_segment(std::int64_t size, int pool) {
  Block* head = map_block(size, pool);
  if (head == nullptr) return nullptr;
  // Driver addresses only grow, so this is almost always an append.
  segments_.insert(std::upper_bound(segments_.begin(), segments_.end(), head,
                                    [](const Block* a, const Block* b) {
                                      return a->addr < b->addr;
                                    }),
                   head);
  return head;
}

void BlockCore::unmap(Block* block) {
  driver_->cuda_free(block->addr);
  unreserve(block->size);
  recycle(block);
}

void BlockCore::reset() {
  // One pass over the arena: every node still mapped holds a reservation
  // (segment heads, standalone mappings, live or cached), and every node
  // goes back on the spare list.
  spare_.clear();
  for (Block& block : arena_) {
    if (block.mapped) driver_->cuda_free(block.addr);
    block.mapped = false;
    spare_.push_back(&block);
  }
  for (FreeIndex& index : free_) index.clear();
  segments_.clear();
  std::fill(live_.begin(), live_.end(), nullptr);
  next_id_ = 1;
  num_splits_ = 0;
  num_coalesces_ = 0;
  stats_ = fw::BackendStats{};
}

}  // namespace xmem::alloc
