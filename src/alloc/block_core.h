// The block core every allocator backend is a policy over.
//
// Paper §6.4(ii): the best-fit-with-coalescing core is framework-agnostic;
// only the policies around it differ. BlockCore is that core, written once:
//
//   * a grow-only arena of Block nodes with a spare list — reset() keeps
//     every node, so a reused tower allocates none;
//   * per-pool free indexes ordered by (size, addr): best fit, ties broken
//     by the lowest address, exactly like upstream's std::set search;
//   * an address-ordered table of mapped segments — a segment is a driver
//     reservation carved into a doubly linked list of blocks, and the table
//     holds each list's head (the block at the reservation's address);
//   * one split, one coalescing free, and a flat live-handle table indexed
//     by the sequential handle id;
//   * the shared fw::BackendStats counters, and reset().
//
// A backend composes it with plain inline calls (no virtual hooks) and
// keeps only its own rules: rounding, which pool a request uses, when to
// split, how segments are sized, grown and released, and what an OOM does.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc/cuda_driver_sim.h"
#include "fw/backend.h"

namespace xmem::alloc {

class BlockCore {
 public:
  struct Block {
    std::uint64_t addr = 0;
    std::int64_t size = 0;
    std::int64_t requested = 0;  ///< pre-rounding bytes (policy bookkeeping)
    Block* prev = nullptr;       ///< address neighbours within the segment
    Block* next = nullptr;
    int pool = 0;                ///< which free index the block lists in
    bool allocated = false;
    bool mapped = false;  ///< owns the driver reservation at addr
  };
  static constexpr int kPools = 2;

  /// `owner` names the backend in error messages; `driver` is null for
  /// backends over an allocator-owned arena.
  BlockCore(const char* owner, SimulatedCudaDriver* driver)
      : owner_(owner), driver_(driver) {}
  BlockCore(const BlockCore&) = delete;
  BlockCore& operator=(const BlockCore&) = delete;

  /// Throws std::invalid_argument unless bytes > 0.
  void check_request(std::int64_t bytes) const {
    if (bytes <= 0) {
      throw std::invalid_argument(std::string(owner_) + ": bytes must be > 0");
    }
  }

  /// Unlist and return the smallest free block of `pool` with size >= `size`
  /// that `accept` takes (lowest address among equal sizes), or null.
  template <typename Accept>
  Block* take_fit(int pool, std::int64_t size, Accept accept) {
    FreeIndex& index = free_[pool];
    for (auto it = index.lower_bound(size); it != index.end(); ++it) {
      if (!accept(**it)) continue;
      Block* block = *it;
      index.erase(it);
      return block;
    }
    return nullptr;
  }
  Block* take_fit(int pool, std::int64_t size) {
    return take_fit(pool, size, [](const Block&) { return true; });
  }
  void list(Block* block) { free_[block->pool].insert(block); }
  void unlist(Block* block) { free_[block->pool].erase(block); }

  /// Shrink the unlisted free `block` to `size` bytes; the remainder becomes
  /// a listed free block right after it (returned).
  Block* split(Block* block, std::int64_t size) {
    const std::int64_t rest_size = block->size - size;
    block->size = size;
    Block* rest = append(block, rest_size);
    list(rest);
    ++num_splits_;
    return rest;
  }

  /// Hand out the unlisted `block` under the next handle and charge it.
  fw::BackendAllocResult activate(Block* block) {
    block->allocated = true;
    const std::int64_t id = next_id_++;
    const auto slot = static_cast<std::size_t>(id);
    if (slot >= live_.size()) {
      live_.resize(std::max(live_.size() * 2, slot + 1), nullptr);
    }
    live_[slot] = block;
    stats_.active_bytes += block->size;
    stats_.peak_active_bytes =
        std::max(stats_.peak_active_bytes, stats_.active_bytes);
    ++stats_.num_allocs;
    ++stats_.num_live_blocks;
    return fw::BackendAllocResult{id, block->size, false};
  }

  /// The live block behind `id`, or null.
  Block* live(std::int64_t id) const {
    if (id < 1 || static_cast<std::size_t>(id) >= live_.size()) return nullptr;
    return live_[static_cast<std::size_t>(id)];
  }

  /// Invalidate live handle `id` and uncharge its block, which stays where
  /// it is (unlisted). Throws std::logic_error if `id` is not live.
  Block* retire(std::int64_t id) {
    Block* block = live(id);
    if (block == nullptr) {
      throw std::logic_error(std::string(owner_) + ": free of unknown handle " +
                             std::to_string(id));
    }
    live_[static_cast<std::size_t>(id)] = nullptr;
    stats_.active_bytes -= block->size;
    ++stats_.num_frees;
    --stats_.num_live_blocks;
    block->allocated = false;
    return block;
  }

  /// Merge the retired `block` with its free neighbours and list the result
  /// (returned). Merges keep the lower block, so a segment's head survives.
  Block* coalesce(Block* block) {
    if (Block* prev = block->prev; prev != nullptr && !prev->allocated) {
      unlist(prev);
      absorb(prev, block);
      block = prev;
    }
    if (Block* next = block->next; next != nullptr && !next->allocated) {
      unlist(next);
      absorb(block, next);
    }
    list(block);
    return block;
  }

  /// The coalescing free: retire `id`, merge, list. Returns the free block.
  Block* free(std::int64_t id) { return coalesce(retire(id)); }

  /// A free, unlisted, unlinked block of `size` bytes at `addr`.
  Block* new_block(std::uint64_t addr, std::int64_t size, int pool) {
    Block* block = acquire();
    block->addr = addr;
    block->size = size;
    block->pool = pool;
    return block;
  }
  /// A free, unlisted block of `size` bytes linked right after `block`.
  Block* append(Block* block, std::int64_t size) {
    Block* next = new_block(
        block->addr + static_cast<std::uint64_t>(block->size), size,
        block->pool);
    next->prev = block;
    next->next = block->next;
    if (block->next != nullptr) block->next->prev = next;
    block->next = next;
    return next;
  }
  /// Unlink the free, unlisted last block of a list and recycle it.
  void drop_last(Block* block) {
    if (block->prev != nullptr) block->prev->next = nullptr;
    recycle(block);
  }

  /// Reserve `size` bytes from the driver as one mapped block (counted by
  /// reserve()); null on driver OOM. map_segment() also enters the block in
  /// the segment table as the head of a new segment.
  Block* map_block(std::int64_t size, int pool);
  Block* map_segment(std::int64_t size, int pool);
  /// Free a mapped block's reservation and recycle it. It must be neither
  /// live, listed, nor in the segment table.
  void unmap(Block* block);

  /// Release mapped segments that are one free block, lowest address first,
  /// checking `stop()` before each. Returns the bytes released.
  template <typename Stop>
  std::int64_t release_free_segments(Stop stop) {
    std::int64_t released = 0;
    auto kept = segments_.begin();
    for (Block* head : segments_) {
      if (head->allocated || head->next != nullptr || stop()) {
        *kept++ = head;
        continue;
      }
      released += head->size;
      unlist(head);
      unmap(head);
    }
    segments_.erase(kept, segments_.end());
    return released;
  }

  /// The head of every mapped segment, in address order.
  const std::vector<Block*>& segments() const { return segments_; }

  /// Count `bytes` as one more device reservation / one fewer.
  void reserve(std::int64_t bytes) {
    stats_.reserved_bytes += bytes;
    stats_.peak_reserved_bytes =
        std::max(stats_.peak_reserved_bytes, stats_.reserved_bytes);
    ++stats_.num_segments;
  }
  void unreserve(std::int64_t bytes) {
    stats_.reserved_bytes -= bytes;
    --stats_.num_segments;
  }

  const fw::BackendStats& stats() const { return stats_; }
  std::int64_t num_splits() const { return num_splits_; }
  std::int64_t num_coalesces() const { return num_coalesces_; }

  /// Back to the post-construction state: free the reservation of every
  /// mapped block, return every node to the spare list, clear the indexes,
  /// the segment table and the live table (keeping capacity), zero every
  /// counter, restart handle numbering.
  void reset();

 private:
  struct BySizeAddr {
    using is_transparent = void;
    bool operator()(const Block* a, const Block* b) const {
      return a->size != b->size ? a->size < b->size : a->addr < b->addr;
    }
    bool operator()(const Block* a, std::int64_t size) const {
      return a->size < size;
    }
    bool operator()(std::int64_t size, const Block* b) const {
      return size < b->size;
    }
  };
  using FreeIndex = std::set<Block*, BySizeAddr>;

  Block* acquire() {
    if (spare_.empty()) return &arena_.emplace_back();
    Block* block = spare_.back();
    spare_.pop_back();
    *block = Block{};
    return block;
  }
  void recycle(Block* block) {
    block->mapped = false;  // reset() frees what is mapped, arena-wide
    spare_.push_back(block);
  }
  void absorb(Block* into, Block* gone) {
    into->size += gone->size;
    into->next = gone->next;
    if (gone->next != nullptr) gone->next->prev = into;
    recycle(gone);
    ++num_coalesces_;
  }

  const char* owner_;
  SimulatedCudaDriver* driver_;
  // Nodes never move or die: the deque only grows, recycled nodes wait on
  // the spare list.
  std::deque<Block> arena_;
  std::vector<Block*> spare_;
  FreeIndex free_[kPools];
  std::vector<Block*> segments_;
  std::vector<Block*> live_;
  std::int64_t next_id_ = 1;
  std::int64_t num_splits_ = 0;
  std::int64_t num_coalesces_ = 0;
  fw::BackendStats stats_;
};

}  // namespace xmem::alloc
