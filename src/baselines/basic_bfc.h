// Basic single-level BFC allocator — the allocator model our DNNMem
// reimplementation uses (per the xMem paper, DNNMem "combines computational
// graph analysis with the simulation of a basic BFC allocator" but models
// neither the device-level allocator nor cached-segment reclamation, and
// has no small/large pool policy or 20 MiB over-reservation buckets). It is
// the bare block core (alloc/block_core.h) over an unbounded arena.
#pragma once

#include <cstdint>

#include "alloc/block_core.h"

namespace xmem::baselines {

class BasicBfcAllocator final : public fw::AllocatorBackend {
 public:
  static constexpr std::int64_t kAlignment = 512;
  static constexpr std::int64_t kSegmentGranularity = 2 * 1024 * 1024;

  BasicBfcAllocator() : core_("basic-bfc", nullptr) {}
  BasicBfcAllocator(const BasicBfcAllocator&) = delete;
  BasicBfcAllocator& operator=(const BasicBfcAllocator&) = delete;

  /// Allocate; always succeeds (arena is unbounded — DNNMem produces an
  /// estimate, then compares it with capacity afterwards).
  std::int64_t alloc(std::int64_t bytes) { return backend_alloc(bytes).id; }
  void free(std::int64_t id) { core_.free(id); }

  std::int64_t reserved_bytes() const { return core_.stats().reserved_bytes; }
  std::int64_t peak_reserved_bytes() const {
    return core_.stats().peak_reserved_bytes;
  }
  std::int64_t allocated_bytes() const { return core_.stats().active_bytes; }
  std::size_t num_live() const {
    return static_cast<std::size_t>(core_.stats().num_live_blocks);
  }

  // fw::AllocatorBackend. The arena is unbounded (no driver underneath), so
  // backend_alloc never reports OOM and backend_trim() is the default no-op
  // (the model never returns memory).
  std::string_view backend_name() const override { return "basic-bfc"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override;
  void backend_free(std::int64_t id) override { free(id); }
  fw::BackendStats backend_stats() const override { return core_.stats(); }
  std::int64_t backend_round(std::int64_t bytes) const override {
    return util::round_up(bytes, kAlignment);
  }
  void backend_reset() override {
    core_.reset();
    next_addr_ = kArenaBase;
  }

 private:
  static constexpr std::uint64_t kArenaBase = 0x400000000ULL;

  alloc::BlockCore core_;
  std::uint64_t next_addr_ = kArenaBase;
};

}  // namespace xmem::baselines
