// TensorFlow-style BFC allocator — the §6.4(ii) generalization: the BFC
// core is framework-agnostic, but the policies around it differ, and
// "accurately modelling each allocator is crucial". Differences from the
// PyTorch port that measurably change reserved memory:
//
//   * 256-byte rounding (PyTorch: 512);
//   * one pool, no 2 MiB/20 MiB buffer classes: memory is acquired as
//     growing *regions*, each try doubling the previous region size;
//   * regions are never returned to the device (no empty_cache, no
//     reclaim-then-retry) — OOM is driver failure at region-growth time,
//     after backing off through smaller regions (each size tried once).
//
// The shared core is alloc/block_core.h; this class is only those rules.
#pragma once

#include <cstdint>

#include "alloc/block_core.h"

namespace xmem::alloc {

struct TfBfcStats {
  std::int64_t allocated_bytes = 0;
  std::int64_t peak_allocated_bytes = 0;
  std::int64_t region_bytes = 0;  ///< total acquired from the driver
  std::int64_t num_regions = 0;
  std::int64_t num_allocs = 0;
  std::int64_t num_frees = 0;
};

class TfBfcAllocator final : public fw::AllocatorBackend {
 public:
  static constexpr std::int64_t kMinAllocationSize = 256;
  static constexpr std::int64_t kInitialRegionSize = 2 * 1024 * 1024;

  explicit TfBfcAllocator(SimulatedCudaDriver& driver)
      : core_("tf-bfc", &driver) {}
  TfBfcAllocator(const TfBfcAllocator&) = delete;
  TfBfcAllocator& operator=(const TfBfcAllocator&) = delete;

  static std::int64_t round_size(std::int64_t bytes) {
    return util::round_up(std::max(bytes, kMinAllocationSize),
                          kMinAllocationSize);
  }

  /// On OOM the result charges the rounded request, like the pytorch port.
  fw::BackendAllocResult allocate(std::int64_t bytes);
  void free(std::int64_t id) { core_.free(id); }

  TfBfcStats stats() const {
    const fw::BackendStats& s = core_.stats();
    return TfBfcStats{s.active_bytes, s.peak_active_bytes, s.reserved_bytes,
                      s.num_segments, s.num_allocs, s.num_frees};
  }
  std::size_t num_live() const {
    return static_cast<std::size_t>(core_.stats().num_live_blocks);
  }

  // fw::AllocatorBackend. Regions are never returned to the device, so
  // reserved_bytes is monotone and backend_trim() stays the default no-op.
  std::string_view backend_name() const override { return "tf-bfc"; }
  fw::BackendAllocResult backend_alloc(std::int64_t bytes) override {
    return allocate(bytes);
  }
  void backend_free(std::int64_t id) override { free(id); }
  fw::BackendStats backend_stats() const override { return core_.stats(); }
  std::int64_t backend_round(std::int64_t bytes) const override {
    return round_size(bytes);
  }
  void backend_reset() override {
    core_.reset();
    next_region_size_ = kInitialRegionSize;
  }

 private:
  BlockCore::Block* extend(std::int64_t rounded);

  BlockCore core_;
  std::int64_t next_region_size_ = kInitialRegionSize;
};

}  // namespace xmem::alloc
