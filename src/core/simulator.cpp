#include "core/simulator.h"

#include <algorithm>
#include <unordered_map>

namespace xmem::core {

std::string replay_tower_key(const SimulationOptions& options) {
  std::string key = options.backend;
  key += '|';
  key += alloc::knobs_fingerprint(options.backend_knobs);
  key += '|';
  key += std::to_string(options.capacity);
  return key;
}

SimulationResult MemorySimulator::replay(const OrchestratedSequence& sequence,
                                         const SimulationOptions& options,
                                         ReplayScratch* scratch) const {
  SimulationResult result;
  ReplayScratch local;
  ReplayScratch& workspace = scratch != nullptr ? *scratch : local;
  // Reset-instead-of-rebuild: when the scratch already holds a tower for
  // this exact (backend, knobs, capacity), reset it back to its
  // post-construction state — byte-identical to a fresh build per the
  // backend_reset() contract, but without re-growing segment maps and block
  // pools. Anything else (first use, different config) builds fresh.
  std::string tower_key = replay_tower_key(options);
  if (workspace.backend != nullptr && workspace.tower_key == tower_key) {
    workspace.backend->backend_reset();
    workspace.driver->reset();
  } else {
    workspace.backend.reset();  // must die before the driver it borrows
    workspace.driver =
        std::make_unique<alloc::SimulatedCudaDriver>(options.capacity);
    workspace.backend = alloc::make_backend(options.backend, *workspace.driver,
                                            options.backend_knobs);
    workspace.tower_key = std::move(tower_key);
  }
  alloc::SimulatedCudaDriver& driver = *workspace.driver;
  fw::AllocatorBackend* const allocator = workspace.backend.get();
  // Dense live table: the Analyzer numbers blocks 1..N and the transforms
  // continue from there, so slot = id - lowest id. A pipeline rank's slice
  // holds a fraction of those ids, and clearing a slot per id still costs
  // far less than hashing one per event, so the table stays dense up to a
  // span of 64 ids per event. A sparser sequence (hand-built ids) is
  // remapped to dense slots once, up front; the loop below is the same
  // either way.
  const std::vector<OrchestratedEvent>& events = sequence.events;
  std::int64_t lowest = 0;
  std::int64_t highest = 0;
  if (!events.empty()) {
    const auto [low, high] = std::minmax_element(
        events.begin(), events.end(),
        [](const OrchestratedEvent& a, const OrchestratedEvent& b) {
          return a.block_id < b.block_id;
        });
    lowest = low->block_id;
    highest = high->block_id;
  }
  const std::uint64_t span =
      static_cast<std::uint64_t>(highest) - static_cast<std::uint64_t>(lowest);
  const bool dense = span / 64 < events.size();
  std::vector<std::int64_t>& live = workspace.live;
  std::vector<std::size_t> slots;  ///< per event, sparse sequences only
  if (dense) {
    live.assign(span + 1, -1);
  } else {
    std::unordered_map<std::int64_t, std::size_t> slot_of;
    slot_of.reserve(events.size());
    slots.resize(events.size());
    for (std::size_t k = 0; k < events.size(); ++k) {
      slots[k] = slot_of.emplace(events[k].block_id, slot_of.size())
                     .first->second;
    }
    live.assign(slot_of.size(), -1);
  }

  for (std::size_t k = 0; k < events.size(); ++k) {
    const OrchestratedEvent& event = events[k];
    std::int64_t& handle =
        live[dense ? static_cast<std::size_t>(
                         static_cast<std::uint64_t>(event.block_id) -
                         static_cast<std::uint64_t>(lowest))
                   : slots[k]];
    if (event.is_alloc) {
      const fw::BackendAllocResult outcome =
          allocator->backend_alloc(event.bytes);
      if (outcome.oom) {
        // Every allocator level failed (for the PyTorch model: even after
        // reclaiming cached segments): the simulated job dies here, exactly
        // like the real one would.
        result.oom = true;
        break;
      }
      handle = outcome.id;
    } else {
      if (handle < 0) continue;  // freed past an OOM cut-off
      allocator->backend_free(handle);
      handle = -1;
    }
    if (options.record_series) {
      const fw::BackendStats s = allocator->backend_stats();
      result.reserved_series.emplace_back(event.ts, s.reserved_bytes);
      result.allocated_series.emplace_back(event.ts, s.active_bytes);
    }
  }

  result.backend_stats = allocator->backend_stats();
  result.peak_reserved = result.backend_stats.peak_reserved_bytes;
  // Driverless backends (basic-bfc's unbounded arena) never touch the
  // device model; their reserved peak doubles as the device-level peak.
  result.peak_device = driver.stats().num_mallocs > 0
                           ? driver.stats().peak_used_bytes
                           : result.peak_reserved;
  result.peak_allocated = result.backend_stats.peak_active_bytes;
  if (const auto* caching =
          dynamic_cast<const alloc::CachingAllocatorSim*>(allocator)) {
    result.stats = caching->stats();
  }
  return result;
}

}  // namespace xmem::core
