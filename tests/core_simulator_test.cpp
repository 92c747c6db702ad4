// Memory Simulator tests: two-level replay semantics, the paper's Figure 3
// sequence-sensitivity effect, capacity-bound OOM, and curve recording.
#include <gtest/gtest.h>

#include <limits>

#include "core/simulator.h"
#include "util/bytes.h"

namespace xmem::core {
namespace {

using util::kMiB;

OrchestratedSequence make_sequence(
    const std::vector<std::tuple<std::int64_t, util::TimeUs, util::TimeUs>>&
        blocks) {
  OrchestratedSequence seq;
  std::int64_t id = 1;
  for (const auto& [size, alloc_ts, free_ts] : blocks) {
    MemoryBlock b;
    b.id = id++;
    b.size = size;
    b.alloc_ts = alloc_ts;
    b.free_ts = free_ts;
    seq.blocks.push_back(b);
  }
  for (const auto& b : seq.blocks) {
    seq.events.push_back(OrchestratedEvent{b.alloc_ts, b.id, b.size, true});
    if (!b.persistent()) {
      seq.events.push_back(OrchestratedEvent{b.free_ts, b.id, b.size, false});
    }
  }
  std::sort(seq.events.begin(), seq.events.end(),
            [](const OrchestratedEvent& a, const OrchestratedEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.is_alloc != b.is_alloc) return !a.is_alloc;
              return a.block_id < b.block_id;
            });
  return seq;
}

TEST(Simulator, SingleBlockReservesSegment) {
  const auto seq = make_sequence({{5 * kMiB, 0, 10}});
  const SimulationResult r = MemorySimulator().replay(seq);
  EXPECT_FALSE(r.oom);
  EXPECT_EQ(r.peak_reserved, 20 * kMiB);  // large-pool 20 MiB buffer
  EXPECT_EQ(r.peak_allocated, 5 * kMiB);
}

TEST(Simulator, CachingReusesFreedBlocks) {
  // Two sequential 5 MiB tensors: the second reuses the cached first.
  const auto seq = make_sequence({{5 * kMiB, 0, 10}, {5 * kMiB, 20, 30}});
  const SimulationResult r = MemorySimulator().replay(seq);
  EXPECT_EQ(r.peak_reserved, 20 * kMiB);
  EXPECT_EQ(r.stats.num_segments_allocated, 1);
}

TEST(Simulator, SequenceTimingChangesPeak) {
  // The Figure 3 effect: identical tensors, different deallocation timing,
  // different segment peak. Block A (60 MiB) either dies before or after
  // blocks B and C (58 MiB each) are allocated.
  const auto early_free = make_sequence(
      {{60 * kMiB, 0, 10}, {58 * kMiB, 20, 100}, {58 * kMiB, 30, 100}});
  const auto late_free = make_sequence(
      {{60 * kMiB, 0, 50}, {58 * kMiB, 20, 100}, {58 * kMiB, 30, 100}});
  const SimulationResult early = MemorySimulator().replay(early_free);
  const SimulationResult late = MemorySimulator().replay(late_free);
  // Early free: B fits into A's released 60 MiB; C needs its own segment.
  EXPECT_LT(early.peak_reserved, late.peak_reserved);
  EXPECT_EQ(early.peak_reserved, 118 * kMiB);  // 60 + 58
  EXPECT_EQ(late.peak_reserved, 176 * kMiB);   // 60 + 58 + 58
}

TEST(Simulator, PersistentBlocksStayToTheEnd) {
  const auto seq = make_sequence({{12 * kMiB, 0, -1}, {12 * kMiB, 5, -1}});
  const SimulationResult r = MemorySimulator().replay(seq);
  EXPECT_EQ(r.stats.allocated_bytes, 24 * kMiB);
  EXPECT_EQ(r.peak_allocated, 24 * kMiB);
}

TEST(Simulator, CapacityBoundReplayReportsOom) {
  SimulationOptions options;
  options.capacity = 30 * kMiB;
  const auto seq = make_sequence({{12 * kMiB, 0, -1}, {12 * kMiB, 5, -1},
                                  {12 * kMiB, 10, -1}});
  const SimulationResult r = MemorySimulator().replay(seq, options);
  EXPECT_TRUE(r.oom);
}

TEST(Simulator, ReclamationAvoidsFalseOom) {
  SimulationOptions options;
  options.capacity = 24 * kMiB;
  // A 12 MiB tensor dies, leaving a cached 12 MiB segment; a later 14 MiB
  // tensor needs a new segment the device cannot host until the cached one
  // is reclaimed — the two-level chain a one-level simulator misses.
  const auto seq = make_sequence({{12 * kMiB, 0, 10}, {14 * kMiB, 20, -1}});
  const SimulationResult r = MemorySimulator().replay(seq, options);
  EXPECT_FALSE(r.oom);
  EXPECT_GE(r.stats.num_cache_reclaims, 1);
}

TEST(Simulator, UnboundedPeakIsUpperBoundOfBoundedRuns) {
  const auto seq = make_sequence(
      {{12 * kMiB, 0, 10}, {12 * kMiB, 20, -1}, {10 * kMiB, 30, -1}});
  const SimulationResult unbounded = MemorySimulator().replay(seq);
  SimulationOptions bounded_options;
  bounded_options.capacity = unbounded.peak_reserved;
  const SimulationResult bounded =
      MemorySimulator().replay(seq, bounded_options);
  EXPECT_FALSE(bounded.oom)
      << "provisioning the unbounded peak must always be safe";
}

TEST(Simulator, SeriesRecordsEveryEvent) {
  SimulationOptions options;
  options.record_series = true;
  const auto seq = make_sequence({{5 * kMiB, 0, 10}, {3 * kMiB, 5, 15}});
  const SimulationResult r = MemorySimulator().replay(seq, options);
  EXPECT_EQ(r.reserved_series.size(), 4u);  // 2 allocs + 2 frees
  EXPECT_EQ(r.allocated_series.back().second, 0);
  for (std::size_t i = 0; i < r.reserved_series.size(); ++i) {
    EXPECT_GE(r.reserved_series[i].second, r.allocated_series[i].second);
  }
}

TEST(Simulator, SparseBlockIdsReplayLikeDenseOnes) {
  // The live table is indexed by block id; ids far apart (and negative)
  // take the remapped path and must replay exactly like ids 1..N, through
  // a scratch that alternates between both paths.
  const auto dense = make_sequence({{5 * kMiB, 0, 30},
                                    {30 * kMiB, 5, 20},
                                    {2 * kMiB, 10, -1},
                                    {30 * kMiB, 25, 40}});
  OrchestratedSequence sparse = dense;
  const std::int64_t ids[] = {-7, std::int64_t{1} << 40, 3,
                              std::numeric_limits<std::int64_t>::max()};
  for (OrchestratedEvent& event : sparse.events) {
    event.block_id = ids[event.block_id - 1];
  }
  ReplayScratch scratch;
  for (int round = 0; round < 2; ++round) {
    const SimulationResult a = MemorySimulator().replay(dense, {}, &scratch);
    const SimulationResult b = MemorySimulator().replay(sparse, {}, &scratch);
    EXPECT_EQ(a.peak_reserved, b.peak_reserved);
    EXPECT_EQ(a.peak_device, b.peak_device);
    EXPECT_EQ(a.peak_allocated, b.peak_allocated);
    EXPECT_EQ(a.stats.num_segments_allocated, b.stats.num_segments_allocated);
  }
}

TEST(Simulator, EmptySequence) {
  const SimulationResult r = MemorySimulator().replay(OrchestratedSequence{});
  EXPECT_EQ(r.peak_reserved, 0);
  EXPECT_FALSE(r.oom);
}

}  // namespace
}  // namespace xmem::core
