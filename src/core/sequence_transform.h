// Rank-sequence transform layer (paper §3.4 applied to §6.2 planning).
//
// The paper's accuracy claim rests on replaying the orchestrated event
// sequence through the real allocator tower — fragmentation, round-up, and
// caching are sequence-dependent, so analytic per-component sums (the
// DNNMem style) diverge from device truth. The DistributedPlanner's hybrid
// search, however, ranks (d, t, p) candidates by exactly that analytic
// arithmetic. This layer closes the gap: pure, composable transforms that
// take the single-device OrchestratedSequence plus one plan candidate and
// emit the event sequence ONE RANK of that deployment would replay, so the
// simulator (and any registry backend) can price the candidate with full
// allocator semantics and no new concepts.
//
// Transform semantics, applied per block in this order:
//   1. Tensor parallelism — components matching the replicated substrings
//      (Norm/Embedding, the Megatron convention) keep their bytes whole;
//      divisible components ceil-divide params/optimizer/gradients by t and
//      split forward bytes by the activation-replication model (the same
//      model as DistributedPlanner::shard_tensor_parallel, applied
//      per block instead of per component).
//   2. Data parallelism — forward/dataloader bytes shard with the batch
//      (ceil(x/d)); ZeRO shards the persistent classes: stage 1 divides
//      optimizer-step bytes, stage 2 adds backward (gradient) bytes,
//      stage 3 adds model-load (parameter) bytes.
//   3. Pipeline slicing — each block belongs to the contiguous stage chunk
//      that owns its component (unattributed blocks — batch data, script
//      temporaries — ride on chunk 0, where the input pipeline lives);
//      rank r of p owns chunks r, r+p, r+2p, … (interleaved schedule).
//      Forward bytes scale by in_flight/micro_batches where in_flight =
//      min(total_chunks - chunk, micro_batches), mirroring the 1F1B
//      in-flight accounting of the analytic stage model.
//   4. Collective-communication buffers — injected as ordinary alloc/free
//      events, so the simulator needs no new concepts. Two fidelity modes:
//
//      Resident (comm_overlap = false, the default — byte-identical to the
//      original behavior): every buffer is a resident alloc (free_ts = -1,
//      the same accounting the analytic model applies): `ddp_bucket_count`
//      DDP gradient buckets from the first backward block (d > 1), one
//      all-reduce staging buffer sized like the largest sharded forward
//      block from the first forward block (t > 1) — a deliberately coarse
//      formula that also counts replicated (never-synchronized) blocks,
//      kept for golden stability — and one parameter all-gather staging
//      buffer sized like the largest TP-sharded (but un-DP-sharded)
//      parameter block (ZeRO-3, d > 1). This generalizes the previously
//      hard-coded "2 x 25 MiB DDP buckets" constant.
//
//      Overlap windows (comm_overlap = true): buffers are schedule-tied,
//      with paired alloc/free events instead of resident allocs:
//        - DDP buckets partition the rank's backward (gradient) payload in
//          execution order; a bucket is born when its owning slice of
//          backward blocks completes (one bucket per distinct completion
//          timestamp, capped at `ddp_bucket_bytes`) and dies when its
//          all-reduce drains — modelled as the birth of the bucket
//          `ddp_bucket_count` positions later (the classic overlap depth),
//          with the trailing buckets released at the optimizer step. At
//          most `ddp_bucket_count` buckets are live at any event index,
//          never earlier than the resident mode's first-backward anchor.
//        - TP all-reduce staging is sized from the actual synchronized
//          blocks (the largest TP-sharded forward block; replicated
//          components never all-reduce, so they no longer inflate it) and
//          lives only across the span those blocks cover.
//        - ZeRO-3 parameter all-gathers are paired gather/release events
//          around each component's forward window and again around its
//          backward window (the re-gather), sized by the component's
//          largest TP-sharded (un-DP-sharded) parameter block. Windows are
//          serialized — a new gather releases the previous one (prefetch
//          depth 1) — so at most one gather is live at a time.
//      Every window-mode buffer is bounded by its resident counterpart in
//      both size and lifetime, so window-mode live collective bytes never
//      exceed resident-mode at any event index (asserted per event in
//      tests/comm_overlap_test.cpp).
//
// Everything is deterministic integer arithmetic over an immutable base
// sequence: a SequenceTransformer is built once per plan search and shared
// const across the thread-pool fan-out; each worker passes its own
// RankScratch, whose buffers are reused across candidates (the §6.1
// batching/caching pass — measured by BM_RankReplay in bench/).
//
// A transform reads the pipeline geometry in exactly two ways: whether a
// block's chunk lives on this rank, and the chunk's in-flight micro-batch
// count. StageKey captures those (plus d, t and the collective mode), so
// under one plan's fixed options equal keys give equal sequences by
// construction and the planner replays each distinct key once. The base
// events are put in orchestrated_event_order once, at construction; a
// transform walks them in that order (the order never reads bytes) and
// merges in the few injected collective events, sorting only those.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/distributed_planner.h"
#include "core/orchestrator.h"

namespace xmem::core {

/// Canonical fingerprint of a transformed event sequence: one
/// multiply-xorshift step per 64-bit word over the event count and every
/// event's (ts, block_id with is_alloc folded into its top bit, bytes) in
/// sequence order. Each step is a bijection of the running hash, so two
/// sequences that differ in one word never share a fingerprint. The
/// planner's refine pass counts distinct replays on it (rank_replays,
/// replays_deduped, replay_cache_hits); it never decides which peak a
/// replay reports — the stage key does (tests/sequence_transform_test.cpp
/// pins both properties).
std::uint64_t sequence_fingerprint(const OrchestratedSequence& sequence);

/// How one rank of a (d, t, p) candidate reshapes the base sequence.
/// Pipeline geometry arrives separately (the chunk partition + rank).
struct RankTransformOptions {
  int data_parallel = 1;
  int tensor_parallel = 1;
  /// 1F1B micro-batch count; forward bytes scale by in_flight/micro_batches.
  int micro_batches = 1;
  ZeroStage zero = ZeroStage::kNone;
  std::int64_t ddp_bucket_bytes = std::int64_t{25} * 1024 * 1024;
  /// In-flight DDP gradient buckets (reduce + staging). 2 is the classic
  /// PyTorch overlap depth the planner used to hard-code.
  int ddp_bucket_count = 2;
  /// Replicated-component + activation-replication model (`ways` ignored;
  /// taken from tensor_parallel).
  TensorParallelOptions tensor;
  /// Inject the collective-communication buffer events of step 4. Property
  /// tests disable this to check byte conservation of the pure transforms.
  bool inject_collectives = true;
  /// Emit collectives as schedule-tied overlap windows (paired alloc/free
  /// events) instead of resident buffers. Off by default: the resident
  /// path stays byte-identical to the pre-window behavior.
  bool comm_overlap = false;
  /// Also materialize the per-rank MemoryBlock vector (component names and
  /// all). The simulator only consumes events; the service disables this on
  /// the hot path so the transform stays string-copy free.
  bool materialize_blocks = true;
};

/// Everything a rank transform reads beyond the options one plan holds
/// fixed (micro_batches, zero, bucket geometry, replication model,
/// inject_collectives): equal keys built under the same fixed options give
/// byte-equal sequences. SequenceTransformer::stage_key builds one.
struct StageKey {
  int data_parallel = 1;    ///< clamped to >= 1
  int tensor_parallel = 1;  ///< clamped to >= 1
  /// Collectives as overlap windows; false when the rank injects none.
  bool comm_overlap = false;
  /// One entry per component (profile order) plus a trailing entry for
  /// unattributed blocks: 0 = not on this rank, otherwise the chunk's
  /// in-flight count min(total_chunks - chunk, micro_batches).
  std::vector<std::int32_t> in_flight;

  friend bool operator==(const StageKey&, const StageKey&) = default;
};

struct StageKeyHash {
  std::size_t operator()(const StageKey& key) const;
};

/// One injected collective-communication staging buffer (also recorded in
/// the scratch so tests and reports can see what was added).
struct CollectiveBuffer {
  std::string kind;  ///< "ddp_bucket" | "tp_allreduce" | "zero3_allgather"
  std::int64_t bytes = 0;
  util::TimeUs alloc_ts = 0;
  /// Release timestamp in overlap-window mode; -1 = resident (every
  /// resident-mode buffer, plus the rare window that never closes, e.g. TP
  /// staging spanning a persistent forward block).
  util::TimeUs free_ts = -1;
  std::int64_t block_id = 0;
};

/// Reusable per-worker output storage. Vectors keep their capacity across
/// candidates, so a refine loop allocates O(1) after the first rank.
struct RankScratch {
  OrchestratedSequence sequence;
  std::vector<CollectiveBuffer> buffers;
  /// Transform-internal working sets, kept here so they reuse capacity too.
  /// block_bytes: this rank's bytes per base block (read only for blocks
  /// on the rank); collectives: the injected events, sorted before the
  /// merge into the base order.
  std::vector<std::int64_t> block_bytes;
  std::vector<OrchestratedEvent> collectives;
  std::vector<char> replicated;
  /// Overlap-window working sets (only touched when comm_overlap is set).
  /// grad_marks: per-timestamp backward payload, merged and bucketed into
  /// DDP windows. The per-component vectors anchor the ZeRO-3 gather
  /// windows; the trailing slot holds unattributed blocks.
  std::vector<std::pair<util::TimeUs, std::int64_t>> grad_marks;
  std::vector<std::pair<util::TimeUs, std::int64_t>> bucket_births;
  std::vector<std::int64_t> comp_param;
  std::vector<util::TimeUs> fwd_start, fwd_end, bwd_start, bwd_end;
  struct GatherWindow {
    util::TimeUs start = 0;
    util::TimeUs end = 0;
    std::int64_t bytes = 0;
  };
  std::vector<GatherWindow> gathers;
};

class SequenceTransformer {
 public:
  /// Bind the base single-device sequence and the component order of its
  /// per-component profile (forward order — the same vector the planner
  /// packed stages over). Both must outlive the transformer. Construction
  /// indexes every block's component once; transforms never rescan strings.
  SequenceTransformer(const OrchestratedSequence& base,
                      const std::vector<ComponentProfile>& profiles);

  /// The key of pipeline rank `rank` (0-based, of `pipeline_ranks`) under
  /// `options` and the contiguous chunk partition `chunks` (a candidate's
  /// `plan.stages`; empty = one chunk holding everything). Components
  /// outside every chunk, and unattributed blocks, ride on chunk 0.
  StageKey stage_key(const RankTransformOptions& options,
                     const std::vector<PipelineStage>& chunks,
                     std::size_t pipeline_ranks, std::size_t rank) const;

  /// Emit the sequence of the rank `key` describes. d, t and comm_overlap
  /// come from the key; every other field of `options` must be the one the
  /// key was built under. Builds into `scratch` and returns
  /// `scratch.sequence`. Thread-safe: const on the transformer, all
  /// mutation confined to the scratch.
  const OrchestratedSequence& rank_sequence(const RankTransformOptions& options,
                                            const StageKey& key,
                                            RankScratch& scratch) const;

  /// rank_sequence(options, stage_key(options, chunks, pipeline_ranks,
  /// rank), scratch).
  const OrchestratedSequence& rank_sequence(
      const RankTransformOptions& options,
      const std::vector<PipelineStage>& chunks, std::size_t pipeline_ranks,
      std::size_t rank, RankScratch& scratch) const;

  std::size_t component_count() const { return component_names_.size(); }
  const OrchestratedSequence& base() const { return base_; }

 private:
  const OrchestratedSequence& base_;
  std::vector<std::string> component_names_;  ///< profile forward order
  /// Per base block: index into component_names_, or -1 (unattributed).
  std::vector<std::int32_t> block_component_;
  /// The base blocks' alloc/free events in orchestrated_event_order, each
  /// with its block index and key slot (component, or component_count()
  /// for unattributed blocks).
  struct BaseEvent {
    util::TimeUs ts = 0;
    std::int64_t block_id = 0;
    std::uint32_t block = 0;
    std::uint32_t slot = 0;
    bool is_alloc = false;
  };
  std::vector<BaseEvent> order_;
  std::int64_t next_buffer_id_ = 0;  ///< first id free for injected buffers
};

}  // namespace xmem::core
