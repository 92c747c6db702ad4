#include "core/sequence_transform.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace xmem::core {

namespace {

/// One multiply-xorshift step: a bijection of `hash` for a fixed word.
std::uint64_t mix_word(std::uint64_t hash, std::uint64_t word) {
  hash = (hash ^ word) * 0xff51afd7ed558ccdULL;
  return hash ^ (hash >> 32);
}

}  // namespace

std::uint64_t sequence_fingerprint(const OrchestratedSequence& sequence) {
  std::uint64_t hash =
      mix_word(0x9e3779b97f4a7c15ULL, sequence.events.size());
  for (const OrchestratedEvent& event : sequence.events) {
    hash = mix_word(hash, static_cast<std::uint64_t>(event.ts));
    hash = mix_word(hash, static_cast<std::uint64_t>(event.block_id) ^
                              (std::uint64_t{event.is_alloc} << 63));
    hash = mix_word(hash, static_cast<std::uint64_t>(event.bytes));
  }
  return hash;
}

std::size_t StageKeyHash::operator()(const StageKey& key) const {
  std::uint64_t hash = mix_word(0x9e3779b97f4a7c15ULL, key.in_flight.size());
  hash = mix_word(hash, static_cast<std::uint64_t>(key.data_parallel));
  hash = mix_word(hash, static_cast<std::uint64_t>(key.tensor_parallel));
  hash = mix_word(hash, key.comm_overlap ? 1u : 0u);
  for (const std::int32_t in_flight : key.in_flight) {
    hash = mix_word(hash, static_cast<std::uint64_t>(in_flight));
  }
  return static_cast<std::size_t>(hash);
}

SequenceTransformer::SequenceTransformer(
    const OrchestratedSequence& base,
    const std::vector<ComponentProfile>& profiles)
    : base_(base) {
  component_names_.reserve(profiles.size());
  std::map<std::string, std::int32_t> index_of;
  for (const ComponentProfile& profile : profiles) {
    index_of.emplace(profile.component,
                     static_cast<std::int32_t>(component_names_.size()));
    component_names_.push_back(profile.component);
  }
  // Sort the base events once; orchestrated_event_order never reads bytes,
  // so the bytes field carries the block index through the sort.
  std::vector<OrchestratedEvent> events;
  events.reserve(base.blocks.size() * 2);
  block_component_.reserve(base.blocks.size());
  for (std::size_t i = 0; i < base.blocks.size(); ++i) {
    const MemoryBlock& block = base.blocks[i];
    const auto it = index_of.find(block.component);
    block_component_.push_back(it == index_of.end() ? -1 : it->second);
    next_buffer_id_ = std::max(next_buffer_id_, block.id + 1);
    const auto index = static_cast<std::int64_t>(i);
    events.push_back(OrchestratedEvent{block.alloc_ts, block.id, index, true});
    if (!block.persistent()) {
      events.push_back(
          OrchestratedEvent{block.free_ts, block.id, index, false});
    }
  }
  std::sort(events.begin(), events.end(), orchestrated_event_order);
  const auto unattributed = static_cast<std::uint32_t>(component_names_.size());
  order_.reserve(events.size());
  for (const OrchestratedEvent& event : events) {
    const std::int32_t component = block_component_[event.bytes];
    order_.push_back(BaseEvent{
        event.ts, event.block_id, static_cast<std::uint32_t>(event.bytes),
        component < 0 ? unattributed : static_cast<std::uint32_t>(component),
        event.is_alloc});
  }
}

StageKey SequenceTransformer::stage_key(
    const RankTransformOptions& options,
    const std::vector<PipelineStage>& chunks, std::size_t pipeline_ranks,
    std::size_t rank) const {
  StageKey key;
  key.data_parallel = std::max(1, options.data_parallel);
  key.tensor_parallel = std::max(1, options.tensor_parallel);
  // With no collectives (none requested, or d = t = 1) both modes emit the
  // same sequence, so the key drops the mode.
  key.comm_overlap =
      options.comm_overlap && options.inject_collectives &&
      (key.data_parallel > 1 || key.tensor_parallel > 1);
  // Rank r of p owns chunks r, r+p, r+2p, ...; each chunk holds
  // min(chunks - c, m) in-flight micro-batches.
  const std::size_t total_chunks = std::max<std::size_t>(chunks.size(), 1);
  const std::size_t ranks =
      std::min(std::max<std::size_t>(pipeline_ranks, 1), total_chunks);
  const std::int64_t micro_batches = std::max(1, options.micro_batches);
  const auto entry = [&](std::size_t chunk) -> std::int32_t {
    if (chunk % ranks != rank) return 0;
    return static_cast<std::int32_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(total_chunks - chunk), micro_batches));
  };
  key.in_flight.assign(component_names_.size() + 1, entry(0));
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (std::size_t i = chunks[c].first_component;
         i <= chunks[c].last_component && i < component_names_.size(); ++i) {
      key.in_flight[i] = entry(c);
    }
  }
  return key;
}

const OrchestratedSequence& SequenceTransformer::rank_sequence(
    const RankTransformOptions& options,
    const std::vector<PipelineStage>& chunks, std::size_t pipeline_ranks,
    std::size_t rank, RankScratch& scratch) const {
  return rank_sequence(options,
                       stage_key(options, chunks, pipeline_ranks, rank),
                       scratch);
}

const OrchestratedSequence& SequenceTransformer::rank_sequence(
    const RankTransformOptions& options, const StageKey& key,
    RankScratch& scratch) const {
  if (key.in_flight.size() != component_names_.size() + 1) {
    throw std::invalid_argument(
        "rank_sequence: stage key built for another transformer");
  }
  OrchestratedSequence& out = scratch.sequence;
  out.blocks.clear();
  out.events.clear();
  scratch.buffers.clear();
  scratch.collectives.clear();
  scratch.block_bytes.resize(base_.blocks.size());
  if (options.materialize_blocks) out.blocks.reserve(base_.blocks.size());

  const std::int64_t t = std::max(1, key.tensor_parallel);
  const std::int64_t d = std::max(1, key.data_parallel);
  const int micro_batches = std::max(1, options.micro_batches);

  // Per-component TP replication flag, resolved once per call instead of
  // per block (the substring scan is the only string work in the loop).
  std::vector<char>& replicated = scratch.replicated;
  replicated.assign(component_names_.size(), 0);
  if (t > 1) {
    for (std::size_t i = 0; i < component_names_.size(); ++i) {
      for (const std::string& marker : options.tensor.replicated_substrings) {
        if (component_names_[i].find(marker) != std::string::npos) {
          replicated[i] = 1;
          break;
        }
      }
    }
  }
  const int replication_pct =
      std::clamp(options.tensor.activation_replication_pct, 0, 100);

  // Collective-buffer anchors, discovered while slicing.
  util::TimeUs first_ts = -1;
  util::TimeUs first_forward_ts = -1;
  util::TimeUs first_backward_ts = -1;
  std::int64_t max_forward_bytes = 0;   ///< post-shard (all-reduce payload)
  std::int64_t max_param_gather = 0;    ///< TP-sharded, un-DP-sharded params

  // Overlap-window anchors (window mode only). Per-component vectors carry
  // one trailing slot for unattributed blocks.
  const bool windows = options.inject_collectives && key.comm_overlap;
  const std::size_t comp_slots = component_names_.size() + 1;
  util::TimeUs optimizer_start_ts = -1;
  util::TimeUs first_sync_ts = -1;
  util::TimeUs last_sync_end = -1;
  bool sync_persistent = false;
  std::int64_t max_sync_bytes = 0;  ///< largest actually-synchronized block
  if (windows) {
    scratch.grad_marks.clear();
    scratch.comp_param.assign(comp_slots, 0);
    scratch.fwd_start.assign(comp_slots, -1);
    scratch.fwd_end.assign(comp_slots, -1);
    scratch.bwd_start.assign(comp_slots, -1);
    scratch.bwd_end.assign(comp_slots, -1);
  }

  for (std::size_t i = 0; i < base_.blocks.size(); ++i) {
    const MemoryBlock& block = base_.blocks[i];
    const std::int32_t component = block_component_[i];
    const std::int32_t in_flight =
        key.in_flight[component < 0 ? component_names_.size()
                                    : static_cast<std::size_t>(component)];
    if (in_flight == 0) continue;  // the block's chunk lives on another rank

    // 1) Tensor parallelism.
    std::int64_t bytes = block.size;
    bool tp_synced = false;  ///< this block's output is all-reduced (t > 1)
    if (t > 1 && (component < 0 || !replicated[component])) {
      switch (block.phase) {
        case Phase::kForward: {
          const std::int64_t replicated_bytes = bytes * replication_pct / 100;
          bytes = replicated_bytes + ceil_div(bytes - replicated_bytes, t);
          tp_synced = true;
          break;
        }
        case Phase::kModelLoad:
        case Phase::kBackward:
        case Phase::kOptimizerStep:
          bytes = ceil_div(bytes, t);
          break;
        case Phase::kDataLoader:
        case Phase::kOther:
          break;  // every TP rank sees the whole batch
      }
    }
    if (block.phase == Phase::kModelLoad) {
      max_param_gather = std::max(max_param_gather, bytes);
      if (windows) {
        const std::size_t slot = component < 0
                                     ? component_names_.size()
                                     : static_cast<std::size_t>(component);
        scratch.comp_param[slot] = std::max(scratch.comp_param[slot], bytes);
      }
    }

    // 2) Data parallelism (batch shard + ZeRO state shard).
    if (d > 1) {
      switch (block.phase) {
        case Phase::kForward:
        case Phase::kDataLoader:
          bytes = ceil_div(bytes, d);
          break;
        case Phase::kModelLoad:
          if (options.zero >= ZeroStage::kFull) bytes = ceil_div(bytes, d);
          break;
        case Phase::kBackward:
          if (options.zero >= ZeroStage::kOptimizerGradient) {
            bytes = ceil_div(bytes, d);
          }
          break;
        case Phase::kOptimizerStep:
          if (options.zero >= ZeroStage::kOptimizer) bytes = ceil_div(bytes, d);
          break;
        case Phase::kOther:
          break;
      }
    }

    // 3) 1F1B in-flight scaling: this chunk holds min(chunks - c, m)
    // micro-batch activation copies of 1/m each.
    if (block.phase == Phase::kForward && micro_batches > 1) {
      bytes = ceil_div(bytes * in_flight, micro_batches);
    }
    if (block.phase == Phase::kForward) {
      max_forward_bytes = std::max(max_forward_bytes, bytes);
    }

    if (first_ts < 0 || block.alloc_ts < first_ts) first_ts = block.alloc_ts;
    if (block.phase == Phase::kForward &&
        (first_forward_ts < 0 || block.alloc_ts < first_forward_ts)) {
      first_forward_ts = block.alloc_ts;
    }
    if (block.phase == Phase::kBackward &&
        (first_backward_ts < 0 || block.alloc_ts < first_backward_ts)) {
      first_backward_ts = block.alloc_ts;
    }
    if (windows) {
      // Window anchors use the block's final (post-shard, post-scaling)
      // bytes, so every window stays bounded by its resident counterpart.
      const std::size_t slot = component < 0
                                   ? component_names_.size()
                                   : static_cast<std::size_t>(component);
      const util::TimeUs end_ts =
          block.persistent() ? block.alloc_ts : block.free_ts;
      if (block.phase == Phase::kForward) {
        if (scratch.fwd_start[slot] < 0 ||
            block.alloc_ts < scratch.fwd_start[slot]) {
          scratch.fwd_start[slot] = block.alloc_ts;
        }
        scratch.fwd_end[slot] = std::max(scratch.fwd_end[slot], end_ts);
        if (tp_synced) {
          if (first_sync_ts < 0 || block.alloc_ts < first_sync_ts) {
            first_sync_ts = block.alloc_ts;
          }
          if (block.persistent()) sync_persistent = true;
          last_sync_end = std::max(last_sync_end, end_ts);
          max_sync_bytes = std::max(max_sync_bytes, bytes);
        }
      } else if (block.phase == Phase::kBackward) {
        if (scratch.bwd_start[slot] < 0 ||
            block.alloc_ts < scratch.bwd_start[slot]) {
          scratch.bwd_start[slot] = block.alloc_ts;
        }
        scratch.bwd_end[slot] = std::max(scratch.bwd_end[slot], end_ts);
        if (d > 1) scratch.grad_marks.emplace_back(block.alloc_ts, bytes);
      } else if (block.phase == Phase::kOptimizerStep) {
        if (optimizer_start_ts < 0 || block.alloc_ts < optimizer_start_ts) {
          optimizer_start_ts = block.alloc_ts;
        }
      }
    }

    scratch.block_bytes[i] = bytes;
    if (options.materialize_blocks) {
      MemoryBlock sliced = block;
      sliced.size = bytes;
      out.blocks.push_back(std::move(sliced));
    }
  }

  // 4) Collective-communication buffers: resident events by default,
  // schedule-tied overlap windows (paired alloc/free) under comm_overlap.
  std::int64_t next_id = next_buffer_id_;
  const auto inject = [&](const char* kind, std::int64_t bytes,
                          util::TimeUs ts, util::TimeUs free_ts) {
    if (bytes <= 0) return;
    if (ts < 0) ts = first_ts < 0 ? 0 : first_ts;
    scratch.buffers.push_back(
        CollectiveBuffer{kind, bytes, ts, free_ts, next_id});
    scratch.collectives.push_back(OrchestratedEvent{ts, next_id, bytes, true});
    if (free_ts >= 0) {
      scratch.collectives.push_back(
          OrchestratedEvent{free_ts, next_id, bytes, false});
    }
    if (options.materialize_blocks) {
      MemoryBlock block;
      block.id = next_id;
      block.size = bytes;
      block.alloc_ts = ts;
      block.free_ts = free_ts;
      block.component = std::string("__collective:") + kind;
      block.phase = Phase::kOther;
      out.blocks.push_back(std::move(block));
    }
    ++next_id;
  };

  if (options.inject_collectives && !key.comm_overlap) {
    if (d > 1) {
      for (int b = 0; b < options.ddp_bucket_count; ++b) {
        inject("ddp_bucket", options.ddp_bucket_bytes, first_backward_ts, -1);
      }
      if (options.zero >= ZeroStage::kFull) {
        inject("zero3_allgather", max_param_gather, first_ts, -1);
      }
    }
    if (t > 1) {
      inject("tp_allreduce", max_forward_bytes, first_forward_ts, -1);
    }
  } else if (windows) {
    // DDP buckets: the rank's gradient payload, in completion order, cut
    // into buckets of at most ddp_bucket_bytes — one bucket per distinct
    // completion timestamp (an oversized gradient gets one capped bucket,
    // the PyTorch rule; the cap is what keeps every bucket bounded by its
    // resident counterpart). Bucket b drains when bucket b + depth is born
    // — its all-reduce must have completed to admit a new one — and the
    // trailing buckets drain at the optimizer step. Births are strictly
    // increasing and frees sort before allocs on timestamp ties, so at
    // most `depth` buckets are ever live.
    if (d > 1 && options.ddp_bucket_count > 0 &&
        options.ddp_bucket_bytes > 0 && !scratch.grad_marks.empty()) {
      auto& marks = scratch.grad_marks;
      std::sort(marks.begin(), marks.end());
      std::size_t merged = 0;
      for (std::size_t i = 0; i < marks.size(); ++i) {
        if (merged > 0 && marks[merged - 1].first == marks[i].first) {
          marks[merged - 1].second += marks[i].second;
        } else {
          marks[merged++] = marks[i];
        }
      }
      marks.resize(merged);
      auto& births = scratch.bucket_births;
      births.clear();
      std::int64_t accum = 0;
      for (const auto& [ts, payload] : marks) {
        accum += payload;
        if (accum >= options.ddp_bucket_bytes) {
          births.emplace_back(ts, options.ddp_bucket_bytes);
          accum = 0;
        }
      }
      if (accum > 0 &&
          (births.empty() || births.back().first != marks.back().first)) {
        // Tail payload below the threshold gets the final flush bucket
        // (when its timestamp already carries a bucket, the cap absorbed
        // it above).
        births.emplace_back(marks.back().first,
                            std::min(accum, options.ddp_bucket_bytes));
      }
      const std::size_t depth =
          static_cast<std::size_t>(options.ddp_bucket_count);
      for (std::size_t b = 0; b < births.size(); ++b) {
        const util::TimeUs birth = births[b].first;
        util::TimeUs death = -1;
        if (b + depth < births.size()) {
          death = births[b + depth].first;
        } else if (optimizer_start_ts >= 0) {
          death = std::max(optimizer_start_ts, birth + 1);
        }
        inject("ddp_bucket", births[b].second, birth, death);
      }
    }

    // ZeRO-3 parameter gathers: paired gather/release around each
    // component's forward window and again around its backward window,
    // sized by the component's largest TP-sharded (un-DP-sharded)
    // parameter block. Serialized — a new gather releases the previous
    // one (prefetch depth 1) — so at most one is live at any event index
    // and each is bounded by the resident mode's single max-sized buffer.
    if (d > 1 && options.zero >= ZeroStage::kFull) {
      auto& gathers = scratch.gathers;
      gathers.clear();
      for (std::size_t c = 0; c < comp_slots; ++c) {
        const std::int64_t bytes = scratch.comp_param[c];
        if (bytes <= 0) continue;
        if (scratch.fwd_start[c] >= 0) {
          gathers.push_back(
              {scratch.fwd_start[c],
               std::max(scratch.fwd_end[c], scratch.fwd_start[c] + 1),
               bytes});
        }
        if (scratch.bwd_start[c] >= 0) {
          gathers.push_back(
              {scratch.bwd_start[c],
               std::max(scratch.bwd_end[c], scratch.bwd_start[c] + 1),
               bytes});
        }
      }
      std::sort(gathers.begin(), gathers.end(),
                [](const RankScratch::GatherWindow& a,
                   const RankScratch::GatherWindow& b) {
                  if (a.start != b.start) return a.start < b.start;
                  if (a.end != b.end) return a.end < b.end;
                  return a.bytes < b.bytes;
                });
      std::size_t kept = 0;
      for (std::size_t i = 0; i < gathers.size(); ++i) {
        if (kept > 0 && gathers[kept - 1].start == gathers[i].start) {
          // Same gather instant: the depth-1 arena holds the larger tensor.
          gathers[kept - 1].bytes =
              std::max(gathers[kept - 1].bytes, gathers[i].bytes);
          gathers[kept - 1].end =
              std::max(gathers[kept - 1].end, gathers[i].end);
        } else {
          gathers[kept++] = gathers[i];
        }
      }
      gathers.resize(kept);
      for (std::size_t i = 0; i < gathers.size(); ++i) {
        util::TimeUs end = gathers[i].end;
        if (i + 1 < gathers.size()) end = std::min(end, gathers[i + 1].start);
        inject("zero3_allgather", gathers[i].bytes, gathers[i].start, end);
      }
    }

    // TP all-reduce staging: sized from the actual synchronized blocks and
    // alive only across the span they cover (resident when a synchronized
    // block never frees).
    if (t > 1 && max_sync_bytes > 0 && first_sync_ts >= 0) {
      const util::TimeUs end =
          sync_persistent ? -1 : std::max(last_sync_end, first_sync_ts + 1);
      inject("tp_allreduce", max_sync_bytes, first_sync_ts, end);
    }
  }

  // The base order already is orchestrated_event_order: keep this rank's
  // events in it and merge in the (few, sorted) collective events.
  std::vector<OrchestratedEvent>& collectives = scratch.collectives;
  std::sort(collectives.begin(), collectives.end(), orchestrated_event_order);
  out.events.reserve(order_.size() + collectives.size());
  auto next = collectives.begin();
  for (const BaseEvent& base_event : order_) {
    if (key.in_flight[base_event.slot] == 0) continue;
    const OrchestratedEvent event{base_event.ts, base_event.block_id,
                                  scratch.block_bytes[base_event.block],
                                  base_event.is_alloc};
    while (next != collectives.end() &&
           orchestrated_event_order(*next, event)) {
      out.events.push_back(*next++);
    }
    out.events.push_back(event);
  }
  out.events.insert(out.events.end(), next, collectives.end());
  return out;
}

}  // namespace xmem::core
