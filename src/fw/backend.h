// The CPU↔CUDA backend divergence table.
//
// Everything that makes a CPU profiling trace differ from the GPU execution
// it predicts is enumerated here, in one place, with the mechanism it
// models and where it is applied. These are the divergences the paper's
// Memory Orchestrator corrects (its five rules) and the residual ones its
// footnote 3 blames for the remaining error.
//
// | # | divergence                | CPU (oneDNN/heap)            | CUDA (cuDNN/cuBLAS/CCA)       | corrected by        |
// |---|---------------------------|------------------------------|-------------------------------|---------------------|
// | 1 | gradient release          | deferred to iteration-end GC | exactly at zero_grad()        | Orchestrator rule 4 |
// | 2 | stale batch release       | deferred to iteration-end GC | at the dataloader rebind      | Orchestrator rule 2 |
// | 3 | KxK conv workspace        | blocked-im2col tile (x8 imgs)| implicit-GEMM tile (~1/4)     | residual error      |
// | 4 | kernel fusion temporaries | materialized (gelu/softmax/  | fused in registers/SRAM       | residual error      |
// |   |                           | norm/log_softmax buffers)    | (~1/4 of the CPU size)        |                     |
// | 5 | flash-attention scratch   | chunked KV accumulation      | SRAM tiling (~2-4 MiB)        | residual error      |
// | 6 | workspace size stability  | near-deterministic           | per-run algorithm choice      | residual error      |
// |   |                           | (kCpuJitterScale below)      | (ExecOptions.workspace_jitter)|                     |
// | 7 | cudnn.benchmark trials    | n/a                          | iteration-1 trial workspaces  | none (off by        |
// |   |                           |                              | retained as segments          | default, ablation)  |
// | 8 | allocator                 | malloc-style heap w/         | two-level CUDACachingAllocator| Simulator replays   |
// |   |                           | exact-size LIFO reuse        | over paged device driver      | the CUDA tower      |
//
// Divergences 3-5 are encoded as the {cpu, gpu} field pairs each OpSpec
// carries (models/op_factory.cpp computes them from the op's shape math
// using the ratios below); 1-2 live in fw/executor.cpp; 6-7 in ExecOptions;
// 8 is the alloc/ + core/simulator machinery itself.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/bytes.h"

namespace xmem::fw {

// ---------------------------------------------------------------------------
// AllocatorBackend — the unified framework-allocator interface.
//
// Every allocator model the simulator can replay against implements this
// interface, and the registry in `alloc/backend_registry.h` constructs them
// by name: the PyTorch CUDACachingAllocator port and its expandable-segments
// variant, the TF-style growing-region BFC, DNNMem's basic single-level
// BFC, a cudaMallocAsync-style stream-ordered pool, and a CUB-style binned
// cache. All of them are policies over one block core
// (`alloc/block_core.h`), which owns blocks, free indexes, segments,
// handles, the shared counters and reset. The contract every
// implementation must honour — the parity harness in `alloc/event_stream.h`
// replays identical randomized streams through all registered backends and
// asserts it — is documented in docs/ALLOCATORS.md. In short:
//
//   * backend_alloc(bytes) with bytes > 0 returns a unique live handle and
//     the bytes charged to the live-byte counter for it (>= the request,
//     after rounding and split policy), or reports OOM with no side effects
//     on the live set.
//   * backend_free(id) accepts exactly the live handles; freeing an unknown
//     or already-freed handle throws std::logic_error (double-free guard).
//   * backend_stats() is a consistent snapshot: active_bytes is the sum of
//     charged bytes over live blocks, reserved_bytes >= active_bytes, the
//     peaks are monotone high-water marks of their base counters, and
//     num_allocs - num_frees == num_live_blocks.
//   * backend_trim() releases whatever cached memory the policy allows
//     (may be a no-op); it never touches live blocks.
//   * backend_reset() returns the backend to its exact post-construction
//     observable state: every handle (live or not) is invalidated, all
//     device reservations are released, every counter — peaks included —
//     reads zero, and handle numbering restarts. A replay through a reset
//     backend must be byte-identical to the same replay through a freshly
//     constructed one (tests/backend_reset_test.cpp proves it per backend).
//     What reset() may keep is capacity: the block core's node arena and
//     vector storage survive, which is what makes reset-instead-of-rebuild
//     the replay hot path (ReplayScratch in core/simulator.h).
// ---------------------------------------------------------------------------

/// Backend-agnostic counter snapshot (the shared subset every allocator
/// model can report; backend-specific counters stay on the concrete types).
struct BackendStats {
  std::int64_t active_bytes = 0;    ///< charged bytes in live blocks
  std::int64_t peak_active_bytes = 0;
  std::int64_t reserved_bytes = 0;  ///< bytes held from the device/arena
  std::int64_t peak_reserved_bytes = 0;
  std::int64_t num_allocs = 0;
  std::int64_t num_frees = 0;
  std::int64_t num_segments = 0;    ///< segments/regions currently held
  std::int64_t num_live_blocks = 0;
};

/// Result of one allocation request through the generic interface.
struct BackendAllocResult {
  std::int64_t id = -1;            ///< live-block handle; -1 on OOM
  std::int64_t charged_bytes = 0;  ///< bytes debited to active for the block
  bool oom = false;
};

class AllocatorBackend {
 public:
  virtual ~AllocatorBackend() = default;

  /// Registry name of this backend ("pytorch", "tf-bfc", "basic-bfc", ...).
  virtual std::string_view backend_name() const = 0;

  /// Allocate `bytes` (> 0, pre-rounding). OOM is an expected experimental
  /// outcome and is reported in the result, never thrown.
  virtual BackendAllocResult backend_alloc(std::int64_t bytes) = 0;

  /// Free a live handle. Throws std::logic_error on unknown/double free.
  virtual void backend_free(std::int64_t id) = 0;

  /// Consistent snapshot of the shared counters.
  virtual BackendStats backend_stats() const = 0;

  /// The rounding policy applied to a request before placement.
  virtual std::int64_t backend_round(std::int64_t bytes) const = 0;

  /// Release cached memory where the policy allows it (empty_cache() for
  /// the PyTorch model; a no-op for policies that never return memory).
  virtual void backend_trim() {}

  /// Return to the exact post-construction observable state (see the
  /// contract table above): invalidate every handle, release all device
  /// reservations, zero every counter including peaks, restart handle
  /// numbering. Implementations keep their node pools and container
  /// capacity so the next replay allocates O(1) — this is the
  /// reset-instead-of-rebuild hot path the planner's refine loop runs on.
  virtual void backend_reset() = 0;
};

}  // namespace xmem::fw

namespace xmem::fw::backend {

/// Workspace caps, loosely matching library behaviour: neither oneDNN nor
/// cuDNN lets scratch grow unboundedly with batch size.
inline constexpr std::int64_t kCpuWorkspaceCap = 96 * util::kMiB;
inline constexpr std::int64_t kGpuWorkspaceCap = 64 * util::kMiB;
/// Benchmark-mode algorithm search may try FFT/Winograd tiles a few times
/// the steady workspace, capped.
inline constexpr std::int64_t kBenchmarkTrialCap = 192 * util::kMiB;

/// oneDNN processes im2col in tiles of this many images.
inline constexpr std::int64_t kCpuIm2colBatchTile = 8;
/// cuDNN implicit-GEMM scratch relative to the CPU's full unfolded tile.
inline constexpr std::int64_t kGpuConvWorkspaceDivisor = 4;

/// Fused CUDA elementwise/normalization kernels keep the intermediate the
/// CPU kernel materializes; the GPU-side scratch is this fraction of it.
inline constexpr std::int64_t kGpuFusionDivisor = 4;

/// CPU profiling runs are much more repeatable than CUDA executions:
/// the effective CPU workspace jitter is the CUDA amplitude times this.
inline constexpr double kCpuJitterScale = 0.1;

/// Relative execution speed used by the duration model (timestamps only):
/// CUDA ~12 TFLOP/s & ~400 GB/s, CPU ~0.4 TFLOP/s & ~22 GB/s.
inline constexpr double kGpuUsPerGflop = 85.0;
inline constexpr double kCpuUsPerGflop = 2700.0;
inline constexpr double kGpuBytesPerUs = 4.0e5;
inline constexpr double kCpuBytesPerUs = 2.2e4;

}  // namespace xmem::fw::backend
