// Allocator-backend registry: construct any fw::AllocatorBackend by name.
//
// The simulator, CLI, benches, and the parity harness all select backends
// through this factory, so a new allocator model becomes available
// everywhere by registering one name + factory pair (docs/ALLOCATORS.md
// walks through it). Every built-in is a policy over the one block core in
// alloc/block_core.h:
//
//   pytorch            — CachingAllocatorSim, the CUDACachingAllocator
//                        port (§3.4)
//   pytorch-expandable — ExpandableSegmentsAllocator, the expandable-
//                        segments + max_split_size variant of it
//   tf-bfc             — TfBfcAllocator, TF-style growing-region BFC
//                        (§6.4(ii))
//   basic-bfc          — BasicBfcAllocator, DNNMem's single-level BFC
//   cub-binned         — CubBinnedAllocator, CUB CachingDeviceAllocator-
//                        style geometric bins (core handles + counters)
//   stream-pool        — StreamPoolAllocator, cudaMallocAsync-style
//                        stream-ordered pool
//
// Backends with tunable policy take *knobs*: a flat name → integer map
// (JSON surface: `"allocator_config": {"<backend>": {"knob": value}}` on
// sweep/plan requests). Every factory validates its accepted knob set and
// value ranges, throwing std::invalid_argument with an actionable message;
// backends without knobs reject any non-empty map.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc/cuda_driver_sim.h"
#include "fw/backend.h"

namespace xmem::util {
class Json;
}

namespace xmem::alloc {

/// The backend the simulator replays against unless told otherwise.
inline constexpr const char* kDefaultBackendName = "pytorch";

/// Policy knobs for a backend: flat knob name → integer value. Empty means
/// the backend's documented defaults.
using BackendKnobs = std::map<std::string, std::int64_t>;

/// Constructs a backend over the given driver. Driverless models (the
/// unbounded basic-bfc arena) ignore the driver argument.
using BackendFactory = std::function<std::unique_ptr<fw::AllocatorBackend>(
    SimulatedCudaDriver&, const BackendKnobs&)>;

/// Register an additional backend. Throws std::invalid_argument on an empty
/// or already-registered name.
void register_backend(const std::string& name, const std::string& description,
                      BackendFactory factory);

bool is_known_backend(const std::string& name);

/// Registered names in sorted order.
std::vector<std::string> backend_names();

/// One-line description for `xmem backends` and docs tooling.
std::string backend_description(const std::string& name);

/// Construct a backend by name. Throws std::invalid_argument on unknown
/// names (the message lists what is registered) and on unknown or
/// out-of-range knobs (the message names the offending knob).
std::unique_ptr<fw::AllocatorBackend> make_backend(const std::string& name,
                                                   SimulatedCudaDriver& driver,
                                                   const BackendKnobs& knobs);
std::unique_ptr<fw::AllocatorBackend> make_backend(const std::string& name,
                                                   SimulatedCudaDriver& driver);

/// Canonical "knob=value,knob=value" string (empty for default knobs) —
/// the piece of a cache/scratch key that distinguishes configurations.
std::string knobs_fingerprint(const BackendKnobs& knobs);

/// Parse a JSON object of integer knob values. Throws std::invalid_argument
/// (naming the offending key) on non-object input or non-integer values.
BackendKnobs parse_backend_knobs(const util::Json& json,
                                 const std::string& context);

}  // namespace xmem::alloc
