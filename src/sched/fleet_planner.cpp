#include "sched/fleet_planner.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/estimator_registry.h"
#include "util/thread_pool.h"

namespace xmem::sched {

namespace {

/// Queue-level archetype identity: two jobs with the same label + seed
/// share one CPU profile (and one planner cache entry).
std::string job_key(const core::TrainJob& job) {
  return job.label() + "|seed" + std::to_string(job.seed);
}

namespace schema = util::schema;
using schema::Bool;
using schema::field;
using schema::integer;
using schema::kIfChanged;
using schema::kRequired;
using schema::Str;

constexpr schema::Field<HeadroomRule> kHeadroomRuleFields[] = {
    integer<&HeadroomRule::absolute_bytes>("absolute_bytes", 0),
    integer<&HeadroomRule::percent>("percent", 0),
};

constexpr schema::Field<HeadroomPolicy> kHeadroomFields[] = {
    integer<&HeadroomPolicy::base, &HeadroomRule::absolute_bytes>(
        "absolute_bytes", 0),
    integer<&HeadroomPolicy::base, &HeadroomRule::percent>("percent", 0),
    field<schema::Dict<schema::Obj<kHeadroomRuleFields>>,
          &HeadroomPolicy::per_device>("per_device", kIfChanged,
                                       "an object of headroom rules by device"),
};

constexpr schema::Field<FleetJob> kFleetJobFields[] = {
    field<Str, &FleetJob::id>("id"),
    field<core::JobCodec, &FleetJob::job>("job", kRequired),
    integer<&FleetJob::priority>("priority"),
};

/// A queue entry without an "id" is named after its position.
struct FleetJobCodec : schema::Obj<kFleetJobFields> {
  static void read(const util::Json& value, FleetJob& out,
                   const schema::Path& at, const schema::FieldInfo& info) {
    if (value.is_object() && !value.contains("id")) {
      out.id = "job-" + std::to_string(at.index);
    }
    Obj::read(value, out, at, info);
  }
};

constexpr schema::Field<GpuPool> kPoolFields[] = {
    field<core::DeviceCodec, &GpuPool::device>("device", kRequired),
    schema::required(integer<&GpuPool::count>("count", 1)),
};

using Pools = schema::List<schema::Obj<kPoolFields>>;

constexpr schema::Field<FleetRequest> kFleetFields[] = {
    field<schema::List<FleetJobCodec>, &FleetRequest::jobs>(
        "jobs", kRequired, "a non-empty array of job entries"),
    field<Pools, &FleetRequest::pools>("pools", kRequired,
                                       "a non-empty array of pools"),
    field<Str, &FleetRequest::policy>("policy"),
    field<schema::Obj<kHeadroomFields>, &FleetRequest::headroom>("headroom"),
    field<Str, &FleetRequest::estimator>("estimator"),
    field<Str, &FleetRequest::allocator>("allocator"),
    field<core::AllocatorConfigCodec, &FleetRequest::allocator_config>(
        "allocator_config", kIfChanged),
    integer<&FleetRequest::profile_iterations>("profile_iterations", 1),
    integer<&FleetRequest::max_gpus_per_job>("max_gpus_per_job", 1),
    field<Bool, &FleetRequest::comm_overlap>("comm_overlap", kIfChanged),
    field<Bool, &FleetRequest::refine_all>("refine_all", kIfChanged),
    field<Str, &FleetRequest::tenant>("tenant", kIfChanged),
    field<Pools, &FleetRequest::what_if>("what_if", kIfChanged),
};

constexpr schema::Path kFleetRoot{"fleet request"};

}  // namespace

const schema::Schema<FleetRequest> kFleetSchema = kFleetFields;
const schema::Schema<FleetJob> kFleetJobSchema = kFleetJobFields;
const schema::Schema<GpuPool> kPoolSchema = kPoolFields;
const schema::Schema<HeadroomPolicy> kHeadroomSchema = kHeadroomFields;
const schema::Schema<HeadroomRule> kHeadroomRuleSchema = kHeadroomRuleFields;

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kAdmit:
      return "admit";
    case Verdict::kDefer:
      return "defer";
    case Verdict::kReject:
      return "reject";
  }
  return "reject";
}

std::int64_t HeadroomPolicy::demand_for(const std::string& device_name,
                                        std::int64_t predicted_peak) const {
  const auto it = per_device.find(device_name);
  const HeadroomRule& rule = it == per_device.end() ? base : it->second;
  constexpr std::int64_t kSaturated = std::numeric_limits<std::int64_t>::max();
  std::int64_t scaled = 0;
  std::int64_t demand = 0;
  if (__builtin_mul_overflow(predicted_peak, std::int64_t{rule.percent},
                             &scaled) ||
      __builtin_add_overflow(predicted_peak, scaled / 100, &demand) ||
      __builtin_add_overflow(demand, rule.absolute_bytes, &demand)) {
    return kSaturated;
  }
  return demand;
}

FleetRequest FleetRequest::from_json(const util::Json& json) {
  return schema::parse(json, kFleetRoot, kFleetSchema);
}

util::Json FleetRequest::to_json() const {
  return schema::write_object(*this, kFleetSchema);
}

// --- report tables (write-only; docs/API.md "Report fields") ----------------

namespace {

using schema::emit;
using schema::Int;
using schema::kOptional;

constexpr schema::Field<Placement> kPlacementFields[] = {
    emit<Int, &Placement::pool>("pool"),
    emit<Int, &Placement::index>("index"),
    emit<Str, &Placement::device>("device"),
    emit<Int, &Placement::committed_bytes>("committed_bytes"),
};

constexpr auto kIfSupported = &JobVerdict::supported;

constexpr schema::Field<JobVerdict> kVerdictFields[] = {
    emit<Str, &JobVerdict::id>("id"),
    emit<Str, &JobVerdict::label>("label"),
    emit<Int, &JobVerdict::priority>("priority"),
    emit<schema::Enum<nullptr>, &JobVerdict::verdict>("verdict"),
    emit<Bool, &JobVerdict::supported>("supported"),
    emit<Int, &JobVerdict::predicted_peak>("predicted_peak_bytes", kOptional,
                                           kIfSupported),
    emit<Int, &JobVerdict::headroom_bytes>("headroom_bytes", kOptional,
                                           kIfSupported),
    emit<Int, &JobVerdict::demand_bytes>("demand_bytes", kOptional,
                                         kIfSupported),
    emit<Int, &JobVerdict::gpus>("gpus", kOptional, kIfSupported),
    emit<Str, &JobVerdict::split>("split", kIfChanged, kIfSupported),
    emit<schema::List<schema::Obj<kPlacementFields>>, &JobVerdict::placements>(
        "placements", kIfChanged),
    emit<Str, &JobVerdict::reason>("reason", kIfChanged),
};

constexpr schema::Field<GpuState> kGpuStateFields[] = {
    emit<Int, &GpuState::pool>("pool"),
    emit<Int, &GpuState::index>("index"),
    emit<Str, &GpuState::device>("device"),
    emit<Int, &GpuState::budget_bytes>("budget_bytes"),
    emit<Int, &GpuState::committed_bytes>("committed_bytes"),
    emit<Int, &GpuState::predicted_bytes>("predicted_bytes"),
    emit<Int, &GpuState::jobs>("jobs"),
};

constexpr schema::Field<FleetStats> kFleetStatsFields[] = {
    emit<Int, &FleetStats::gpus_total>("gpus_total"),
    emit<Int, &FleetStats::gpus_used>("gpus_used"),
    emit<Int, &FleetStats::jobs>("jobs"),
    emit<Int, &FleetStats::admitted>("admitted"),
    emit<Int, &FleetStats::deferred>("deferred"),
    emit<Int, &FleetStats::rejected>("rejected"),
    emit<Int, &FleetStats::distinct_jobs>("distinct_jobs"),
    emit<Int, &FleetStats::total_budget_bytes>("total_budget_bytes"),
    emit<Int, &FleetStats::committed_bytes>("committed_bytes"),
    emit<Int, &FleetStats::predicted_bytes>("predicted_bytes"),
    emit<Int, &FleetStats::waste_bytes>("waste_bytes"),
    emit<Int, &FleetStats::utilization_pct>("utilization_pct"),
    emit<Int, &FleetStats::committed_pct>("committed_pct"),
    emit<Int, &FleetStats::fragmentation_pct>("fragmentation_pct"),
};

constexpr schema::Field<FleetCounters> kFleetCounterFields[] = {
    emit<Int, &FleetCounters::profiles_run>("profiles_run"),
    emit<Int, &FleetCounters::profile_cache_hits>("profile_cache_hits"),
    emit<Int, &FleetCounters::replays_run>("replays_run"),
    emit<Int, &FleetCounters::result_cache_hits>("result_cache_hits"),
    emit<Int, &FleetCounters::plans_run>("plans_run"),
    emit<Int, &FleetCounters::estimates_reused>("estimates_reused"),
    emit<Int, &FleetCounters::pools_repacked>("pools_repacked"),
};

constexpr schema::Field<WhatIfDelta> kWhatIfFields[] = {
    emit<Pools, &WhatIfDelta::added_pools>("added_pools"),
    emit<Int, &WhatIfDelta::admitted_delta>("admitted_delta"),
    emit<Int, &WhatIfDelta::deferred_delta>("deferred_delta"),
    emit<Int, &WhatIfDelta::rejected_delta>("rejected_delta"),
    emit<Int, &WhatIfDelta::utilization_pct_delta>("utilization_pct_delta"),
    emit<schema::List<Str>, &WhatIfDelta::newly_admitted>("newly_admitted"),
    emit<schema::Obj<kFleetStatsFields>, &WhatIfDelta::stats_after>(
        "stats_after"),
};

/// `what_if` is written only when the request asked for what-if pools.
util::Json write_what_if(const FleetReport& report, bool timings) {
  return report.what_if ? schema::write_object<WhatIfDelta>(
                              *report.what_if, kWhatIfFields, timings)
                        : util::Json();
}

constexpr schema::Field<FleetReport> kFleetReportFields[] = {
    emit<Str, &FleetReport::policy>("policy"),
    emit<Pools, &FleetReport::pools>("pools"),
    emit<schema::List<schema::Obj<kVerdictFields>>, &FleetReport::verdicts>(
        "verdicts"),
    emit<schema::List<schema::Obj<kGpuStateFields>>, &FleetReport::gpus>(
        "gpus"),
    emit<schema::Obj<kFleetStatsFields>, &FleetReport::stats>("stats"),
    emit<schema::Obj<kFleetCounterFields>, &FleetReport::counters>(
        "counters"),
    {{"what_if", nullptr, kIfChanged}, nullptr, &write_what_if},
    emit<schema::Double, &FleetReport::wall_seconds>("wall_seconds",
                                                     schema::kTiming),
};

}  // namespace

std::vector<std::vector<schema::FieldInfo>> report_tables() {
  using schema::infos;
  return {infos(kPlacementFields),    infos(kVerdictFields),
          infos(kGpuStateFields),     infos(kFleetStatsFields),
          infos(kFleetCounterFields), infos(kWhatIfFields),
          infos(kFleetReportFields)};
}

util::Json FleetStats::to_json() const {
  return schema::write_object<FleetStats>(*this, kFleetStatsFields);
}

util::Json FleetReport::to_json(bool include_timings) const {
  return schema::write_object<FleetReport>(*this, kFleetReportFields,
                                           include_timings);
}

// ---------------------------------------------------------------------------
// FleetPlanner internals
// ---------------------------------------------------------------------------

namespace {

/// A DistributedPlanner candidate reduced to what packing needs. Rank peaks
/// are device-independent (component arithmetic / unbounded replay), so one
/// number per candidate serves every pool.
struct PlanCandidateLite {
  int data_parallel = 1;
  int tensor_parallel = 1;
  int pipeline_stages = 1;
  int gpus = 1;
  std::int64_t rank_peak = 0;
};

struct Archetype {
  bool supported = true;
  std::map<std::string, std::int64_t> peak_by_device;
  /// Plan-fallback candidates keyed by Fleet::plan_key: the GPU budget and
  /// the devices planned against.
  std::map<std::string, std::vector<PlanCandidateLite>> plans;
};

/// One archetype per queue entry, parallel to FleetRequest::jobs. They point
/// into the archetype cache, whose std::map nodes never move.
using Archetypes = std::vector<Archetype*>;

struct PackResult {
  std::vector<SlotState> slots;
  std::vector<std::int64_t> slot_predicted;  ///< parallel to slots
  std::vector<JobVerdict> verdicts;          ///< parallel to request.jobs
  FleetStats stats;
};

/// Each distinct device of `pools` once, in pool order — the order that
/// breaks ties between equally cheap devices.
std::vector<const gpu::DeviceModel*> distinct_devices(
    const std::vector<GpuPool>& pools) {
  std::vector<const gpu::DeviceModel*> devices;
  std::set<std::string> seen;
  for (const GpuPool& gpu_pool : pools) {
    if (seen.insert(gpu_pool.device.name).second) {
      devices.push_back(&gpu_pool.device);
    }
  }
  return devices;
}

/// The distinct devices of `pools` sorted by name, as sweeps and plans get
/// them.
std::vector<gpu::DeviceModel> sorted_devices(
    const std::vector<GpuPool>& pools) {
  std::vector<gpu::DeviceModel> devices;
  for (const gpu::DeviceModel* device : distinct_devices(pools)) {
    devices.push_back(*device);
  }
  std::sort(devices.begin(), devices.end(),
            [](const gpu::DeviceModel& a, const gpu::DeviceModel& b) {
              return a.name < b.name;
            });
  return devices;
}

/// Adds the estimation work of a sweep or plan report to `counters`.
template <typename Report>
void add_work(FleetCounters& counters, const Report& report) {
  counters.profiles_run += report.profiles_run;
  counters.profile_cache_hits += report.profile_cache_hits;
  counters.replays_run += report.replays_run;
  counters.result_cache_hits += report.result_cache_hits;
}

/// Whether a job demanding `demand` bytes fits an empty GPU of pool `p`.
bool fits_empty(const PackingPolicy& policy, std::size_t p,
                const GpuPool& gpu_pool, std::int64_t demand) {
  SlotState empty;
  empty.pool = p;
  empty.budget = gpu_pool.device.job_budget();
  return policy.commit_bytes(demand, empty) <= empty.budget;
}

}  // namespace

struct FleetPlanner::Impl {
  core::EstimationService& service;
  FleetPlannerOptions options;
  std::unique_ptr<util::ThreadPool> pool;  ///< null when serial

  /// Archetype cache, keyed by estimation scope + job identity. Shared by
  /// pack/apply — the what-if second pack costs zero profiles.
  std::map<std::string, Archetype> cache;

  /// The last pack's queue (ids materialized), archetypes and result. Only
  /// the report phase writes them, so an entry point that throws earlier
  /// leaves the planner as it was.
  bool has_state = false;
  FleetRequest state_request;
  Archetypes state_archetypes;
  PackResult state_result;
  std::size_t next_auto_id = 0;

  /// The pools one pack places onto, and what placing needs to know of them.
  struct Fleet {
    const FleetRequest& request;
    const std::vector<GpuPool>& pools;
    std::unique_ptr<PackingPolicy> policy;
    std::vector<std::size_t> starts;  ///< first slot of each pool
    std::vector<const gpu::DeviceModel*> devices;  ///< distinct, pool order
    std::string plan_key;  ///< max_gpus_per_job + the devices' names
  };

  Impl(core::EstimationService& service_in, FleetPlannerOptions options_in)
      : service(service_in), options(options_in) {
    const std::size_t threads = options.threads == 0
                                    ? util::ThreadPool::default_threads()
                                    : options.threads;
    if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);
  }

  /// Estimation knobs that change what an estimate means — part of the
  /// cache key so a planner reused across requests never serves stale peaks.
  static std::string request_scope(const FleetRequest& request) {
    return request.estimator + "|" + request.allocator + "|" +
           core::AllocatorConfigCodec::write(request.allocator_config).dump() +
           "|i" + std::to_string(request.profile_iterations) +
           (request.comm_overlap ? "|ow1" : "|ow0") +
           (request.refine_all ? "|ra1" : "|ra0");
  }

  void require_state() const {
    if (!has_state) {
      throw std::logic_error("FleetPlanner::apply before pack()");
    }
  }

  /// Phase validate: the checks the request schema makes, for C++ callers
  /// that build requests without it.
  static void validate(const FleetRequest& request) {
    if (request.jobs.empty()) {
      throw std::invalid_argument(
          "fleet request: \"jobs\" must be a non-empty array");
    }
    if (request.pools.empty()) {
      throw std::invalid_argument(
          "fleet request: \"pools\" must be a non-empty array");
    }
    std::set<std::string> ids;
    for (const FleetJob& fleet_job : request.jobs) {
      if (!ids.insert(fleet_job.id).second) {
        throw std::invalid_argument("fleet request: duplicate job id '" +
                                    fleet_job.id + "'");
      }
    }
    auto check_pool = [](const GpuPool& gpu_pool) {
      if (gpu_pool.count <= 0) {
        throw std::invalid_argument("fleet request: pool \"count\" must be "
                                    "> 0");
      }
      if (gpu_pool.device.job_budget() <= 0) {
        throw std::invalid_argument("fleet request: device '" +
                                    gpu_pool.device.name +
                                    "' has a non-positive job budget");
      }
    };
    for (const GpuPool& gpu_pool : request.pools) check_pool(gpu_pool);
    for (const GpuPool& gpu_pool : request.what_if) check_pool(gpu_pool);
    // A device name is the estimate-cache key, so one name must mean one
    // geometry across the fleet (and the what-if pools).
    std::map<std::string, gpu::DeviceModel> by_name;
    auto check_geometry = [&by_name](const gpu::DeviceModel& device) {
      const auto [it, inserted] = by_name.emplace(device.name, device);
      if (!inserted && (it->second.capacity != device.capacity ||
                        it->second.m_init != device.m_init ||
                        it->second.m_fm != device.m_fm)) {
        throw std::invalid_argument("fleet request: device name '" +
                                    device.name +
                                    "' appears with conflicting geometry");
      }
    };
    for (const GpuPool& gpu_pool : request.pools) check_geometry(gpu_pool.device);
    for (const GpuPool& gpu_pool : request.what_if) check_geometry(gpu_pool.device);
    if (!core::is_known_estimator(request.estimator)) {
      std::string names;
      for (const std::string& name : core::estimator_names()) {
        if (!names.empty()) names += ", ";
        names += name;
      }
      throw std::invalid_argument("fleet request: unknown estimator '" +
                                  request.estimator + "' (known: " + names +
                                  ")");
    }
    make_packing_policy(request.policy);  // throws listing known policies
    if (!alloc::is_known_backend(request.allocator)) {
      throw std::invalid_argument("fleet request: unknown allocator '" +
                                  request.allocator + "'");
    }
    core::validate_allocator_config(request.allocator_config, "fleet request");
    if (request.profile_iterations <= 0) {
      throw std::invalid_argument(
          "fleet request: \"profile_iterations\" must be > 0");
    }
    if (request.max_gpus_per_job < 1) {
      throw std::invalid_argument(
          "fleet request: \"max_gpus_per_job\" must be >= 1");
    }
  }

  /// Phase resolve: the archetype of every job, with per-device peaks on
  /// every device of `pools`. One sweep (== one CPU profile, cold) per
  /// archetype the cache does not cover, fanned out on the thread pool.
  Archetypes resolve(const FleetRequest& request,
                     const std::vector<GpuPool>& pools,
                     FleetCounters& counters) {
    struct Need {
      Archetype* archetype;
      core::TrainJob job;
      std::vector<gpu::DeviceModel> missing;
    };
    const std::string scope = request_scope(request) + "|";
    const std::vector<gpu::DeviceModel> devices = sorted_devices(pools);
    Archetypes archetypes;
    archetypes.reserve(request.jobs.size());
    std::vector<Need> needs;
    std::set<const Archetype*> seen;
    for (const FleetJob& fleet_job : request.jobs) {
      Archetype& archetype = cache[scope + job_key(fleet_job.job)];
      archetypes.push_back(&archetype);
      if (!seen.insert(&archetype).second) continue;
      Need need{&archetype, fleet_job.job, {}};
      for (const gpu::DeviceModel& device : devices) {
        if (archetype.peak_by_device.count(device.name) == 0) {
          need.missing.push_back(device);
        }
      }
      if (!need.missing.empty()) needs.push_back(std::move(need));
    }
    counters.estimates_reused += request.jobs.size() - needs.size();

    auto run_one = [this, &request](const Need& need) {
      core::EstimateRequest estimate;
      estimate.job = need.job;
      estimate.devices = need.missing;
      estimate.allocators = {request.allocator};
      estimate.estimators = {request.estimator};
      estimate.allocator_config = request.allocator_config;
      estimate.profile_iterations = request.profile_iterations;
      estimate.tenant = request.tenant;
      return service.sweep(estimate);
    };

    std::vector<core::EstimateReport> reports(needs.size());
    if (pool && needs.size() > 1) {
      std::vector<std::future<core::EstimateReport>> futures;
      futures.reserve(needs.size());
      for (const Need& need : needs) {
        futures.push_back(pool->submit([&run_one, &need] {
          return run_one(need);
        }));
      }
      // Every task reads this frame: let all finish before one rethrows.
      for (const auto& future : futures) future.wait();
      for (std::size_t i = 0; i < futures.size(); ++i) {
        reports[i] = futures[i].get();
      }
    } else {
      for (std::size_t i = 0; i < needs.size(); ++i) {
        reports[i] = run_one(needs[i]);
      }
    }

    // Merge in need order so counter totals are thread-count-independent.
    for (std::size_t i = 0; i < needs.size(); ++i) {
      for (const core::EstimateEntry& entry : reports[i].entries) {
        if (!entry.supported) needs[i].archetype->supported = false;
        needs[i].archetype->peak_by_device[entry.device] = entry.estimated_peak;
      }
      add_work(counters, reports[i]);
    }
    return archetypes;
  }

  static Fleet fleet_of(const FleetRequest& request,
                        const std::vector<GpuPool>& pools) {
    Fleet fleet{request, pools, make_packing_policy(request.policy), {},
                distinct_devices(pools),
                std::to_string(request.max_gpus_per_job)};
    std::size_t next = 0;
    for (const GpuPool& gpu_pool : pools) {
      fleet.starts.push_back(next);
      next += static_cast<std::size_t>(gpu_pool.count);
    }
    for (const gpu::DeviceModel& device : sorted_devices(pools)) {
      fleet.plan_key += "|" + device.name;
    }
    return fleet;
  }

  /// Multi-GPU fallback candidates for one archetype, planned against the
  /// devices of the fleet being packed and cached per Fleet::plan_key. The
  /// search shares the archetype's profile through the session
  /// (profiles_run stays == distinct_jobs).
  const std::vector<PlanCandidateLite>& plan_for(const Fleet& fleet,
                                                 const core::TrainJob& job,
                                                 Archetype& archetype,
                                                 FleetCounters& counters) {
    const auto it = archetype.plans.find(fleet.plan_key);
    if (it != archetype.plans.end()) return it->second;

    const FleetRequest& request = fleet.request;
    core::PlanRequest plan;
    plan.job = job;
    plan.devices = sorted_devices(fleet.pools);
    plan.max_gpus = request.max_gpus_per_job;
    plan.allocator = request.allocator;
    plan.allocator_config = request.allocator_config;
    plan.profile_iterations = request.profile_iterations;
    plan.max_candidates = 16;
    plan.comm_overlap = request.comm_overlap;
    plan.refine_all = request.refine_all;
    plan.tenant = request.tenant;
    const core::PlanReport report = service.plan(plan);
    counters.plans_run += 1;
    add_work(counters, report);

    std::vector<PlanCandidateLite> candidates;
    for (const core::PlanCandidate& candidate : report.candidates) {
      if (candidate.plan.gpus <= 1) continue;
      candidates.push_back(
          {candidate.plan.data_parallel, candidate.plan.tensor_parallel,
           candidate.plan.pipeline_stages, candidate.plan.gpus,
           candidate.replayed ? candidate.replayed_per_rank_peak
                              : candidate.plan.per_rank_peak});
    }
    return archetype.plans.emplace(fleet.plan_key, std::move(candidates))
        .first->second;
  }

  /// Report fields for a job that was not placed: the cheapest-to-host
  /// fleet device (minimum demand; pool order breaks ties).
  static void fill_best_single(const Fleet& fleet, const Archetype& archetype,
                               JobVerdict& verdict) {
    std::int64_t best_demand = -1;
    for (const gpu::DeviceModel* device : fleet.devices) {
      const std::int64_t peak = archetype.peak_by_device.at(device->name);
      const std::int64_t demand =
          fleet.request.headroom.demand_for(device->name, peak);
      if (best_demand < 0 || demand < best_demand) {
        best_demand = demand;
        verdict.predicted_peak = peak;
        verdict.headroom_bytes = demand - peak;
        verdict.demand_bytes = demand;
      }
    }
  }

  /// The one placement rule: choose `gpus` distinct slots among the
  /// `demands.size()` slots from `first`, commit the job on each and admit
  /// `verdict` there. Returns false, committing nothing, when fewer fit.
  static bool take_slots(const Fleet& fleet, std::size_t first,
                         std::vector<std::int64_t> demands,
                         const std::vector<std::int64_t>& peaks, int gpus,
                         PackResult& result, JobVerdict& verdict) {
    const auto begin = result.slots.begin() + first;
    std::vector<SlotState> range(begin, begin + demands.size());
    std::vector<std::pair<std::size_t, std::int64_t>> taken;  // slot, commit
    std::int64_t peak = 0;
    std::int64_t demand = 0;
    for (int rank = 0; rank < gpus; ++rank) {
      const int chosen = fleet.policy->choose(range, demands);
      if (chosen < 0) return false;
      const std::size_t slot = static_cast<std::size_t>(chosen);
      peak = peaks[slot];
      demand = demands[slot];
      const std::int64_t commit =
          fleet.policy->commit_bytes(demand, range[slot]);
      range[slot].committed += commit;
      range[slot].jobs += 1;
      // Ranks need distinct GPUs: rule the chosen slot out for the next rank.
      demands[slot] = std::numeric_limits<std::int64_t>::max() / 2;
      taken.emplace_back(slot, commit);
    }
    std::copy(range.begin(), range.end(), begin);
    verdict.verdict = Verdict::kAdmit;
    verdict.gpus = gpus;
    verdict.predicted_peak = peak;
    verdict.headroom_bytes = demand - peak;
    verdict.demand_bytes = demand;
    for (const auto& [slot, commit] : taken) {
      result.slot_predicted[first + slot] += peaks[slot];
      verdict.placements.push_back({range[slot].pool, range[slot].index,
                                    fleet.pools[range[slot].pool].device.name,
                                    commit});
    }
    return true;
  }

  /// Phase place: one job against the current slots — the step of batch
  /// packs and trailing arrivals. Fills `verdict`; commits on admit.
  void place(const Fleet& fleet, const FleetJob& fleet_job,
             Archetype& archetype, PackResult& result,
             FleetCounters& counters, JobVerdict& verdict) {
    const FleetRequest& request = fleet.request;
    verdict.id = fleet_job.id;
    verdict.label = fleet_job.job.label();
    verdict.priority = fleet_job.priority;
    if (!archetype.supported) {
      verdict.supported = false;
      verdict.verdict = Verdict::kReject;
      verdict.reason = "estimator '" + request.estimator +
                       "' does not support this job";
      return;
    }

    std::vector<std::int64_t> demands(result.slots.size(), 0);
    std::vector<std::int64_t> peaks(result.slots.size(), 0);
    for (std::size_t i = 0; i < result.slots.size(); ++i) {
      const std::string& name = fleet.pools[result.slots[i].pool].device.name;
      peaks[i] = archetype.peak_by_device.at(name);
      demands[i] = request.headroom.demand_for(name, peaks[i]);
    }

    // Would any fleet device host this job on an empty fleet? That line
    // separates defer (load problem) from the multi-GPU fallback.
    bool single_fits = false;
    for (std::size_t p = 0; p < fleet.pools.size() && !single_fits; ++p) {
      single_fits = fits_empty(*fleet.policy, p, fleet.pools[p],
                               demands[fleet.starts[p]]);
    }
    if (single_fits) {
      if (take_slots(fleet, 0, std::move(demands), peaks, 1, result, verdict)) {
        return;
      }
      fill_best_single(fleet, archetype, verdict);
      verdict.verdict = Verdict::kDefer;
      verdict.reason = "no GPU fits demand " +
                       std::to_string(verdict.demand_bytes) +
                       " bytes under current load";
      return;
    }

    // Multi-GPU fallback: DistributedPlanner candidates, ranks co-located
    // on one pool.
    fill_best_single(fleet, archetype, verdict);
    if (request.max_gpus_per_job <= 1) {
      verdict.verdict = Verdict::kReject;
      verdict.reason = "fits no single GPU (min demand " +
                       std::to_string(verdict.demand_bytes) +
                       " bytes) and max_gpus_per_job=1 disables splitting";
      return;
    }
    bool any_fits_empty = false;
    for (const PlanCandidateLite& candidate :
         plan_for(fleet, fleet_job.job, archetype, counters)) {
      for (std::size_t p = 0; p < fleet.pools.size(); ++p) {
        const GpuPool& gpu_pool = fleet.pools[p];
        if (gpu_pool.count < candidate.gpus) continue;
        const std::int64_t demand = request.headroom.demand_for(
            gpu_pool.device.name, candidate.rank_peak);
        if (!fits_empty(*fleet.policy, p, gpu_pool, demand)) continue;
        any_fits_empty = true;
        const std::size_t count = static_cast<std::size_t>(gpu_pool.count);
        if (take_slots(fleet, fleet.starts[p],
                       std::vector<std::int64_t>(count, demand),
                       std::vector<std::int64_t>(count, candidate.rank_peak),
                       candidate.gpus, result, verdict)) {
          verdict.split = "d" + std::to_string(candidate.data_parallel) +
                          ",t" + std::to_string(candidate.tensor_parallel) +
                          ",p" + std::to_string(candidate.pipeline_stages);
          return;
        }
      }
    }
    if (any_fits_empty) {
      verdict.verdict = Verdict::kDefer;
      verdict.reason =
          "no pool has enough free GPUs for a multi-GPU split under current "
          "load";
    } else {
      verdict.verdict = Verdict::kReject;
      verdict.reason = "fits no single GPU (min demand " +
                       std::to_string(verdict.demand_bytes) +
                       " bytes) and no split within " +
                       std::to_string(request.max_gpus_per_job) +
                       " GPUs fits any pool";
    }
  }

  static void compute_stats(const Archetypes& archetypes, PackResult& result) {
    FleetStats stats;
    stats.gpus_total = static_cast<int>(result.slots.size());
    std::int64_t total_free = 0;
    std::int64_t largest_free = 0;
    for (std::size_t i = 0; i < result.slots.size(); ++i) {
      const SlotState& slot = result.slots[i];
      stats.total_budget_bytes += slot.budget;
      stats.committed_bytes += slot.committed;
      stats.predicted_bytes += result.slot_predicted[i];
      if (slot.jobs > 0) stats.gpus_used += 1;
      total_free += slot.free_bytes();
      largest_free = std::max(largest_free, slot.free_bytes());
    }
    stats.jobs = static_cast<int>(result.verdicts.size());
    for (const JobVerdict& verdict : result.verdicts) {
      stats.admitted += verdict.verdict == Verdict::kAdmit ? 1 : 0;
      stats.deferred += verdict.verdict == Verdict::kDefer ? 1 : 0;
      stats.rejected += verdict.verdict == Verdict::kReject ? 1 : 0;
    }
    stats.distinct_jobs = static_cast<int>(
        std::set<const Archetype*>(archetypes.begin(), archetypes.end())
            .size());
    stats.waste_bytes = stats.committed_bytes - stats.predicted_bytes;
    if (stats.total_budget_bytes > 0) {
      stats.utilization_pct = static_cast<int>(
          100 * stats.predicted_bytes / stats.total_budget_bytes);
      stats.committed_pct = static_cast<int>(
          100 * stats.committed_bytes / stats.total_budget_bytes);
    }
    if (total_free > 0) {
      stats.fragmentation_pct =
          static_cast<int>(100 - 100 * largest_free / total_free);
    }
    result.stats = stats;
  }

  /// Phase pack_onto: the whole queue onto mint-condition slots of the
  /// fleet. Deterministic given the archetypes: ordered integer arithmetic.
  PackResult pack_onto(const Fleet& fleet, const Archetypes& archetypes,
                       FleetCounters& counters) {
    const FleetRequest& request = fleet.request;
    PackResult result;
    for (std::size_t p = 0; p < fleet.pools.size(); ++p) {
      for (int i = 0; i < fleet.pools[p].count; ++i) {
        result.slots.push_back(
            {p, i, fleet.pools[p].device.job_budget(), 0, 0});
      }
    }
    result.slot_predicted.assign(result.slots.size(), 0);
    result.verdicts.resize(request.jobs.size());

    // Queue order: priority-major (higher first), arrival-minor; the policy
    // then reorders within each priority class (BFD sorts by bytes).
    std::vector<std::size_t> order(request.jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&request](std::size_t a, std::size_t b) {
                       return request.jobs[a].priority >
                              request.jobs[b].priority;
                     });
    std::vector<std::int64_t> reference(request.jobs.size(), 0);
    for (std::size_t i = 0; i < request.jobs.size(); ++i) {
      if (!archetypes[i]->supported) continue;
      for (const gpu::DeviceModel* device : fleet.devices) {
        reference[i] = std::max(
            reference[i], archetypes[i]->peak_by_device.at(device->name));
      }
    }
    for (std::size_t seg = 0, end = 0; seg < order.size(); seg = end) {
      end = seg + 1;
      while (end < order.size() && request.jobs[order[end]].priority ==
                                       request.jobs[order[seg]].priority) {
        ++end;
      }
      std::vector<std::size_t> segment(order.begin() + seg,
                                       order.begin() + end);
      fleet.policy->reorder(segment, reference);
      std::copy(segment.begin(), segment.end(), order.begin() + seg);
    }

    for (const std::size_t index : order) {
      place(fleet, request.jobs[index], *archetypes[index], result, counters,
            result.verdicts[index]);
    }
    compute_stats(archetypes, result);
    return result;
  }

  /// Phase report, the tail of every entry point: make `next` the planner's
  /// state and describe it.
  FleetReport report(FleetRequest next, Archetypes archetypes,
                     PackResult result, const FleetCounters& counters,
                     std::size_t next_id,
                     std::chrono::steady_clock::time_point start) {
    FleetReport out;
    out.policy = next.policy;
    out.pools = next.pools;
    out.verdicts = result.verdicts;
    for (std::size_t i = 0; i < result.slots.size(); ++i) {
      const SlotState& slot = result.slots[i];
      out.gpus.push_back({slot.pool, slot.index,
                          next.pools[slot.pool].device.name, slot.budget,
                          slot.committed, result.slot_predicted[i],
                          slot.jobs});
    }
    out.stats = result.stats;
    out.counters = counters;
    has_state = true;
    state_request = std::move(next);
    state_archetypes = std::move(archetypes);
    state_result = std::move(result);
    next_auto_id = next_id;
    out.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    return out;
  }

  static WhatIfDelta make_delta(const std::vector<GpuPool>& added,
                                const PackResult& base,
                                const PackResult& after) {
    WhatIfDelta delta;
    delta.added_pools = added;
    delta.admitted_delta = after.stats.admitted - base.stats.admitted;
    delta.deferred_delta = after.stats.deferred - base.stats.deferred;
    delta.rejected_delta = after.stats.rejected - base.stats.rejected;
    delta.utilization_pct_delta =
        after.stats.utilization_pct - base.stats.utilization_pct;
    for (std::size_t i = 0; i < base.verdicts.size(); ++i) {
      if (base.verdicts[i].verdict != Verdict::kAdmit &&
          after.verdicts[i].verdict == Verdict::kAdmit) {
        delta.newly_admitted.push_back(base.verdicts[i].id);
      }
    }
    delta.stats_after = after.stats;
    return delta;
  }
};

FleetPlanner::FleetPlanner(core::EstimationService& service,
                           FleetPlannerOptions options)
    : impl_(std::make_unique<Impl>(service, options)) {}

FleetPlanner::~FleetPlanner() = default;

FleetReport FleetPlanner::pack(const FleetRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  FleetRequest next = request;
  for (std::size_t i = 0; i < next.jobs.size(); ++i) {
    if (next.jobs[i].id.empty()) next.jobs[i].id = "job-" + std::to_string(i);
  }
  Impl::validate(next);
  std::vector<GpuPool> expanded = next.pools;
  expanded.insert(expanded.end(), next.what_if.begin(), next.what_if.end());
  FleetCounters counters;
  const Archetypes archetypes = impl_->resolve(next, expanded, counters);
  PackResult base =
      impl_->pack_onto(Impl::fleet_of(next, next.pools), archetypes, counters);
  counters.pools_repacked = next.pools.size();
  std::optional<WhatIfDelta> what_if;
  if (!next.what_if.empty()) {
    // The second pack plans against its own pools and reuses the archetype
    // cache, so its estimation cost is zero; report counters describe the
    // base pack.
    FleetCounters what_if_counters;
    const PackResult after = impl_->pack_onto(Impl::fleet_of(next, expanded),
                                              archetypes, what_if_counters);
    what_if = Impl::make_delta(next.what_if, base, after);
    next.what_if.clear();
  }
  const std::size_t next_id = next.jobs.size();
  FleetReport report = impl_->report(std::move(next), archetypes,
                                     std::move(base), counters, next_id, start);
  report.what_if = std::move(what_if);
  return report;
}

FleetReport FleetPlanner::apply(const JobArrival& event) {
  const auto start = std::chrono::steady_clock::now();
  Impl& impl = *impl_;
  impl.require_state();
  FleetRequest next = impl.state_request;
  FleetJob job = event.job;
  std::size_t next_id = impl.next_auto_id;
  auto id_taken = [&next](const std::string& id) {
    return std::any_of(next.jobs.begin(), next.jobs.end(),
                       [&id](const FleetJob& existing) {
                         return existing.id == id;
                       });
  };
  if (job.id.empty()) {
    do {
      job.id = "job-" + std::to_string(next_id++);
    } while (id_taken(job.id));
  } else if (id_taken(job.id)) {
    throw std::invalid_argument("fleet apply: duplicate job id '" + job.id +
                                "'");
  }
  // Fast path: an order-preserving policy packs in queue order, so a new
  // job that sorts last (priority <= everything pending) is placed against
  // the existing state — provably equal to a full repack.
  const bool sorts_last =
      std::all_of(next.jobs.begin(), next.jobs.end(),
                  [&job](const FleetJob& existing) {
                    return existing.priority >= job.priority;
                  });
  next.jobs.push_back(job);
  FleetCounters counters;
  Archetypes archetypes = impl.resolve(next, next.pools, counters);

  const Impl::Fleet fleet = Impl::fleet_of(next, next.pools);
  PackResult result;
  if (fleet.policy->order_preserving() && sorts_last) {
    result = impl.state_result;
    result.verdicts.emplace_back();
    impl.place(fleet, next.jobs.back(), *archetypes.back(), result, counters,
               result.verdicts.back());
    Impl::compute_stats(archetypes, result);
    counters.pools_repacked =
        result.verdicts.back().verdict == Verdict::kAdmit ? 1 : 0;
  } else {
    result = impl.pack_onto(fleet, archetypes, counters);
    counters.pools_repacked = next.pools.size();
  }
  return impl.report(std::move(next), std::move(archetypes), std::move(result),
                     counters, next_id, start);
}

FleetReport FleetPlanner::apply(const JobFinish& event) {
  const auto start = std::chrono::steady_clock::now();
  Impl& impl = *impl_;
  impl.require_state();
  const std::vector<FleetJob>& jobs = impl.state_request.jobs;
  const auto found =
      std::find_if(jobs.begin(), jobs.end(), [&event](const FleetJob& job) {
        return job.id == event.id;
      });
  if (found == jobs.end()) {
    throw std::invalid_argument("fleet apply: unknown job id '" + event.id +
                                "'");
  }
  const std::ptrdiff_t index = found - jobs.begin();
  FleetRequest next = impl.state_request;
  Archetypes archetypes = impl.state_archetypes;
  next.jobs.erase(next.jobs.begin() + index);
  archetypes.erase(archetypes.begin() + index);

  FleetCounters counters;
  PackResult result;
  if (impl.state_result.verdicts[static_cast<std::size_t>(index)].verdict ==
      Verdict::kAdmit) {
    // Freed capacity can cascade (a deferred job may now fit), so repack —
    // pure integer arithmetic, every estimate served from the cache.
    counters.estimates_reused = next.jobs.size();
    result = impl.pack_onto(Impl::fleet_of(next, next.pools), archetypes,
                            counters);
    counters.pools_repacked = next.pools.size();
  } else {
    // A deferred/rejected job never held capacity: placements stand.
    result = impl.state_result;
    result.verdicts.erase(result.verdicts.begin() + index);
    Impl::compute_stats(archetypes, result);
  }
  return impl.report(std::move(next), std::move(archetypes), std::move(result),
                     counters, impl.next_auto_id, start);
}

}  // namespace xmem::sched
