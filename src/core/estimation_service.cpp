#include "core/estimation_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <list>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "core/estimator_registry.h"
#include "core/sequence_transform.h"
#include "core/simulator.h"
#include "models/zoo.h"
#include "util/thread_pool.h"

namespace xmem::core {

namespace schema = util::schema;
using schema::Bool;
using schema::field;
using schema::integer;
using schema::kIfChanged;
using schema::kOptional;
using schema::kRequired;
using schema::Str;

namespace {

using Devices = schema::List<DeviceCodec>;
constexpr const char* kDevicesExpect =
    "a non-empty array of device aliases or device objects";

constexpr schema::Field<TrainJob> kJobFields[] = {
    field<Str, &TrainJob::model_name>("model", kRequired),
    schema::required(integer<&TrainJob::batch_size>("batch", 1)),
    field<schema::Enum<fw::optimizer_from_string>, &TrainJob::optimizer>(
        "optimizer", kOptional,
        "one of SGD, Adam, AdamW, RMSprop, Adagrad, Adafactor"),
    field<schema::Enum<fw::placement_from_string>, &TrainJob::placement>(
        "placement", kOptional, "POS0 or POS1"),
    integer<&TrainJob::seed>("seed"),
};

constexpr schema::Field<gpu::DeviceModel> kDeviceFields[] = {
    field<Str, &gpu::DeviceModel::name>("name", kRequired),
    integer<&gpu::DeviceModel::capacity>("capacity_bytes", 1),
    integer<&gpu::DeviceModel::m_init>("m_init_bytes", 0),
    integer<&gpu::DeviceModel::m_fm>("m_fm_bytes", 0),
};

constexpr schema::Field<EstimateRequest> kSweepFields[] = {
    field<JobCodec, &EstimateRequest::job>("job", kRequired),
    field<Devices, &EstimateRequest::devices>("devices", kRequired,
                                              kDevicesExpect),
    field<schema::List<Str>, &EstimateRequest::allocators>("allocators"),
    field<schema::List<Str>, &EstimateRequest::estimators>("estimators"),
    field<AllocatorConfigCodec, &EstimateRequest::allocator_config>(
        "allocator_config", kIfChanged),
    integer<&EstimateRequest::profile_iterations>("profile_iterations", 1),
    field<Bool, &EstimateRequest::record_curve>("curve"),
    field<Str, &EstimateRequest::tenant>("tenant", kIfChanged),
};

/// `refine_top_k` is a count, or the string "all" for full-search mode
/// (PlanRequest::refine_all); any other string is a typo, not a count.
struct RefineTopK {
  static void read(const util::Json& value, PlanRequest& out,
                   const schema::Path& at, const schema::FieldInfo& info) {
    out.refine_all = value.is_string() && value.as_string() == "all";
    if (!out.refine_all) schema::Int::read(value, out.refine_top_k, at, info);
  }
  static util::Json write(const PlanRequest& in, bool) {
    return in.refine_all ? util::Json("all") : util::Json(in.refine_top_k);
  }
};

constexpr schema::Field<PlanRequest> kPlanFields[] = {
    field<JobCodec, &PlanRequest::job>("job", kRequired),
    field<Devices, &PlanRequest::devices>("devices", kRequired,
                                          kDevicesExpect),
    integer<&PlanRequest::max_gpus>("max_gpus", 1),
    integer<&PlanRequest::micro_batches>("micro_batches", 1),
    field<schema::Enum<pipeline_schedule_from_string>, &PlanRequest::schedule>(
        "schedule", kOptional, "1f1b or interleaved"),
    integer<&PlanRequest::virtual_stages>("virtual_stages", 1),
    integer<&PlanRequest::zero>("zero_stage", 0, 3),
    integer<&PlanRequest::ddp_bucket_bytes>("ddp_bucket_bytes", 0),
    integer<&PlanRequest::ddp_bucket_count>("ddp_bucket_count", 0),
    integer<&PlanRequest::activation_replication_pct>(
        "activation_replication_pct", 0, 100),
    field<Str, &PlanRequest::allocator>("allocator"),
    field<AllocatorConfigCodec, &PlanRequest::allocator_config>(
        "allocator_config", kIfChanged),
    integer<&PlanRequest::profile_iterations>("profile_iterations", 1),
    integer<&PlanRequest::max_candidates>("max_candidates"),
    {{"refine_top_k", "an integer in [0, 2147483647] or the string \"all\"",
      kOptional, 0, std::numeric_limits<int>::max()},
     &RefineTopK::read,
     &RefineTopK::write},
    field<Bool, &PlanRequest::comm_overlap>("comm_overlap", kIfChanged),
    field<Str, &PlanRequest::tenant>("tenant", kIfChanged),
};

constexpr schema::Path kSweepRoot{"request"};
constexpr schema::Path kPlanRoot{"plan request"};

}  // namespace

const schema::Schema<TrainJob> kJobSchema = kJobFields;
const schema::Schema<gpu::DeviceModel> kDeviceSchema = kDeviceFields;
const schema::Schema<EstimateRequest> kSweepSchema = kSweepFields;
const schema::Schema<PlanRequest> kPlanSchema = kPlanFields;

void DeviceCodec::read(const util::Json& value, gpu::DeviceModel& out,
                       const schema::Path& at, const schema::FieldInfo& info) {
  const bool object = value.is_object();
  const util::Json& name =
      object && value.contains("name") ? value.at("name") : value;
  try {
    out = gpu::device_by_name(name.is_string() ? name.as_string() : "");
  } catch (const std::invalid_argument&) {
    if (!object) schema::fail(at, kExpect, &value);
  }
  if (!object) return;
  // A resolved name keeps the reference card's canonical spelling.
  const std::string reference_name = out.name;
  schema::Obj<kDeviceSchema>::read(value, out, at, info);
  if (!reference_name.empty()) out.name = reference_name;
  if (out.capacity <= 0) {
    schema::fail(schema::Path{"capacity_bytes", &at},
                 "given for an unknown device name", nullptr);
  }
}

util::Json DeviceCodec::write(const gpu::DeviceModel& device, bool) {
  return schema::Obj<kDeviceSchema>::write(device);
}

void AllocatorConfigCodec::read(
    const util::Json& value, std::map<std::string, alloc::BackendKnobs>& out,
    const schema::Path& at, const schema::FieldInfo&) {
  if (!value.is_object()) schema::fail(at, kExpect, &value);
  for (const auto& [name, knobs] : value.as_object()) {
    out[name] = alloc::parse_backend_knobs(
        knobs, schema::Path{name.c_str(), &at}.str());
  }
}

util::Json AllocatorConfigCodec::write(
    const std::map<std::string, alloc::BackendKnobs>& config, bool) {
  return schema::Dict<schema::Dict<schema::Int>>::write(config);
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

/// Fail a request up front when its allocator_config is malformed: unknown
/// backend names, and — by constructing a throwaway backend — unknown knob
/// names or out-of-range values, surfacing the backend's own actionable
/// message instead of a mid-sweep failure.
void validate_allocator_config(
    const std::map<std::string, alloc::BackendKnobs>& config,
    const std::string& context) {
  for (const auto& [name, knobs] : config) {
    if (!alloc::is_known_backend(name)) {
      throw std::invalid_argument(context +
                                  ": allocator_config names unknown backend '" +
                                  name + "'");
    }
    alloc::SimulatedCudaDriver probe(SimulationOptions::kUnboundedCapacity);
    alloc::make_backend(name, probe, knobs);
  }
}

namespace {

const alloc::BackendKnobs& knobs_for(
    const std::map<std::string, alloc::BackendKnobs>& config,
    const std::string& name) {
  static const alloc::BackendKnobs empty;
  const auto it = config.find(name);
  return it == config.end() ? empty : it->second;
}

/// 100 * (to - from) / from, integer-truncated (0 when `from` is not
/// positive): the one percent rule behind savings_pct,
/// analytic_vs_replayed_pct and window_vs_resident_pct.
int percent_change(std::int64_t from, std::int64_t to) {
  return from > 0 ? static_cast<int>(100 * (to - from) / from) : 0;
}

/// The one verdict rule: a peak fits a device when it stays within the
/// device's job budget. Fills one verdict per device; returns the fits.
std::size_t judge_fits(std::int64_t peak,
                       const std::vector<gpu::DeviceModel>& devices,
                       std::vector<bool>& fits) {
  fits.clear();
  for (const gpu::DeviceModel& device : devices) {
    fits.push_back(peak <= device.job_budget());
  }
  return static_cast<std::size_t>(std::count(fits.begin(), fits.end(), true));
}

/// The one best-first order: fit the most candidate devices with the fewest
/// GPUs and the lowest per-rank peak; (d, t, p) breaks remaining ties so the
/// order is total and thread-count independent. `replayed` substitutes the
/// replayed verdicts and peak for the analytic ones.
auto rank_key(const PlanCandidate& c, bool replayed) {
  return std::make_tuple(
      -static_cast<std::int64_t>(replayed ? c.replayed_fits_count
                                          : c.fits_count),
      c.plan.gpus, replayed ? c.replayed_per_rank_peak : c.plan.per_rank_peak,
      c.plan.data_parallel, c.plan.tensor_parallel, c.plan.pipeline_stages);
}

/// Sort the first `count` candidates best-first by rank_key.
void sort_best_first(std::vector<PlanCandidate>& candidates, std::size_t count,
                     bool replayed) {
  std::sort(candidates.begin(),
            candidates.begin() + static_cast<std::ptrdiff_t>(count),
            [replayed](const PlanCandidate& a, const PlanCandidate& b) {
              return rank_key(a, replayed) < rank_key(b, replayed);
            });
}

// --- report tables (write-only; docs/API.md "Report fields") ----------------

using schema::Double;
using schema::emit;
using schema::Int;
using schema::kTiming;
using Peaks = schema::List<Int>;

constexpr schema::Field<StageTimings> kStageTimingsFields[] = {
    emit<Double, &StageTimings::profile_seconds>("profile_seconds"),
    emit<Double, &StageTimings::analyze_seconds>("analyze_seconds"),
    emit<Double, &StageTimings::simulate_seconds>("simulate_seconds"),
    emit<Double, &StageTimings::total_seconds>("total_seconds"),
    emit<Bool, &StageTimings::profile_cache_hit>("profile_cache_hit"),
    emit<Bool, &StageTimings::result_cache_hit>("result_cache_hit"),
};

constexpr schema::Field<OrchestratorStats> kOrchestratorStatsFields[] = {
    emit<Int, &OrchestratorStats::params_pinned>("params_pinned"),
    emit<Int, &OrchestratorStats::batch_truncated>("batch_truncated"),
    emit<Int, &OrchestratorStats::gradients_retimed>("gradients_retimed"),
    emit<Int, &OrchestratorStats::optimizer_states_pinned>(
        "optimizer_states_pinned"),
};

constexpr auto kIfSupported = &EstimateEntry::supported;

constexpr schema::Field<EstimateEntry> kEntryFields[] = {
    emit<Str, &EstimateEntry::estimator>("estimator"),
    emit<Str, &EstimateEntry::device>("device"),
    emit<Str, &EstimateEntry::allocator>("allocator", kIfChanged),
    emit<Bool, &EstimateEntry::supported>("supported"),
    emit<Int, &EstimateEntry::estimated_peak>("estimated_peak_bytes",
                                              kOptional, kIfSupported),
    emit<Bool, &EstimateEntry::oom_predicted>("oom_predicted", kOptional,
                                              kIfSupported),
    emit<Int, &EstimateEntry::device_job_budget>("device_job_budget_bytes",
                                                 kOptional, kIfSupported),
    emit<schema::Obj<kOrchestratorStatsFields>,
         &EstimateEntry::orchestrator_stats>(
        "orchestrator_stats", kOptional,
        &EstimateEntry::has_orchestrator_stats),
    emit<schema::Obj<kStageTimingsFields>, &EstimateEntry::timings>("timings",
                                                                    kTiming),
    emit<schema::List<schema::Pair<Int, Int>>, &EstimateEntry::reserved_curve>(
        "reserved_curve", kIfChanged),
};

using Entries = schema::List<schema::Obj<kEntryFields>>;

constexpr schema::Field<EstimateReport> kSweepCounterFields[] = {
    emit<Int, &EstimateReport::profiles_run>("profiles_run"),
    emit<Int, &EstimateReport::profile_cache_hits>("profile_cache_hits"),
    emit<Int, &EstimateReport::replays_run>("replays_run"),
    emit<Int, &EstimateReport::result_cache_hits>("result_cache_hits"),
};

constexpr schema::Field<EstimateReport> kSweepReportFields[] = {
    schema::constant<EstimateReport, 1>("schema_version"),
    emit<JobCodec, &EstimateReport::job>("job"),
    emit<Entries, &EstimateReport::entries>("entries"),
    schema::group<EstimateReport, kSweepCounterFields>("stage_counters"),
    emit<Double, &EstimateReport::wall_seconds>("wall_seconds", kTiming),
};

constexpr schema::Field<PipelineStage> kStageFields[] = {
    emit<Int, &PipelineStage::first_component>("first_component"),
    emit<Int, &PipelineStage::last_component>("last_component"),
    emit<Int, &PipelineStage::estimated_peak>("peak_bytes"),
};

/// One per-device verdict as a plan report writes it; see write_candidates.
struct DeviceFit {
  std::string device;
  bool fits = false;
};

constexpr schema::Field<DeviceFit> kDeviceFitFields[] = {
    emit<Str, &DeviceFit::device>("device"),
    emit<Bool, &DeviceFit::fits>("fits"),
};

constexpr auto kIfWindowMode = &PlanCandidate::window_mode;

/// A refined candidate's `replay` object, next to its `fits`.
constexpr schema::Field<PlanCandidate> kReplayFields[] = {
    emit<Peaks, &PlanCandidate::replayed_rank_peaks>("rank_peaks_bytes"),
    emit<Int, &PlanCandidate::replayed_per_rank_peak>("per_rank_peak_bytes"),
    emit<Int, &PlanCandidate::analytic_vs_replayed_pct>(
        "analytic_vs_replayed_pct"),
    emit<Bool, &PlanCandidate::verdict_changed>("verdict_changed"),
    // Overlap-window refinement keeps the resident baseline next to the
    // window-mode peaks; resident-mode reports never carry these keys.
    emit<Peaks, &PlanCandidate::resident_rank_peaks>(
        "resident_rank_peaks_bytes", kOptional, kIfWindowMode),
    emit<Int, &PlanCandidate::resident_per_rank_peak>(
        "resident_per_rank_peak_bytes", kOptional, kIfWindowMode),
    emit<Int, &PlanCandidate::window_vs_resident_pct>(
        "window_vs_resident_pct", kOptional, kIfWindowMode),
};

constexpr schema::Field<PlanCandidate> kCandidateFields[] = {
    emit<Int, &PlanCandidate::plan, &HybridPlan::data_parallel>(
        "data_parallel"),
    emit<Int, &PlanCandidate::plan, &HybridPlan::tensor_parallel>(
        "tensor_parallel"),
    emit<Int, &PlanCandidate::plan, &HybridPlan::pipeline_stages>(
        "pipeline_stages"),
    emit<Int, &PlanCandidate::plan, &HybridPlan::gpus>("gpus"),
    emit<Int, &PlanCandidate::plan, &HybridPlan::per_rank_peak>(
        "per_rank_peak_bytes"),
    emit<Int, &PlanCandidate::savings_pct>("savings_pct"),
    emit<Bool, &PlanCandidate::splitting_helps>("splitting_helps"),
    emit<Peaks, &PlanCandidate::plan, &HybridPlan::rank_peaks>(
        "rank_peaks_bytes"),
    emit<schema::List<schema::Obj<kStageFields>>, &PlanCandidate::plan,
         &HybridPlan::stages>("stages"),
    emit<Bool, &PlanCandidate::replayed>("replayed"),
    schema::group<PlanCandidate, kReplayFields>("replay",
                                                &PlanCandidate::replayed),
};

/// The plan report's `candidates`. A candidate's `fits` (and its replay's)
/// pair PlanReport::devices with the candidate's verdicts, so they are
/// added here rather than copied into every candidate inside plan().
util::Json write_candidates(const PlanReport& report, bool timings) {
  const auto fits = [&report](const std::vector<bool>& verdicts) {
    std::vector<DeviceFit> pairs;
    for (std::size_t i = 0; i < report.devices.size() && i < verdicts.size();
         ++i) {
      pairs.push_back({report.devices[i].name, verdicts[i]});
    }
    return schema::List<schema::Obj<kDeviceFitFields>>::write(pairs);
  };
  util::Json candidates = util::Json::array();
  for (const PlanCandidate& candidate : report.candidates) {
    util::Json json = schema::write_object<PlanCandidate>(
        candidate, kCandidateFields, timings);
    json["fits"] = fits(candidate.device_fits);
    if (candidate.replayed) {
      json["replay"]["fits"] = fits(candidate.replayed_device_fits);
    }
    candidates.push_back(std::move(json));
  }
  return candidates;
}

constexpr auto kIfOverlap = &PlanReport::comm_overlap;

constexpr schema::Field<PlanReport> kSingleDeviceFields[] = {
    emit<Int, &PlanReport::single_device_peak>("analytic_peak_bytes"),
    emit<Entries, &PlanReport::single_device_entries>("entries"),
};

constexpr schema::Field<PlanReport> kPlanCounterFields[] = {
    emit<Int, &PlanReport::profiles_run>("profiles_run"),
    emit<Int, &PlanReport::profile_cache_hits>("profile_cache_hits"),
    emit<Int, &PlanReport::replays_run>("replays_run"),
    emit<Int, &PlanReport::replayed_candidates>("replayed_candidates"),
    emit<Int, &PlanReport::rank_replays_run>("rank_replays"),
    emit<Int, &PlanReport::replays_deduped>("replays_deduped"),
    emit<Int, &PlanReport::replay_cache_hits>("replay_cache_hits"),
    emit<Int, &PlanReport::rerank_changed>("rerank_changed", kOptional,
                                           kIfOverlap),
    emit<Int, &PlanReport::result_cache_hits>("result_cache_hits"),
};

constexpr schema::Field<PlanReport> kPlanReportFields[] = {
    schema::constant<PlanReport, 1>("schema_version"),
    // Written only when set, so resident-mode reports stay byte-identical.
    emit<Bool, &PlanReport::comm_overlap>("comm_overlap", kOptional,
                                          kIfOverlap),
    emit<JobCodec, &PlanReport::job>("job"),
    schema::group<PlanReport, kSingleDeviceFields>("single_device"),
    {{"candidates", nullptr}, nullptr, &write_candidates},
    emit<Int, &PlanReport::candidates_evaluated>("candidates_evaluated"),
    schema::group<PlanReport, kPlanCounterFields>("stage_counters"),
    emit<Double, &PlanReport::wall_seconds>("wall_seconds", kTiming),
};

}  // namespace

std::vector<std::vector<schema::FieldInfo>> report_tables() {
  using schema::infos;
  return {infos(kStageTimingsFields), infos(kOrchestratorStatsFields),
          infos(kEntryFields),        infos(kSweepCounterFields),
          infos(kSweepReportFields),  infos(kStageFields),
          infos(kDeviceFitFields),    infos(kReplayFields),
          infos(kCandidateFields),    infos(kSingleDeviceFields),
          infos(kPlanCounterFields),  infos(kPlanReportFields)};
}

EstimateRequest EstimateRequest::from_json(const util::Json& json) {
  return schema::parse(json, kSweepRoot, kSweepSchema);
}

util::Json EstimateRequest::to_json() const {
  return schema::write_object(*this, kSweepSchema);
}

EstimateResult EstimateEntry::to_result() const {
  EstimateResult result;
  result.supported = supported;
  result.estimated_peak = estimated_peak;
  result.oom_predicted = oom_predicted;
  result.runtime_seconds = timings.total_seconds;
  return result;
}

util::Json EstimateEntry::to_json(bool include_timings) const {
  return schema::write_object<EstimateEntry>(*this, kEntryFields,
                                            include_timings);
}

util::Json EstimateReport::to_json(bool include_timings) const {
  return schema::write_object<EstimateReport>(*this, kSweepReportFields,
                                             include_timings);
}

PlanRequest PlanRequest::from_json(const util::Json& json) {
  return schema::parse(json, kPlanRoot, kPlanSchema);
}

util::Json PlanRequest::to_json() const {
  return schema::write_object(*this, kPlanSchema);
}

util::Json PlanReport::to_json(bool include_timings) const {
  return schema::write_object<PlanReport>(*this, kPlanReportFields,
                                         include_timings);
}

// ---------------------------------------------------------------------------

struct EstimationService::SweepCounters {
  std::atomic<std::size_t> profiles_run{0};
  std::atomic<std::size_t> profile_cache_hits{0};
  std::atomic<std::size_t> replays_run{0};
  std::atomic<std::size_t> result_cache_hits{0};

  /// The stage counters every report (EstimateReport, PlanReport) carries.
  template <typename Report>
  void copy_to(Report& report) const {
    report.profiles_run = profiles_run.load();
    report.profile_cache_hits = profile_cache_hits.load();
    report.replays_run = replays_run.load();
    report.result_cache_hits = result_cache_hits.load();
  }
};

struct EstimationService::Impl {
  std::mutex estimators_mutex;
  std::map<std::string, std::unique_ptr<Estimator>> estimators;

  std::mutex results_mutex;
  std::list<std::string> results_lru;  ///< front = most recently used
  std::map<std::string,
           std::pair<EstimateEntry, std::list<std::string>::iterator>>
      results;
};

EstimationService::EstimationService(ServiceOptions options)
    : options_(options),
      session_(options.session
                   ? options.session
                   : std::make_shared<ProfileSession>(
                         options.profile_cache_capacity,
                         options.session_quota)),
      impl_(std::make_unique<Impl>()) {
  const std::size_t threads = options_.threads == 0
                                  ? util::ThreadPool::default_threads()
                                  : options_.threads;
  if (threads > 1) pool_ = std::make_unique<util::ThreadPool>(threads);
}

EstimationService::~EstimationService() = default;

ProfileSession::Lookup EstimationService::lookup_profile(
    const TrainJob& job, bool orchestrate, int profile_iterations,
    const std::string& tenant, SweepCounters& counters) {
  ProfileKey key;
  key.model_name = job.model_name;
  key.batch_size = job.batch_size;
  key.optimizer = job.optimizer;
  key.placement = job.placement;
  key.seed = job.seed;
  key.profile_iterations = profile_iterations;
  if (orchestrate) {
    key.orchestrator_config = options_.orchestrator_config;
  } else {
    key.orchestrator_config.rule_params = false;
    key.orchestrator_config.rule_batch = false;
    key.orchestrator_config.rule_gradients = false;
    key.orchestrator_config.rule_optimizer_state = false;
  }
  ProfileSession::Lookup lookup = session_->get(key, tenant);
  (lookup.cache_hit ? counters.profile_cache_hits : counters.profiles_run)
      .fetch_add(1);
  return lookup;
}

Estimator& EstimationService::estimator_instance(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->estimators_mutex);
  auto it = impl_->estimators.find(name);
  if (it == impl_->estimators.end()) {
    // Construction happens under the lock on purpose: SchedTune trains its
    // GBM at construction and must do so exactly once per service.
    it = impl_->estimators.emplace(name, make_estimator(name)).first;
  }
  return *it->second;
}

bool EstimationService::result_cache_get(const std::string& key,
                                         EstimateEntry& out) {
  std::lock_guard<std::mutex> lock(impl_->results_mutex);
  auto it = impl_->results.find(key);
  if (it == impl_->results.end()) return false;
  impl_->results_lru.splice(impl_->results_lru.begin(), impl_->results_lru,
                            it->second.second);
  out = it->second.first;
  return true;
}

void EstimationService::result_cache_put(const std::string& key,
                                         const EstimateEntry& entry) {
  std::lock_guard<std::mutex> lock(impl_->results_mutex);
  if (impl_->results.count(key) > 0) return;  // concurrent duplicate
  impl_->results_lru.push_front(key);
  impl_->results.emplace(key, std::make_pair(entry, impl_->results_lru.begin()));
  while (impl_->results.size() > options_.result_cache_capacity &&
         !impl_->results_lru.empty()) {
    impl_->results.erase(impl_->results_lru.back());
    impl_->results_lru.pop_back();
  }
}

void EstimationService::run_fanned(
    const std::size_t count, const std::function<void(std::size_t)>& task) {
  if (!pool_) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(pool_->submit([&task, i] { task(i); }));
  }
  std::exception_ptr first_error;
  for (std::future<void>& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

EstimateEntry EstimationService::run_entry(const EstimateRequest& request,
                                           const EntrySpec& spec,
                                           SweepCounters& counters) {
  const gpu::DeviceModel& device = request.devices[spec.device_index];
  std::string result_key = spec.estimator;
  result_key += '|';
  result_key += request.job.label();
  result_key += "|s";
  result_key += std::to_string(request.job.seed);
  result_key += "|it";
  result_key += std::to_string(request.profile_iterations);
  result_key += '|';
  result_key += device.name;
  // A name alone does not identify a device: custom what-if entries may
  // reuse a name with different geometry, and the verdict depends on it.
  result_key += '#';
  result_key += std::to_string(device.capacity);
  result_key += '/';
  result_key += std::to_string(device.m_init);
  result_key += '/';
  result_key += std::to_string(device.m_fm);
  result_key += '|';
  result_key += spec.allocator;
  const alloc::BackendKnobs& knobs =
      knobs_for(request.allocator_config, spec.allocator);
  if (!knobs.empty()) {
    // Same backend under different knobs is a different question.
    result_key += '{';
    result_key += alloc::knobs_fingerprint(knobs);
    result_key += '}';
  }
  result_key += request.record_curve ? "|curve" : "";

  EstimateEntry cached;
  if (result_cache_get(result_key, cached)) {
    counters.result_cache_hits.fetch_add(1);
    cached.timings.result_cache_hit = true;
    return cached;
  }

  const auto entry_start = std::chrono::steady_clock::now();
  EstimateEntry entry;
  entry.estimator = spec.estimator;
  entry.device = device.name;
  entry.allocator = spec.allocator;
  entry.device_job_budget = device.job_budget();

  if (spec.session_backed) {
    const ProfileSession::Lookup lookup = lookup_profile(
        request.job, estimator_orchestrates(spec.estimator),
        request.profile_iterations, request.tenant, counters);

    const auto replay_start = std::chrono::steady_clock::now();
    MemorySimulator simulator;
    SimulationOptions sim_options;
    sim_options.backend = spec.allocator;
    sim_options.backend_knobs = knobs;
    sim_options.record_series = request.record_curve;
    // Worker-thread-lifetime scratch: consecutive entries on this thread
    // reset the allocator tower instead of rebuilding it (byte-identical
    // results per the backend_reset() contract, so the report stays
    // independent of how entries land on threads).
    thread_local ReplayScratch replay_scratch;
    const SimulationResult simulation = simulator.replay(
        lookup.artifacts->orchestration.sequence, sim_options,
        &replay_scratch);
    counters.replays_run.fetch_add(1);

    entry.estimated_peak = simulation.peak_device;
    entry.oom_predicted = entry.estimated_peak > device.job_budget();
    entry.has_orchestrator_stats = true;
    entry.orchestrator_stats = lookup.artifacts->orchestration.stats;
    if (request.record_curve) entry.reserved_curve = simulation.reserved_series;

    entry.timings.profile_cache_hit = lookup.cache_hit;
    if (!lookup.cache_hit) {
      entry.timings.profile_seconds = lookup.artifacts->profile_seconds;
      entry.timings.analyze_seconds = lookup.artifacts->analyze_seconds;
    }
    entry.timings.simulate_seconds = seconds_since(replay_start);
    entry.timings.total_seconds = seconds_since(entry_start);
  } else {
    Estimator& estimator = estimator_instance(spec.estimator);
    const EstimateResult result = estimator.estimate(request.job, device);
    entry.supported = result.supported;
    entry.estimated_peak = result.supported ? result.estimated_peak : 0;
    entry.oom_predicted = result.supported && result.oom_predicted;
    // The uniform wrapper clock (estimator_api.h), so lazy estimator
    // construction (SchedTune's one-time GBM training) is not charged to
    // the entry that happened to trigger it.
    entry.timings.total_seconds = result.runtime_seconds;
  }

  result_cache_put(result_key, entry);
  return entry;
}

void EstimationService::validate(const std::string& context,
                                 const EstimateRequest& request) {
  if (request.devices.empty()) {
    throw std::invalid_argument(context + ": request has no devices");
  }
  if (!models::is_known_model(request.job.model_name)) {
    throw std::invalid_argument(context + ": unknown model '" +
                                request.job.model_name + "'");
  }
  for (const std::string& allocator : request.allocators) {
    if (!alloc::is_known_backend(allocator)) {
      throw std::invalid_argument(context + ": unknown allocator '" +
                                  allocator + "'");
    }
  }
  validate_allocator_config(request.allocator_config, context);
  for (const std::string& estimator : request.estimators) {
    if (!is_known_estimator(estimator)) {
      throw std::invalid_argument(context + ": unknown estimator '" +
                                  estimator + "'");
    }
  }
}

std::vector<EstimateEntry> EstimationService::run_entries(
    const EstimateRequest& request, SweepCounters& counters) {
  // Fix the (deterministic) entry order up front; workers fill slots.
  std::vector<EntrySpec> specs;
  for (const std::string& estimator : request.estimators) {
    const bool session_backed = estimator_uses_session(estimator);
    for (std::size_t d = 0; d < request.devices.size(); ++d) {
      if (session_backed) {
        for (const std::string& allocator : request.allocators) {
          specs.push_back(EntrySpec{estimator, d, allocator, true});
        }
      } else {
        specs.push_back(EntrySpec{estimator, d, std::string(), false});
      }
    }
  }
  std::vector<EstimateEntry> entries(specs.size());
  run_fanned(specs.size(), [&](std::size_t i) {
    entries[i] = run_entry(request, specs[i], counters);
  });
  return entries;
}

EstimateReport EstimationService::sweep(const EstimateRequest& request) {
  const auto sweep_start = std::chrono::steady_clock::now();
  EstimateRequest normalized = request;
  if (normalized.allocators.empty()) {
    normalized.allocators = {alloc::kDefaultBackendName};
  }
  if (normalized.estimators.empty()) normalized.estimators = {"xMem"};
  validate("sweep", normalized);

  EstimateReport report;
  report.job = request.job;
  SweepCounters counters;
  report.entries = run_entries(normalized, counters);
  counters.copy_to(report);
  report.wall_seconds = seconds_since(sweep_start);
  return report;
}

PlanReport EstimationService::plan(const PlanRequest& request) {
  const auto plan_start = std::chrono::steady_clock::now();
  // The single-device baseline: one xMem replay per candidate device under
  // the plan's allocator, asked as a sweep so it validates and fans out
  // exactly like one.
  EstimateRequest baseline;
  baseline.job = request.job;
  baseline.devices = request.devices;
  baseline.allocators = {request.allocator};
  baseline.allocator_config = request.allocator_config;
  baseline.profile_iterations = request.profile_iterations;
  baseline.tenant = request.tenant;
  validate("plan", baseline);

  PlanReport report;
  report.job = request.job;
  report.devices = request.devices;
  report.comm_overlap = request.comm_overlap;
  SweepCounters counters;
  // The first baseline entry to arrive pays for the profile; in-flight
  // dedup keeps the others from profiling twice.
  report.single_device_entries = run_entries(baseline, counters);
  // By now the profile is resident (or, when every baseline entry came from
  // the result cache, this lookup is the one that runs it), so the whole
  // search costs ONE profile.
  const ProfileSession::Lookup lookup =
      lookup_profile(request.job, estimator_orchestrates("xMem"),
                     request.profile_iterations, request.tenant, counters);
  const std::vector<ComponentProfile> profiles =
      per_component_profile(lookup.artifacts->analysis.timeline);

  rank_grid(request, profiles, report);
  refine(request, lookup.artifacts->orchestration.sequence, profiles, report);
  if (request.comm_overlap) rerank(report);
  // The cap trims the report only: it runs after refine and re-rank, so it
  // never limits which candidates replay or where they rank.
  if (request.max_candidates > 0 &&
      report.candidates.size() > request.max_candidates) {
    report.candidates.resize(request.max_candidates);
  }
  counters.copy_to(report);
  report.wall_seconds = seconds_since(plan_start);
  return report;
}

void EstimationService::rank_grid(
    const PlanRequest& request, const std::vector<ComponentProfile>& profiles,
    PlanReport& report) {
  DistributedPlanner planner;
  report.single_device_peak = planner.single_device_peak(profiles);
  const std::vector<Decomposition> decompositions =
      DistributedPlanner::enumerate_decompositions(
          request.max_gpus, static_cast<int>(profiles.size()));
  report.candidates_evaluated = decompositions.size();
  report.candidates.resize(decompositions.size());

  run_fanned(decompositions.size(), [&](std::size_t i) {
    HybridOptions options;
    options.data_parallel = decompositions[i].data_parallel;
    options.tensor_parallel = decompositions[i].tensor_parallel;
    options.pipeline_stages = decompositions[i].pipeline_stages;
    options.micro_batches = request.micro_batches;
    options.schedule = request.schedule;
    options.virtual_stages = request.virtual_stages;
    options.zero = request.zero;
    options.ddp_bucket_bytes = request.ddp_bucket_bytes;
    options.ddp_bucket_count = request.ddp_bucket_count;
    options.tensor.activation_replication_pct =
        request.activation_replication_pct;
    PlanCandidate& candidate = report.candidates[i];
    candidate.plan = planner.plan_hybrid(profiles, options);
    const std::int64_t peak = candidate.plan.per_rank_peak;
    candidate.savings_pct = -percent_change(report.single_device_peak, peak);
    candidate.splitting_helps = peak < report.single_device_peak;
    candidate.fits_count =
        judge_fits(peak, request.devices, candidate.device_fits);
  });
  sort_best_first(report.candidates, report.candidates.size(),
                  /*replayed=*/false);
}

void EstimationService::refine(const PlanRequest& request,
                               const OrchestratedSequence& sequence,
                               const std::vector<ComponentProfile>& profiles,
                               PlanReport& report) {
  // Replay the top-K ranked candidates (or, under refine_all, every one)
  // through the allocator tower, each distinct stage of the plan once. The
  // transformer binds the ONE cached orchestrated sequence.
  //
  // Symmetric-rank collapse: a candidate's replayed peaks cover all d*t*p
  // deployment ranks, but the transform has no DP/TP rank index — the d*t
  // siblings of a pipeline stage replay byte-identical sequences — so only
  // the p stage sequences are simulated and each stage verdict is fanned
  // across its siblings. Across candidates and collective modes, stages
  // are keyed on the transform's exact inputs (StageKey): equal keys give
  // equal sequences by construction, so each distinct key is transformed,
  // fingerprinted and replayed once. request.dedup_replays = false
  // replays every deployment rank one by one — the naive baseline — and
  // must yield a byte-identical report.
  //
  // Clamp before the size_t cast: a negative refine_top_k reaching here
  // through the C++ API (the JSON path rejects it) means "disabled", not
  // "refine everything" via wraparound.
  const std::size_t count =
      request.refine_all
          ? report.candidates.size()
          : std::min<std::size_t>(
                static_cast<std::size_t>(std::max(request.refine_top_k, 0)),
                report.candidates.size());
  report.replayed_candidates = count;
  if (count == 0) return;

  const SequenceTransformer transformer(sequence, profiles);
  // The transform options one plan holds fixed; d, t and the collective
  // mode travel in each stage key.
  RankTransformOptions transform;
  transform.micro_batches = request.micro_batches;
  transform.zero = request.zero;
  transform.ddp_bucket_bytes = request.ddp_bucket_bytes;
  transform.ddp_bucket_count = request.ddp_bucket_count;
  transform.tensor.activation_replication_pct =
      request.activation_replication_pct;
  transform.materialize_blocks = false;  // events are all the replay needs
  SimulationOptions sim_options;
  sim_options.backend = request.allocator;
  sim_options.backend_knobs =
      knobs_for(request.allocator_config, request.allocator);

  // Key every (candidate, mode, stage) on the calling thread: one replay
  // per distinct key, or — dedup off — one per stage, simulated once per
  // symmetric sibling.
  struct StageReplay {
    StageKey key;
    std::size_t repeats = 1;
    std::uint64_t fingerprint = 0;  ///< feeds the counters only
    std::int64_t peak = 0;
  };
  struct CandidateStages {
    std::vector<std::size_t> resident;  ///< comm_overlap baseline
    std::vector<std::size_t> replayed;  ///< the ranking replays
    std::size_t symmetric = 1;          ///< d*t siblings per stage
  };
  std::vector<StageReplay> replays;
  std::unordered_map<StageKey, std::size_t, StageKeyHash> replay_of;
  std::vector<CandidateStages> plan_stages(count);
  for (std::size_t i = 0; i < count; ++i) {
    const HybridPlan& plan = report.candidates[i].plan;
    CandidateStages& stages = plan_stages[i];
    stages.symmetric = static_cast<std::size_t>(
        std::max(1, plan.data_parallel) * std::max(1, plan.tensor_parallel));
    RankTransformOptions options = transform;
    options.data_parallel = plan.data_parallel;
    options.tensor_parallel = plan.tensor_parallel;
    const std::size_t ranks = std::max<std::size_t>(plan.rank_peaks.size(), 1);
    const auto key_stages = [&](bool window, std::vector<std::size_t>& ids) {
      options.comm_overlap = window;
      for (std::size_t s = 0; s < ranks; ++s) {
        StageKey key = transformer.stage_key(options, plan.stages, ranks, s);
        if (!request.dedup_replays) {
          ids.push_back(replays.size());
          replays.push_back({std::move(key), stages.symmetric});
          continue;
        }
        const auto it = replay_of.find(key);
        if (it != replay_of.end()) {
          ids.push_back(it->second);
          continue;
        }
        ids.push_back(replays.size());
        replays.push_back({key});
        replay_of.emplace(std::move(key), ids.back());
      }
    };
    // Overlap-window mode replays every stage twice — resident for the
    // baseline, then with schedule-tied windows — so the report can state
    // what the windows saved (window_vs_resident_pct).
    if (request.comm_overlap) key_stages(false, stages.resident);
    key_stages(request.comm_overlap, stages.replayed);
  }

  run_fanned(replays.size(), [&](std::size_t j) {
    // Worker-thread-lifetime scratch: every replay this thread picks up
    // reuses the transform buffers AND the allocator tower, which is reset
    // — not rebuilt — between replays. The backend_reset() contract
    // (fw/backend.h) makes each replay byte-identical to a fresh-tower
    // replay, so the report stays deterministic regardless of how replays
    // land on threads.
    thread_local RankScratch scratch;
    thread_local ReplayScratch replay_scratch;
    StageReplay& replay = replays[j];
    const OrchestratedSequence& rank =
        transformer.rank_sequence(transform, replay.key, scratch);
    replay.fingerprint = sequence_fingerprint(rank);
    const MemorySimulator simulator;
    for (std::size_t r = 0; r < replay.repeats; ++r) {
      replay.peak = simulator.replay(rank, sim_options, &replay_scratch)
                        .peak_device;
    }
  });

  for (std::size_t i = 0; i < count; ++i) {
    PlanCandidate& candidate = report.candidates[i];
    const CandidateStages& stages = plan_stages[i];
    // Fan each stage peak across its d*t symmetric siblings in stage-major
    // order and return the worst rank.
    const auto fan = [&](const std::vector<std::size_t>& ids,
                         std::vector<std::int64_t>& rank_peaks) {
      rank_peaks.assign(ids.size() * stages.symmetric, 0);
      for (std::size_t s = 0; s < ids.size(); ++s) {
        std::fill_n(rank_peaks.begin() + static_cast<std::ptrdiff_t>(
                                             s * stages.symmetric),
                    stages.symmetric, replays[ids[s]].peak);
      }
      return *std::max_element(rank_peaks.begin(), rank_peaks.end());
    };
    if (request.comm_overlap) {
      candidate.window_mode = true;
      candidate.resident_per_rank_peak =
          fan(stages.resident, candidate.resident_rank_peaks);
    }
    candidate.replayed = true;
    candidate.replayed_per_rank_peak =
        fan(stages.replayed, candidate.replayed_rank_peaks);
    candidate.window_vs_resident_pct = percent_change(
        candidate.resident_per_rank_peak, candidate.replayed_per_rank_peak);
    candidate.analytic_vs_replayed_pct = percent_change(
        candidate.plan.per_rank_peak, candidate.replayed_per_rank_peak);
    candidate.replayed_fits_count =
        judge_fits(candidate.replayed_per_rank_peak, request.devices,
                   candidate.replayed_device_fits);
    candidate.verdict_changed =
        candidate.replayed_device_fits != candidate.device_fits;
  }

  // Refinement-cost counters: a deterministic post-pass over the stage
  // fingerprints in (candidate, resident-before-window, stage) order,
  // independent of thread interleaving and of whether dedup ran
  // (dedup_replays = false pays the naive cost but reports the same
  // schedule). Each stage stands for its d*t symmetric deployment ranks:
  // the first sighting of a sequence is one real replay (rank_replays) and
  // m-1 collapsed siblings; a repeat within the candidate collapses all m
  // onto the earlier verdict; a repeat across candidates/modes reuses an
  // earlier replay (replay_cache_hits) plus m-1 collapsed siblings.
  std::unordered_set<std::uint64_t> seen;
  std::unordered_set<std::uint64_t> candidate_seen;
  for (const CandidateStages& stages : plan_stages) {
    candidate_seen.clear();
    const auto account = [&](std::size_t id) {
      const std::uint64_t fingerprint = replays[id].fingerprint;
      if (!candidate_seen.insert(fingerprint).second) {
        report.replays_deduped += stages.symmetric;
        return;
      }
      if (seen.insert(fingerprint).second) {
        ++report.rank_replays_run;
      } else {
        ++report.replay_cache_hits;
      }
      report.replays_deduped += stages.symmetric - 1;
    };
    for (const std::size_t id : stages.resident) account(id);
    for (const std::size_t id : stages.replayed) account(id);
  }
}

void EstimationService::rerank(PlanReport& report) {
  // Overlap-window mode: the replayed peaks are the ranking, not an
  // annotation. Re-sort the refined prefix by the window-replayed verdicts
  // (rank_key with the replayed fields); the unrefined tail keeps its
  // analytic order behind it. Runs on the calling thread after the
  // fan-out barrier, so serial and threaded searches stay byte-identical.
  const auto key_of = [](const PlanCandidate& c) {
    return std::make_tuple(c.plan.data_parallel, c.plan.tensor_parallel,
                           c.plan.pipeline_stages);
  };
  const std::size_t count = report.replayed_candidates;
  std::vector<std::tuple<int, int, int>> before;
  before.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    before.push_back(key_of(report.candidates[i]));
  }
  sort_best_first(report.candidates, count, /*replayed=*/true);
  for (std::size_t i = 0; i < count; ++i) {
    if (key_of(report.candidates[i]) != before[i]) ++report.rerank_changed;
  }
}

EstimateEntry EstimationService::estimate(const std::string& estimator_name,
                                          const TrainJob& job,
                                          const gpu::DeviceModel& device,
                                          const std::string& allocator,
                                          int profile_iterations,
                                          bool record_curve) {
  EstimateRequest request;
  request.job = job;
  request.devices = {device};
  request.allocators = {allocator};
  request.estimators = {estimator_name};
  request.profile_iterations = profile_iterations;
  request.record_curve = record_curve;

  if (!is_known_estimator(estimator_name)) {
    throw std::invalid_argument("estimate: unknown estimator '" +
                                estimator_name + "'");
  }
  const bool session_backed = estimator_uses_session(estimator_name);
  EntrySpec spec{estimator_name, 0, session_backed ? allocator : std::string(),
                 session_backed};
  SweepCounters counters;
  return run_entry(request, spec, counters);
}

}  // namespace xmem::core
