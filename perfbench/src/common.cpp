#include "common.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "fw/model.h"
#include "gpu/ground_truth.h"
#include "models/workload.h"
#include "models/zoo.h"
#include "sched/fleet_planner.h"

namespace perfbench {

using namespace xmem;

core::TrainJob make_job(const char* model, int batch,
                        fw::OptimizerKind optimizer, std::uint64_t seed) {
  core::TrainJob job;
  job.model_name = model;
  job.batch_size = batch;
  job.optimizer = optimizer;
  job.seed = seed;
  return job;
}

const std::vector<std::string>& backend_list() {
  static const std::vector<std::string> names = {
      "pytorch",    "pytorch-expandable", "tf-bfc",
      "cub-binned", "stream-pool",        "basic-bfc"};
  return names;
}

const std::vector<std::string>& policy_list() {
  static const std::vector<std::string> names = {
      "first-fit", "best-fit-decreasing", "whole-gpu"};
  return names;
}

const std::vector<core::TrainJob>& zoo_job_list() {
  // Two (batch, optimizer) pairs per model, drawn once with a fixed seed.
  static const std::vector<core::TrainJob> jobs = [] {
    Rng draw(2025, 0);
    std::vector<core::TrainJob> out;
    for (const std::string& name : models::all_model_names()) {
      const std::vector<int> grid = models::batch_grid_for(name);
      const std::vector<fw::OptimizerKind> optimizers =
          models::optimizers_for(name);
      for (int k = 0; k < 2; ++k) {
        core::TrainJob job;
        job.model_name = name;
        job.batch_size = grid[draw.below(grid.size())];
        job.optimizer = optimizers[draw.below(optimizers.size())];
        out.push_back(job);
      }
    }
    return out;
  }();
  return jobs;
}

std::vector<core::TrainJob> draw_zoo_round(Rng& rng,
                                           std::uint64_t first_job_seed) {
  std::vector<core::TrainJob> jobs = zoo_job_list();
  rng.shuffle(jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].seed = first_job_seed + i;
  }
  return jobs;
}

/// The five fleet archetypes every fleet pack draws its queue from.
std::vector<core::TrainJob> fleet_archetypes() {
  using fw::OptimizerKind;
  return {make_job("distilgpt2", 5, OptimizerKind::kAdamW, 1),
          make_job("distilgpt2", 10, OptimizerKind::kSgd, 1),
          make_job("gpt2", 5, OptimizerKind::kAdamW, 1),
          make_job("MobileNetV2", 200, OptimizerKind::kSgd, 1),
          make_job("T5-small", 5, OptimizerKind::kAdamW, 1)};
}

sched::FleetRequest fleet_request(const std::string& policy, int rtx3060,
                                  int rtx4060, int a100, int headroom_pct) {
  const std::vector<core::TrainJob> archetypes = fleet_archetypes();
  sched::FleetRequest request;
  for (int i = 0; i < 1000; ++i) {
    sched::FleetJob job;
    job.id = "job-" + std::to_string(i);
    job.job = archetypes[std::size_t(i) % archetypes.size()];
    job.priority = i % 7 == 0 ? 1 : 0;
    request.jobs.push_back(job);
  }
  request.pools = {{gpu::rtx3060(), rtx3060},
                   {gpu::rtx4060(), rtx4060},
                   {gpu::a100_40gb(), a100}};
  request.policy = policy;
  request.headroom.base.percent = headroom_pct;
  request.max_gpus_per_job = 1;
  return request;
}

namespace {

void strip_cache_counters(util::Json& json) {
  static const char* const kCacheState[] = {
      "profiles_run", "profile_cache_hits", "replays_run",
      "result_cache_hits", "wall_seconds", "timings"};
  if (json.is_object()) {
    util::JsonObject& object = json.as_object();
    for (const char* key : kCacheState) object.erase(key);
    for (auto& [key, value] : object) strip_cache_counters(value);
  } else if (json.is_array()) {
    for (util::Json& value : json.as_array()) strip_cache_counters(value);
  }
}

}  // namespace

std::uint64_t payload_digest(util::Json report) {
  strip_cache_counters(report);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : report.dump()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::int64_t ground_truth_peak(const core::TrainJob& job) {
  const fw::ModelDescriptor model =
      models::build_model(job.model_name, job.batch_size);
  gpu::GroundTruthOptions options;
  options.placement = job.placement;
  options.seed = job.seed;
  options.budget_override = std::int64_t{1} << 50;
  const gpu::GroundTruthResult truth =
      gpu::GroundTruthRunner().run(model, job.optimizer, gpu::a100_40gb(),
                                   options);
  return truth.oom ? -1 : truth.peak_job_bytes;
}

double peak_rss_mb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(file);
  return kib / 1024.0;
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& task) {
  std::mutex mutex;  // guards next and first_error
  std::size_t next = 0;
  std::exception_ptr first_error;
  const auto worker = [&] {
    while (true) {
      std::size_t index = 0;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (next >= count || first_error) return;
        index = next++;
      }
      try {
        task(index);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace perfbench
