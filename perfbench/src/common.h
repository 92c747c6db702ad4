// Shared pieces of the benchmark: input generation, the correctness
// oracle, ground truth, and the result every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/estimation_service.h"
#include "sched/fleet_planner.h"
#include "spans.h"
#include "stats.h"
#include "util/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// SplitMix64: the benchmark's own generator, so its inputs depend only on
/// the seed and this file, never on the program's RNG. The starting state
/// is a mix of (seed, stream): consecutive seeds must not give streams that
/// are one step apart, which a raw SplitMix64 state would.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(mix(seed * 0xD1B54A32D192ED03ULL + mix(stream))) {}
  std::uint64_t next() { return mix(state_ += 0x9E3779B97F4A7C15ULL); }
  /// Uniform in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % static_cast<std::uint64_t>(n));
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[below(i)]);
    }
  }

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t state_;
};

xmem::core::TrainJob make_job(const char* model, int batch,
                              xmem::fw::OptimizerKind optimizer,
                              std::uint64_t seed);

/// The six allocator backends of the registry, in a fixed order so metric
/// names do not depend on registry iteration order.
const std::vector<std::string>& backend_list();
/// The packing policies measured per policy.
const std::vector<std::string>& policy_list();

/// The cold-job list: one fixed draw of two (batch, optimizer) pairs per
/// zoo model from its Table 2 grid. The run's seed only orders it and
/// numbers the jobs, so every pass over it is the same multiset and the
/// latency and accuracy figures of two runs describe the same work.
const std::vector<xmem::core::TrainJob>& zoo_job_list();
/// The list in a seeded order; `first_job_seed` numbers the jobs so each
/// one is new to every cache.
std::vector<xmem::core::TrainJob> draw_zoo_round(Rng& rng,
                                                 std::uint64_t first_job_seed);

/// The five fleet archetypes every fleet pack draws its 1000-job queue from.
std::vector<xmem::core::TrainJob> fleet_archetypes();
/// A 1000-job queue over the archetypes onto three pools of the given sizes.
xmem::sched::FleetRequest fleet_request(const std::string& policy,
                                        int rtx3060, int rtx4060, int a100,
                                        int headroom_pct);

/// FNV-1a 64 digest of the deterministic payload of a sweep/plan/fleet
/// report: its JSON without timings and without the counters that only
/// describe cache state (how many profiles, replays and result-cache hits
/// this particular service instance needed). Everything the caller acts on
/// stays, so two services agree on it however warm their caches are.
std::uint64_t payload_digest(xmem::util::Json report);

/// Ground-truth peak of a job on the simulated GPU with no capacity limit
/// (the estimate is unbounded too, so the two compare like for like).
std::int64_t ground_truth_peak(const xmem::core::TrainJob& job);

/// Peak resident set of this process (VmHWM) in MiB.
double peak_rss_mb();

/// Run `task(i)` for i in [0, count) on `threads` threads; rethrows the
/// first failure after all threads finished.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& task);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where sockets and the span file go
};

/// Everything one run measured.
struct RunResult {
  std::vector<double> setup_seconds;  ///< one per set-up repetition
  std::vector<double> latencies_ms;   ///< completed operations only
  /// Throughput's denominator: the summed operation time of a closed loop,
  /// the wall time of an open one.
  double busy_seconds = 0.0;
  std::size_t completed = 0;
  FailureCounts failures;
  std::vector<double> rel_error_pct;  ///< |estimate - truth| / truth
  std::size_t unsafe = 0;             ///< estimates below the truth
  double peak_rss_mb = 0.0;
  xmem::util::Json info = xmem::util::Json::object();
  std::map<std::string, double> layer;       ///< traced run only
  /// How a per-layer figure was obtained where that is not obvious.
  std::map<std::string, std::string> notes;
};

/// part / whole, or 0 when whole is 0.
inline double ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

/// How much slower the traced half of an alternating loop ran, in %.
inline double overhead_pct(const std::vector<double>& traced,
                           const std::vector<double>& plain) {
  const double base = median(plain);
  return base > 0 ? 100.0 * (median(traced) - base) / base : 0.0;
}

/// Accuracy sample: one estimate against the job's ground truth.
inline void add_accuracy(RunResult& result, std::int64_t estimate,
                         std::int64_t truth) {
  if (truth <= 0) return;
  const double diff = static_cast<double>(estimate - truth);
  result.rel_error_pct.push_back(100.0 * (diff < 0 ? -diff : diff) /
                                 static_cast<double>(truth));
  if (estimate < truth) ++result.unsafe;
}

RunResult run_cold_sweep(const Options& options, SpanLog& spans);
RunResult run_plan_refine_all(const Options& options, SpanLog& spans);
RunResult run_serve_mixed(const Options& options, SpanLog& spans);

/// Traced-run layer decomposition shared by every workload (layers.cpp).
struct LayerInputs {
  std::vector<xmem::core::TrainJob> cold_jobs;  ///< jobs for the cold path
  std::vector<xmem::core::TrainJob> plan_jobs;  ///< jobs for plan layers
  /// Reports of the workload's own operations, for the JSON layer.
  std::vector<xmem::util::Json> reports;
  std::vector<std::string> request_texts;  ///< request envelopes as sent
  std::string socket_path;  ///< a running daemon, or empty to start one
};
/// Decompose the layers; returns false when a layer-by-layer peak differs
/// from the service's peak for the same job.
bool measure_layers(const LayerInputs& inputs, const Options& options,
                    SpanLog& spans, RunResult& result);

}  // namespace perfbench
