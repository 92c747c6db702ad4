// Traced-run layer decomposition. Every number here comes from timing a
// call into one layer's public functions from outside, on the workload's
// own generated inputs, inside a span. The spans stay in memory and are
// written as a Chrome trace at exit (main.cpp).
#include <unistd.h>

#include <algorithm>
#include <memory>

#include "common.h"
#include "core/analyzer.h"
#include "core/distributed_planner.h"
#include "core/orchestrator.h"
#include "core/profile_runner.h"
#include "core/sequence_transform.h"
#include "core/simulator.h"
#include "models/zoo.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

using namespace xmem;

namespace {

/// Op ids of the decomposition, apart from the workload loop's ids.
constexpr std::int64_t kLayerOpBase = 1'000'000;

/// Cold path, layer by layer: fw profile -> trace write -> trace parse ->
/// Analyzer -> Orchestrator -> one replay per backend. Each job is checked
/// against the service: the layer-by-layer peak must equal its peak.
bool measure_cold_path(const LayerInputs& inputs, SpanLog& spans,
                       RunResult& result) {
  std::vector<double> profile_ms, events, write_ms, parse_ms, bytes,
      analyzer_ms, blocks, orchestrator_ms, sweep_ms, unattributed_ms;
  std::map<std::string, std::vector<double>> replay_ms;
  double total_bytes = 0, total_write = 0, total_parse = 0;
  double total_path = 0, replay_events = 0, replay_total_ms = 0;
  bool peaks_match = true;
  core::EstimationService checker;
  const std::vector<gpu::DeviceModel> devices = gpu::all_devices();
  std::int64_t op = kLayerOpBase;
  for (const core::TrainJob& job : inputs.cold_jobs) {
    const std::int64_t root = spans.open("layer.cold_path", op);
    trace::Trace trace;
    std::string json;
    trace::Trace parsed;
    core::Analyzer::Output analysis;
    core::Orchestrator::Output orchestration;
    const double t_profile = spans.timed("fw.profile", op, root, [&] {
      core::ProfileOptions profile_options;
      profile_options.placement = job.placement;
      profile_options.seed = job.seed;
      trace = core::profile_on_cpu(
          models::build_model(job.model_name, job.batch_size), job.optimizer,
          profile_options);
    });
    const double t_write = spans.timed("trace.write", op, root,
                                       [&] { json = trace.to_json_string(); });
    const double t_parse = spans.timed("trace.parse", op, root, [&] {
      parsed = trace::Trace::from_json_string(json);
    });
    const double t_analyze = spans.timed("core.analyzer", op, root, [&] {
      analysis = core::Analyzer().analyze(parsed);
    });
    const double t_orchestrate =
        spans.timed("core.orchestrator", op, root, [&] {
          orchestration = core::Orchestrator().orchestrate(
              analysis.timeline, core::OrchestratorConfig{});
        });
    std::map<std::string, std::int64_t> peaks;
    double t_replay_pytorch = 0.0;
    for (const std::string& backend : backend_list()) {
      core::SimulationOptions sim;
      sim.backend = backend;
      const double t = spans.timed("core.simulator." + backend, op, root, [&] {
        peaks[backend] =
            core::MemorySimulator().replay(orchestration.sequence, sim)
                .peak_device;
      });
      replay_ms[backend].push_back(t);
      replay_events += double(orchestration.sequence.events.size());
      replay_total_ms += t;
      if (backend == "pytorch") t_replay_pytorch = t;
    }
    spans.close(root);

    // The service on the same job, cold: its latency for the unattributed
    // remainder, and its peaks for the layer-by-layer equality check.
    core::EstimateRequest request;
    request.job = job;
    request.devices = devices;
    core::EstimateReport report;
    sweep_ms.push_back(spans.timed("service.sweep.cold", op, -1, [&] {
      report = checker.sweep(request);
    }));
    for (const core::EstimateEntry& entry : report.entries) {
      peaks_match = peaks_match && entry.estimated_peak == peaks["pytorch"];
    }
    for (const std::string& backend : backend_list()) {
      const core::EstimateEntry entry =
          checker.estimate("xMem", job, devices.back(), backend);
      peaks_match = peaks_match && entry.estimated_peak == peaks[backend];
    }

    profile_ms.push_back(t_profile);
    events.push_back(double(trace.size()));
    write_ms.push_back(t_write);
    parse_ms.push_back(t_parse);
    bytes.push_back(double(json.size()));
    analyzer_ms.push_back(t_analyze);
    blocks.push_back(double(analysis.timeline.blocks.size()));
    orchestrator_ms.push_back(t_orchestrate);
    total_bytes += double(json.size());
    total_write += t_write;
    total_parse += t_parse;
    const double path = t_profile + t_write + t_parse + t_analyze +
                        t_orchestrate + t_replay_pytorch;
    total_path += path;
    unattributed_ms.push_back(sweep_ms.back() - path);
    ++op;
  }

  auto& layer = result.layer;
  layer["profile.ms"] = median(profile_ms);
  layer["profile.events"] = median(events);
  layer["trace.write_ms"] = median(write_ms);
  layer["trace.parse_ms"] = median(parse_ms);
  layer["trace.bytes"] = median(bytes);
  layer["trace.write_mb_s"] = ratio(total_bytes / 1e6, total_write / 1e3);
  layer["trace.parse_mb_s"] = ratio(total_bytes / 1e6, total_parse / 1e3);
  layer["trace.cold_path_share_pct"] =
      100.0 * ratio(total_write + total_parse, total_path);
  layer["analyzer.ms"] = median(analyzer_ms);
  layer["analyzer.blocks"] = median(blocks);
  layer["orchestrator.ms"] = median(orchestrator_ms);
  for (const std::string& backend : backend_list()) {
    layer["replay." + backend + ".ms"] = median(replay_ms[backend]);
  }
  layer["replay.events_per_s"] =
      ratio(replay_events, replay_total_ms / 1e3);
  layer["service.unattributed_ms"] = median(unattributed_ms);
  result.notes["layer.cold_path"] =
      "medians over " + std::to_string(profile_ms.size()) +
      " of the workload's jobs; service.unattributed_ms is the median over "
      "those jobs of a cold service sweep minus the same job's layer sum "
      "(one pytorch replay, since a sweep replays its devices in parallel); "
      "medians of parts do not add, so the per-job difference is used";
  return peaks_match;
}

/// Plan phases (analytic, refine-all) through the service, and the
/// rank-sequence transform called directly on the same decompositions.
void measure_plan(const LayerInputs& inputs, SpanLog& spans,
                  RunResult& result) {
  std::vector<double> analytic_ms, refine_ms, transform_ms;
  double rank_replays = 0, deduped = 0, cache_hits = 0, sequences = 0;
  core::ServiceOptions service_options;
  service_options.result_cache_capacity = 0;
  core::EstimationService service(service_options);
  std::int64_t op = kLayerOpBase + 10'000;
  for (const core::TrainJob& job : inputs.plan_jobs) {
    core::PlanRequest request;
    request.job = job;
    request.devices = gpu::all_devices();
    request.max_gpus = 64;
    core::EstimateRequest prime;
    prime.job = job;
    prime.devices = request.devices;
    service.sweep(prime);

    request.refine_top_k = 0;
    std::vector<double> analytic;
    for (int rep = 0; rep < 3; ++rep) {
      analytic.push_back(spans.timed("plan.analytic", op, -1,
                                     [&] { service.plan(request); }));
    }
    request.refine_all = true;
    core::PlanReport report;
    const double refine = spans.timed("plan.refine_all", op, -1,
                                      [&] { report = service.plan(request); });
    analytic_ms.push_back(median(analytic));
    refine_ms.push_back(refine - median(analytic));
    rank_replays += double(report.rank_replays_run);
    deduped += double(report.replays_deduped);
    cache_hits += double(report.replay_cache_hits);

    // Transform: the same profile, decompositions and options the plan
    // used; a deterministic sample of about 300 rank sequences is timed.
    core::ProfileKey key;
    key.model_name = job.model_name;
    key.batch_size = job.batch_size;
    key.optimizer = job.optimizer;
    key.placement = job.placement;
    key.seed = job.seed;
    const core::ProfileArtifacts artifacts = core::run_profile_pipeline(key);
    const std::vector<core::ComponentProfile> profiles =
        core::per_component_profile(artifacts.analysis.timeline);
    const core::SequenceTransformer transformer(
        artifacts.orchestration.sequence, profiles);
    const core::DistributedPlanner planner;
    std::vector<core::HybridPlan> plans;
    std::size_t total = 0;
    for (const core::Decomposition& d :
         core::DistributedPlanner::enumerate_decompositions(
             request.max_gpus, static_cast<int>(profiles.size()))) {
      core::HybridOptions options;
      options.data_parallel = d.data_parallel;
      options.tensor_parallel = d.tensor_parallel;
      options.pipeline_stages = d.pipeline_stages;
      options.micro_batches = request.micro_batches;
      plans.push_back(planner.plan_hybrid(profiles, options));
      total += std::max<std::size_t>(plans.back().rank_peaks.size(), 1);
    }
    sequences += double(total);
    const std::size_t stride = std::max<std::size_t>(1, total / 300);
    core::RankScratch scratch;
    std::size_t index = 0;
    const std::int64_t span = spans.open("core.sequence_transform", op);
    for (const core::HybridPlan& plan : plans) {
      core::RankTransformOptions transform;
      transform.data_parallel = plan.data_parallel;
      transform.tensor_parallel = plan.tensor_parallel;
      transform.micro_batches = request.micro_batches;
      transform.ddp_bucket_bytes = request.ddp_bucket_bytes;
      transform.ddp_bucket_count = request.ddp_bucket_count;
      transform.tensor.activation_replication_pct =
          request.activation_replication_pct;
      transform.materialize_blocks = false;
      const std::size_t stages =
          std::max<std::size_t>(plan.rank_peaks.size(), 1);
      for (std::size_t s = 0; s < stages; ++s, ++index) {
        if (index % stride != 0) continue;
        const auto start = Clock::now();
        transformer.rank_sequence(transform, plan.stages, stages, s, scratch);
        transform_ms.push_back(ms_between(start, Clock::now()));
      }
    }
    spans.close(span);
    ++op;
  }
  auto& layer = result.layer;
  layer["plan.analytic_ms"] = median(analytic_ms);
  layer["plan.refine_ms"] = median(refine_ms);
  layer["plan.rank_replays_run"] = rank_replays;
  layer["plan.replays_deduped"] = deduped;
  layer["plan.replay_cache_hits"] = cache_hits;
  layer["plan.distinct_replay_ratio"] =
      ratio(rank_replays, rank_replays + deduped + cache_hits);
  layer["transform.ms"] = median(transform_ms);
  layer["transform.sequences"] = sequences;
  result.notes["layer.plan"] =
      "plan jobs: " + std::to_string(inputs.plan_jobs.size()) +
      ", pytorch allocator, max_gpus 64; transform.ms is the median over a "
      "strided sample of the rank sequences the full search transforms";
}

/// Fleet: cold archetype profiles apart from warm packing, per policy.
void measure_fleet(SpanLog& spans, RunResult& result) {
  core::EstimationService service;
  const std::int64_t op = kLayerOpBase + 20'000;
  const double profile_ms = spans.timed("fleet.profile", op, -1, [&] {
    for (const core::TrainJob& job : fleet_archetypes()) {
      core::EstimateRequest request;
      request.job = job;
      request.devices = gpu::all_devices();
      service.sweep(request);
    }
  });
  result.layer["fleet.profile_ms"] = profile_ms;
  for (const std::string& policy : policy_list()) {
    const sched::FleetRequest request = fleet_request(policy, 24, 16, 8, 5);
    std::vector<double> pack_ms;
    for (int rep = 0; rep < 5; ++rep) {
      pack_ms.push_back(spans.timed("fleet.pack." + policy, op, -1,
                                    [&] { service.fleet(request); }));
    }
    const double ms = median(pack_ms);
    result.layer["fleet.pack_ms." + policy] = ms;
    result.layer["fleet.jobs_per_s." + policy] =
        ratio(double(request.jobs.size()), ms / 1e3);
  }
}

/// Server and JSON: ping round trip, the daemon's overhead over the same
/// work done in-process, and the JSON layer's parse and dump costs.
void measure_server_json(const LayerInputs& inputs, const Options& options,
                         SpanLog& spans, RunResult& result) {
  std::unique_ptr<server::Server> own;
  std::string socket_path = inputs.socket_path;
  if (socket_path.empty()) {
    socket_path =
        options.out_dir + "/layers-" + std::to_string(::getpid()) + ".sock";
    server::ServerConfig config;
    config.socket_path = socket_path;
    config.workers = 4;
    own = std::make_unique<server::Server>(config);
    own->start();
  }
  const std::int64_t op = kLayerOpBase + 30'000;
  server::Client client(socket_path);
  std::vector<double> ping_ms;
  for (int i = 0; i < 50; ++i) {
    ping_ms.push_back(
        spans.timed("server.ping", op, -1, [&] { client.ping(); }));
  }

  // Same work both ways: a warm-profile sweep whose device capacities are
  // new, so neither the reply cache nor the result cache answers it. The
  // reply carries no wall_seconds (replies omit timings), so the in-process
  // time of an equal request on an equally warm serial service stands in.
  core::EstimateRequest request;
  request.job = fleet_archetypes().front();
  request.devices = gpu::all_devices();
  client.sweep(request.to_json());
  core::ServiceOptions serial;
  serial.threads = 1;
  core::EstimationService direct(serial);
  direct.sweep(request);
  std::vector<double> daemon_ms, direct_ms;
  for (int i = 0; i < 40; ++i) {
    for (gpu::DeviceModel& device : request.devices) {
      device.capacity -= std::int64_t{1} << 20;
    }
    const util::Json json = request.to_json();
    daemon_ms.push_back(spans.timed("server.sweep.warm", op, -1,
                                    [&] { client.sweep(json); }));
    for (gpu::DeviceModel& device : request.devices) {
      device.capacity -= std::int64_t{1} << 20;
    }
    direct_ms.push_back(spans.timed("service.sweep.warm", op, -1,
                                    [&] { direct.sweep(request); }));
  }
  auto& layer = result.layer;
  layer["server.ping_rtt_ms"] = median(ping_ms);
  layer["server.overhead_ms"] = median(daemon_ms) - median(direct_ms);
  if (own) {
    const server::ServerStats stats = own->stats();
    const double data = double(stats.data_requests);
    layer["server.coalesced_frac"] =
        ratio(double(stats.coalesced_inflight), data);
    layer["server.reply_cache_hit_frac"] =
        ratio(double(stats.reply_cache_hits), data);
    layer["server.busy_rejections"] = double(stats.busy_rejections);
    result.notes["server.coalesced_frac"] =
        "this workload is in-process: server counters come from the "
        "layer probe's own daemon, not from the workload";
    own->stop();
  }

  std::vector<double> parse_ms, dump_ms, report_bytes;
  for (const std::string& text : inputs.request_texts) {
    parse_ms.push_back(spans.timed("json.request_parse", op, -1, [&] {
      const util::Json envelope = util::Json::parse(text);
      if (envelope.at("type").as_string() == "plan") {
        core::PlanRequest::from_json(envelope.at("request"));
      } else {
        core::EstimateRequest::from_json(envelope.at("request"));
      }
    }));
  }
  for (const util::Json& report : inputs.reports) {
    std::string text;
    dump_ms.push_back(spans.timed("json.report_dump", op, -1,
                                  [&] { text = report.dump(); }));
    report_bytes.push_back(double(text.size()));
  }
  layer["json.request_parse_ms"] = median(parse_ms);
  layer["json.report_dump_ms"] = median(dump_ms);
  layer["json.report_bytes"] = median(report_bytes);
}

}  // namespace

bool measure_layers(const LayerInputs& inputs, const Options& options,
                    SpanLog& spans, RunResult& result) {
  const bool peaks_match = measure_cold_path(inputs, spans, result);
  measure_plan(inputs, spans, result);
  measure_fleet(spans, result);
  measure_server_json(inputs, options, spans, result);
  result.info["layer_peaks_match_service"] = util::Json(peaks_match);
  return peaks_match;
}

}  // namespace perfbench
