// perfbench: the repository benchmark.
//
//   perfbench --workload cold_sweep|plan_refine_all|serve_mixed
//             --seed N --seconds S --trace 0|1 --out-dir DIR [--commit ID]
//
// Prints the run context, a readable metric table and a JSON info line,
// then, as its last line, {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics of the
// traced run with --trace 1. Exit code 0 unless the run could not measure.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using xmem::util::Json;

/// Unit of every metric the benchmark can print.
std::string unit_of(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (name == "setup_s") return "s";
  if (name == "peak_rss_mb") return "MiB";
  if (name == "trace.write_mb_s" || name == "trace.parse_mb_s") return "MB/s";
  if (name == "throughput_ops_s" || ends_with("_per_s") ||
      name.find("_per_s.") != std::string::npos) {
    return "1/s";
  }
  if (ends_with("_ms") || ends_with(".ms") ||
      name.find("_ms.") != std::string::npos) {
    return "ms";
  }
  if (ends_with("_pct")) return "%";
  if (ends_with("bytes")) return "B";
  if (name.find("frac") != std::string::npos ||
      name.find("ratio") != std::string::npos) {
    return "ratio";
  }
  return "count";
}

std::string cpu_field(const char* field) {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind(field, 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

Json run_context(const Options& options, const std::string& commit) {
  Json context = Json::object();
  context["workload"] = Json(options.workload);
  context["seed"] = Json(static_cast<std::int64_t>(options.seed));
  context["seconds"] = Json(options.seconds);
  context["trace"] = Json(options.trace);
  context["nproc"] =
      Json(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  context["cpu_model"] = Json(cpu_field("model name"));
  context["cpu_mhz"] = Json(cpu_field("cpu MHz"));
  context["compiler"] = Json(std::string("g++/clang ") + __VERSION__);
  context["build_type"] = Json(PERFBENCH_BUILD_TYPE);
  context["commit"] = Json(commit);
  return context;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold_sweep|plan_refine_all|"
               "serve_mixed --seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--commit ID]\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench: refusing to measure a non-optimized build "
               "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Options options;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      usage();
      return 2;
    }
  }
  if (options.out_dir.empty() || options.seconds <= 0) {
    usage();
    return 2;
  }
  ::mkdir(options.out_dir.c_str(), 0755);

  SpanLog spans(options.trace);
  RunResult result;
  try {
    if (options.workload == "cold_sweep") {
      result = run_cold_sweep(options, spans);
    } else if (options.workload == "plan_refine_all") {
      result = run_plan_refine_all(options, spans);
    } else if (options.workload == "serve_mixed") {
      result = run_serve_mixed(options, spans);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }

  const FailureCounts& failures = result.failures;
  if (failures.attempted == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return 1;
  }

  // End-to-end metrics. failed_frac and unsafe_frac are printed beside
  // them; the bounded metrics are their complements ok_frac and safe_frac,
  // because a regression bound is a share of the parent's value, and
  // failed_frac is exactly 0 on a healthy run (unsafe_frac can be too).
  const Tail tail = tail_latency(result.latencies_ms);
  const double accuracy_samples =
      static_cast<double>(result.rel_error_pct.size());
  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(result.setup_seconds);
  e2e["latency_p50_ms"] = median(result.latencies_ms);
  e2e["latency_tail_ms"] = tail.value;
  e2e["throughput_ops_s"] =
      result.busy_seconds > 0
          ? static_cast<double>(result.completed) / result.busy_seconds
          : 0.0;
  e2e["ok_frac"] = failures.ok_frac();
  e2e["mre_pct"] = median(result.rel_error_pct);
  e2e["safe_frac"] =
      accuracy_samples > 0
          ? 1.0 - static_cast<double>(result.unsafe) / accuracy_samples
          : 0.0;
  e2e["peak_rss_mb"] = result.peak_rss_mb;

  Json info = result.info;
  Json tail_json = Json::object();
  tail_json["percentile"] = Json(tail.percentile);
  tail_json["samples"] = Json(static_cast<std::int64_t>(tail.samples));
  tail_json["samples_above"] =
      Json(static_cast<std::int64_t>(tail.samples_above));
  info["latency_tail"] = tail_json;
  Json failure_json = Json::object();
  failure_json["attempted"] =
      Json(static_cast<std::int64_t>(failures.attempted));
  failure_json["error_reply"] =
      Json(static_cast<std::int64_t>(failures.error_reply));
  failure_json["server_busy"] = Json(static_cast<std::int64_t>(failures.busy));
  failure_json["transport"] =
      Json(static_cast<std::int64_t>(failures.transport));
  failure_json["wrong_output"] =
      Json(static_cast<std::int64_t>(failures.wrong_output));
  failure_json["failed_frac"] = Json(failures.failed_frac());
  info["failures"] = failure_json;
  Json accuracy = Json::object();
  accuracy["samples"] = Json(static_cast<std::int64_t>(accuracy_samples));
  accuracy["unsafe_frac"] = Json(1.0 - e2e["safe_frac"]);
  info["accuracy"] = accuracy;
  Json setups = Json::array();
  for (const double s : result.setup_seconds) setups.push_back(Json(s));
  info["setup_seconds"] = setups;
  if (!result.notes.empty()) {
    Json notes = Json::object();
    for (const auto& [name, note] : result.notes) notes[name] = Json(note);
    info["notes"] = notes;
  }
  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (spans.write_chrome_trace(path)) {
      info["chrome_trace"] = Json(path);
      info["spans"] = Json(static_cast<std::int64_t>(spans.size()));
    }
  }

  std::printf("perfbench context %s\n",
              run_context(options, commit).dump().c_str());
  std::printf("perfbench info %s\n", info.dump().c_str());
  const std::map<std::string, double>& shown =
      options.trace ? result.layer : e2e;
  for (const auto& [name, value] : shown) {
    std::printf("  %-40s %18.6f %s\n", name.c_str(), value,
                unit_of(name).c_str());
  }
  if (!options.trace) {
    std::printf("  %-40s %18.6f ratio\n", "failed_frac",
                failures.failed_frac());
    std::printf("  %-40s %18.6f ratio\n", "unsafe_frac",
                1.0 - e2e["safe_frac"]);
    std::printf("  latency_tail_ms is p%g: %zu of %zu samples above it\n",
                tail.percentile, tail.samples_above, tail.samples);
  }

  std::string metrics = "{";
  for (const auto& [name, value] : shown) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (metrics.size() > 1) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
               unit_of(name) + "\"}";
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failures.failed() == 0 ? "true" : "false", failures.attempted,
              failures.failed(), metrics.c_str());
  return 0;
}
