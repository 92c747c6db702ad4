// Pinned canonical request forms.
//
// `to_json().dump()` of a parsed request is the server's coalescing and
// reply-LRU key, so its bytes are part of the wire contract: a codec
// refactor must reproduce them exactly. Each string below was recorded from
// the hand-written codecs before the field-table rewrite; this suite passes
// on both. Never regenerate these to make a codec change pass — only for a
// deliberate schema change, with the reason in CHANGES.md.
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/estimation_service.h"
#include "sched/fleet_planner.h"

namespace {

using namespace xmem;

std::string read_fixture(const std::string& name) {
  std::ifstream in(std::string(XMEM_FIXTURE_DIR) + "/" + name);
  EXPECT_TRUE(in) << "missing ci/fixtures/" << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Canonical form of `text`, and a check that the form is a fixpoint (parsing
// the canonical document re-emits the same bytes).
template <typename Request>
std::string canonical(const std::string& text) {
  const std::string once =
      Request::from_json(util::Json::parse(text)).to_json().dump();
  EXPECT_EQ(Request::from_json(util::Json::parse(once)).to_json().dump(),
            once);
  return once;
}

TEST(RequestCanonicalForm, SweepFixture) {
  EXPECT_EQ(
      canonical<core::EstimateRequest>(read_fixture("sweep_request.json")),
      R"({"allocator_config":{"cub-binned":{"bin_growth":4,"max_bin":12,"max_cached_bytes":200000000,"min_bin":3}},"allocators":["pytorch","tf-bfc","basic-bfc","cub-binned"],"curve":false,"devices":[{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"},{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"},{"capacity_bytes":42949672960,"m_fm_bytes":692060160,"m_init_bytes":440401920,"name":"NVIDIA A100 40GB"},{"capacity_bytes":25769803776,"m_fm_bytes":629145600,"m_init_bytes":314572800,"name":"Custom-24GB"}],"estimators":["xMem","DNNMem","LLMem"],"job":{"batch":5,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"profile_iterations":3})");
}

TEST(RequestCanonicalForm, PlanFixture) {
  EXPECT_EQ(
      canonical<core::PlanRequest>(read_fixture("plan_request.json")),
      R"({"activation_replication_pct":25,"allocator":"pytorch","ddp_bucket_bytes":26214400,"ddp_bucket_count":2,"devices":[{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"},{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"},{"capacity_bytes":42949672960,"m_fm_bytes":692060160,"m_init_bytes":440401920,"name":"NVIDIA A100 40GB"},{"capacity_bytes":2000000000,"m_fm_bytes":0,"m_init_bytes":0,"name":"whatif-2g"}],"job":{"batch":5,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"max_candidates":6,"max_gpus":8,"micro_batches":4,"profile_iterations":3,"refine_top_k":3,"schedule":"1f1b","virtual_stages":1,"zero_stage":1})");
}

TEST(RequestCanonicalForm, PlanOverlapFixture) {
  EXPECT_EQ(
      canonical<core::PlanRequest>(read_fixture("plan_request_overlap.json")),
      R"({"activation_replication_pct":25,"allocator":"pytorch","comm_overlap":true,"ddp_bucket_bytes":26214400,"ddp_bucket_count":2,"devices":[{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"},{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"},{"capacity_bytes":42949672960,"m_fm_bytes":692060160,"m_init_bytes":440401920,"name":"NVIDIA A100 40GB"},{"capacity_bytes":2000000000,"m_fm_bytes":0,"m_init_bytes":0,"name":"whatif-2g"}],"job":{"batch":5,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"max_candidates":6,"max_gpus":8,"micro_batches":4,"profile_iterations":3,"refine_top_k":3,"schedule":"1f1b","virtual_stages":1,"zero_stage":1})");
}

TEST(RequestCanonicalForm, FleetFixture) {
  EXPECT_EQ(
      canonical<sched::FleetRequest>(read_fixture("fleet_request.json")),
      R"({"allocator":"pytorch","estimator":"xMem","headroom":{"absolute_bytes":0,"percent":5},"jobs":[{"id":"llm-a","job":{"batch":10,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"priority":1},{"id":"llm-b","job":{"batch":10,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"priority":0},{"id":"llm-c","job":{"batch":10,"model":"distilgpt2","optimizer":"AdamW","placement":"POS1","seed":7},"priority":0},{"id":"cnn-a","job":{"batch":300,"model":"MobileNetV2","optimizer":"SGD","placement":"POS1","seed":7},"priority":0},{"id":"cnn-b","job":{"batch":300,"model":"MobileNetV2","optimizer":"SGD","placement":"POS1","seed":7},"priority":0},{"id":"cnn-c","job":{"batch":300,"model":"MobileNetV2","optimizer":"SGD","placement":"POS1","seed":7},"priority":0}],"max_gpus_per_job":1,"policy":"best-fit-decreasing","pools":[{"count":1,"device":{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"}}],"profile_iterations":3,"what_if":[{"count":2,"device":{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"}}]})");
}

// Minimal documents: every default is emitted.

TEST(RequestCanonicalForm, MinimalSweep) {
  EXPECT_EQ(
      canonical<core::EstimateRequest>(
          R"({"job": {"model": "distilgpt2", "batch": 5},
              "devices": ["rtx3060"]})"),
      R"({"allocators":["pytorch"],"curve":false,"devices":[{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"}],"estimators":["xMem"],"job":{"batch":5,"model":"distilgpt2","optimizer":"SGD","placement":"POS1","seed":1},"profile_iterations":3})");
}

TEST(RequestCanonicalForm, MinimalPlan) {
  EXPECT_EQ(
      canonical<core::PlanRequest>(
          R"({"job": {"model": "distilgpt2", "batch": 5},
              "devices": ["rtx3060"]})"),
      R"({"activation_replication_pct":25,"allocator":"pytorch","ddp_bucket_bytes":26214400,"ddp_bucket_count":2,"devices":[{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"}],"job":{"batch":5,"model":"distilgpt2","optimizer":"SGD","placement":"POS1","seed":1},"max_candidates":0,"max_gpus":8,"micro_batches":4,"profile_iterations":3,"refine_top_k":4,"schedule":"1f1b","virtual_stages":1,"zero_stage":0})");
}

TEST(RequestCanonicalForm, MinimalFleet) {
  EXPECT_EQ(
      canonical<sched::FleetRequest>(
          R"({"jobs": [{"job": {"model": "distilgpt2", "batch": 5}}],
              "pools": [{"device": "rtx3060", "count": 1}]})"),
      R"({"allocator":"pytorch","estimator":"xMem","headroom":{"absolute_bytes":0,"percent":0},"jobs":[{"id":"job-0","job":{"batch":5,"model":"distilgpt2","optimizer":"SGD","placement":"POS1","seed":1},"priority":0}],"max_gpus_per_job":8,"policy":"first-fit","pools":[{"count":1,"device":{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"}}],"profile_iterations":3})");
}

// Documents that set every optional field away from its default, so the
// fields emitted only when they differ (tenant, comm_overlap, refine_all,
// allocator_config, what_if, per_device) are pinned too.

TEST(RequestCanonicalForm, EveryOptionSweep) {
  EXPECT_EQ(
      canonical<core::EstimateRequest>(
          R"({"job": {"model": "gpt2", "batch": 2, "optimizer": "adam",
                      "placement": "pos0", "seed": 11},
              "devices": ["a100", {"name": "mystery",
                                   "capacity_bytes": 1000000000,
                                   "m_fm_bytes": 7}],
              "allocators": ["cub-binned", "stream-pool"],
              "estimators": ["xMem", "DNNMem"],
              "allocator_config": {"stream-pool": {"chunk_bytes": 2097152}},
              "profile_iterations": 5, "curve": true, "tenant": "team-a"})"),
      R"({"allocator_config":{"stream-pool":{"chunk_bytes":2097152}},"allocators":["cub-binned","stream-pool"],"curve":true,"devices":[{"capacity_bytes":42949672960,"m_fm_bytes":692060160,"m_init_bytes":440401920,"name":"NVIDIA A100 40GB"},{"capacity_bytes":1000000000,"m_fm_bytes":7,"m_init_bytes":0,"name":"mystery"}],"estimators":["xMem","DNNMem"],"job":{"batch":2,"model":"gpt2","optimizer":"Adam","placement":"POS0","seed":11},"profile_iterations":5,"tenant":"team-a"})");
}

TEST(RequestCanonicalForm, EveryOptionPlan) {
  EXPECT_EQ(
      canonical<core::PlanRequest>(
          R"({"job": {"model": "gpt2", "batch": 2}, "devices": ["4060"],
              "max_gpus": 16, "micro_batches": 8, "schedule": "interleaved",
              "virtual_stages": 2, "zero_stage": 3,
              "ddp_bucket_bytes": 1048576, "ddp_bucket_count": 0,
              "activation_replication_pct": 100, "allocator": "tf-bfc",
              "allocator_config": {"cub-binned": {"max_bin": 20}},
              "profile_iterations": 2, "max_candidates": 3,
              "refine_top_k": "all", "comm_overlap": true,
              "tenant": "team-b"})"),
      R"({"activation_replication_pct":100,"allocator":"tf-bfc","allocator_config":{"cub-binned":{"max_bin":20}},"comm_overlap":true,"ddp_bucket_bytes":1048576,"ddp_bucket_count":0,"devices":[{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"}],"job":{"batch":2,"model":"gpt2","optimizer":"SGD","placement":"POS1","seed":1},"max_candidates":3,"max_gpus":16,"micro_batches":8,"profile_iterations":2,"refine_top_k":"all","schedule":"interleaved","tenant":"team-b","virtual_stages":2,"zero_stage":3})");
}

TEST(RequestCanonicalForm, ExplicitDefaultsCanonicalizeAway) {
  EXPECT_EQ(
      canonical<core::PlanRequest>(
          R"({"job": {"model": "gpt2", "batch": 2}, "devices": ["4060"],
              "refine_top_k": 0, "comm_overlap": false, "tenant": ""})"),
      R"({"activation_replication_pct":25,"allocator":"pytorch","ddp_bucket_bytes":26214400,"ddp_bucket_count":2,"devices":[{"capacity_bytes":8589934592,"m_fm_bytes":612368384,"m_init_bytes":278921216,"name":"GeForce RTX 4060"}],"job":{"batch":2,"model":"gpt2","optimizer":"SGD","placement":"POS1","seed":1},"max_candidates":0,"max_gpus":8,"micro_batches":4,"profile_iterations":3,"refine_top_k":0,"schedule":"1f1b","virtual_stages":1,"zero_stage":0})");
}

TEST(RequestCanonicalForm, EveryOptionFleet) {
  EXPECT_EQ(
      canonical<sched::FleetRequest>(
          R"({"jobs": [{"id": "x", "priority": -2,
                        "job": {"model": "gpt2", "batch": 2}},
                       {"job": {"model": "distilgpt2", "batch": 5,
                                "seed": 3}}],
              "pools": [{"device": "a100", "count": 2},
                        {"device": {"name": "mystery",
                                    "capacity_bytes": 5000000000},
                         "count": 3}],
              "policy": "whole-gpu",
              "headroom": {"absolute_bytes": 1024, "percent": 3,
                           "per_device": {"GeForce RTX 3060":
                                              {"percent": 7}}},
              "estimator": "DNNMem", "allocator": "cub-binned",
              "allocator_config": {"cub-binned": {"min_bin": 4}},
              "profile_iterations": 4, "max_gpus_per_job": 2,
              "comm_overlap": true, "refine_all": true, "tenant": "team-c",
              "what_if": [{"device": "rtx3060", "count": 1}]})"),
      R"({"allocator":"cub-binned","allocator_config":{"cub-binned":{"min_bin":4}},"comm_overlap":true,"estimator":"DNNMem","headroom":{"absolute_bytes":1024,"per_device":{"GeForce RTX 3060":{"absolute_bytes":0,"percent":7}},"percent":3},"jobs":[{"id":"x","job":{"batch":2,"model":"gpt2","optimizer":"SGD","placement":"POS1","seed":1},"priority":-2},{"id":"job-1","job":{"batch":5,"model":"distilgpt2","optimizer":"SGD","placement":"POS1","seed":3},"priority":0}],"max_gpus_per_job":2,"policy":"whole-gpu","pools":[{"count":2,"device":{"capacity_bytes":42949672960,"m_fm_bytes":692060160,"m_init_bytes":440401920,"name":"NVIDIA A100 40GB"}},{"count":3,"device":{"capacity_bytes":5000000000,"m_fm_bytes":0,"m_init_bytes":0,"name":"mystery"}}],"profile_iterations":4,"refine_all":true,"tenant":"team-c","what_if":[{"count":1,"device":{"capacity_bytes":12884901888,"m_fm_bytes":612368384,"m_init_bytes":310378496,"name":"GeForce RTX 3060"}}]})");
}

}  // namespace
