// Table-driven request-schema checks.
//
// The sweep, plan and fleet documents are parsed by one field table per
// type (util/schema.h). This suite walks those tables instead of listing
// fields by hand, so a field added to a table is covered the day it lands:
//   * every integer field rejects 2^32 + k (the old silent narrowing),
//     k + 0.5, the string "k", null and min - 1, and accepts its minimum;
//   * every other field rejects a JSON number where it expects something
//     else, and every required field is reported when missing;
//   * unknown keys are rejected by name in every object;
//   * every field name appears in docs/API.md (the drift guard), request
//     tables under "Request fields" and report tables under "Report fields".
// Each error must name the field. The inputs that motivated the tables are
// pinned as explicit regressions at the bottom. The report tables (write-
// only) are also checked for the one emission rule they share: a timed
// rendering is the untimed one plus its timing keys.
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimation_service.h"
#include "sched/fleet_planner.h"
#include "server/server.h"

namespace {

using namespace xmem;

// Where each table's fields live inside a valid base document.
struct Target {
  std::string kind;               // "sweep" | "plan" | "fleet"
  std::vector<std::string> path;  // object keys / array indices
};

const std::map<std::string, Target>& targets() {
  static const std::map<std::string, Target> kTargets = {
      {"sweep request", {"sweep", {}}},
      {"plan request", {"plan", {}}},
      {"job", {"sweep", {"job"}}},
      {"device", {"sweep", {"devices", "1"}}},
      {"fleet request", {"fleet", {}}},
      {"fleet job", {"fleet", {"jobs", "0"}}},
      {"pool", {"fleet", {"pools", "0"}}},
      {"headroom", {"fleet", {"headroom"}}},
      {"headroom rule", {"fleet", {"headroom", "per_device", "rtx3060"}}},
  };
  return kTargets;
}

util::Json base_document(const std::string& kind) {
  const char* job = R"("job": {"model": "distilgpt2", "batch": 5})";
  if (kind == "fleet") {
    return util::Json::parse(std::string(R"({"jobs": [{)") + job + R"(}],
        "pools": [{"device": "rtx3060", "count": 1}],
        "headroom": {"per_device": {"rtx3060": {}}}})");
  }
  return util::Json::parse(std::string("{") + job +
                           R"(, "devices": ["rtx3060", {"name": "rtx3060"}]})");
}

util::Json& object_at(util::Json& document, const Target& target) {
  util::Json* node = &document;
  for (const std::string& step : target.path) {
    node = node->is_array() ? &(*node)[std::stoul(step)] : &(*node)[step];
  }
  return *node;
}

// Parse a document as `kind`; returns the canonical form.
std::string parse(const std::string& kind, const util::Json& document) {
  if (kind == "sweep") {
    return core::EstimateRequest::from_json(document).to_json().dump();
  }
  if (kind == "plan") {
    return core::PlanRequest::from_json(document).to_json().dump();
  }
  return sched::FleetRequest::from_json(document).to_json().dump();
}

// The error a document raises, or "" when it parses.
std::string error_of(const std::string& kind, const util::Json& document) {
  try {
    parse(kind, document);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

struct Table {
  std::string name;
  std::vector<util::schema::FieldInfo> fields;
};

template <typename T>
Table table(const char* name, util::schema::Schema<T> fields) {
  return {name, {fields.begin(), fields.end()}};
}

std::vector<Table> all_tables() {
  return {table("sweep request", core::kSweepSchema),
          table("plan request", core::kPlanSchema),
          table("job", core::kJobSchema),
          table("device", core::kDeviceSchema),
          table("fleet request", sched::kFleetSchema),
          table("fleet job", sched::kFleetJobSchema),
          table("pool", sched::kPoolSchema),
          table("headroom", sched::kHeadroomSchema),
          table("headroom rule", sched::kHeadroomRuleSchema)};
}

// Run `check(target, field)` for every field of every table, where
// `target` locates the field's object in a base document.
template <typename Check>
void for_each_field(const Check& check) {
  for (const Table& table : all_tables()) {
    const Target& target = targets().at(table.name);
    for (const util::schema::FieldInfo& field : table.fields) {
      SCOPED_TRACE(table.name + " ." + field.name);
      check(target, field);
    }
  }
}

// Expect `value` at `field` to be rejected with an error naming the field.
void expect_rejected(const Target& target, const std::string& field,
                     const util::Json& value) {
  util::Json document = base_document(target.kind);
  object_at(document, target)[field] = value;
  const std::string error = error_of(target.kind, document);
  EXPECT_NE(error.find("\"" + field), std::string::npos)
      << "value " << value.dump() << " -> error: '" << error << "'";
}

TEST(RequestSchema, BaseDocumentsParse) {
  for (const char* kind : {"sweep", "plan", "fleet"}) {
    EXPECT_EQ(error_of(kind, base_document(kind)), "") << kind;
  }
}

TEST(RequestSchema, IntegerFieldsRejectNarrowingFractionsStringsAndNull) {
  std::size_t integer_fields = 0;
  for_each_field([&](const Target& target,
                     const util::schema::FieldInfo& field) {
    if (!field.integer()) return;
    ++integer_fields;
    const std::int64_t k = field.min;
    const std::int64_t two_32 = std::int64_t{1} << 32;
    // 2^32 + k would fit a 64-bit field; there 2^64 + k (which JSON can
    // only carry as a double) is the narrowing case.
    expect_rejected(target, field.name,
                    field.max < two_32
                        ? util::Json(two_32 + k)
                        : util::Json::parse("18446744073709551616"));
    expect_rejected(target, field.name,
                    util::Json(static_cast<double>(k) + 0.5));
    expect_rejected(target, field.name, util::Json(std::to_string(k)));
    expect_rejected(target, field.name, util::Json(nullptr));
    expect_rejected(target, field.name, util::Json(k - 1));

    util::Json document = base_document(target.kind);
    object_at(document, target)[field.name] = util::Json(k);
    EXPECT_EQ(error_of(target.kind, document), "") << "minimum " << k;
  });
  EXPECT_GE(integer_fields, 24u);
}

TEST(RequestSchema, OtherFieldsRejectANumber) {
  for_each_field([&](const Target& target,
                     const util::schema::FieldInfo& field) {
    if (!field.integer()) expect_rejected(target, field.name, util::Json(7));
  });
}

TEST(RequestSchema, MissingRequiredFieldsAreNamed) {
  for_each_field([&](const Target& target,
                     const util::schema::FieldInfo& field) {
    if ((field.flags & util::schema::kRequired) == 0) return;
    util::Json document = base_document(target.kind);
    object_at(document, target).as_object().erase(field.name);
    const std::string error = error_of(target.kind, document);
    EXPECT_NE(error.find(std::string("\"") + field.name + "\""),
              std::string::npos)
        << error;
  });
}

TEST(RequestSchema, UnknownKeysAreRejectedByName) {
  for (const auto& [name, target] : targets()) {
    SCOPED_TRACE(name);
    expect_rejected(target, "bogus_field", util::Json(1));
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The text of a "## <heading>" section of docs/API.md, up to the next one.
std::string docs_section(const std::string& heading) {
  const std::string docs = read_file(std::string(XMEM_DOCS_DIR) + "/API.md");
  const std::size_t start = docs.find("\n## " + heading + "\n");
  EXPECT_NE(start, std::string::npos) << "docs/API.md lost " << heading;
  if (start == std::string::npos) return "";
  const std::size_t end = docs.find("\n## ", start + 1);
  return docs.substr(start, end == std::string::npos ? end : end - start);
}

void expect_documented(const std::string& section, const std::string& heading,
                       const std::string& table, const char* field) {
  EXPECT_NE(section.find(std::string("`") + field + "`"), std::string::npos)
      << table << " field " << field << " is missing from docs/API.md \""
      << heading << "\"";
}

TEST(RequestSchema, EveryFieldIsDocumented) {
  const std::string section = docs_section("Request fields");
  for (const Table& table : all_tables()) {
    for (const util::schema::FieldInfo& field : table.fields) {
      expect_documented(section, "Request fields", table.name, field.name);
    }
  }
}

// --- report tables -----------------------------------------------------------

TEST(ReportSchema, EveryFieldIsDocumented) {
  std::vector<std::vector<util::schema::FieldInfo>> tables =
      core::report_tables();
  for (auto& table : sched::report_tables()) tables.push_back(table);
  tables.push_back(util::schema::infos(server::kStatsSchema));
  EXPECT_GE(tables.size(), 20u);
  const std::string section = docs_section("Report fields");
  for (const auto& table : tables) {
    for (const util::schema::FieldInfo& field : table) {
      EXPECT_EQ(field.flags & util::schema::kRequired, 0u) << field.name;
      expect_documented(section, "Report fields", "report", field.name);
    }
  }
}

// Drop every timing key ("timings" objects and "wall_seconds") in place;
// returns how many "timings" objects there were, after checking each holds
// exactly the StageTimings keys.
std::size_t strip_timings(util::Json& json) {
  std::size_t timings = 0;
  if (json.is_array()) {
    for (util::Json& element : json.as_array()) {
      timings += strip_timings(element);
    }
  }
  if (!json.is_object()) return timings;
  util::JsonObject& object = json.as_object();
  if (const auto it = object.find("timings"); it != object.end()) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : it->second.as_object()) {
      keys.push_back(key);
    }
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "analyze_seconds", "profile_cache_hit",
                        "profile_seconds", "result_cache_hit",
                        "simulate_seconds", "total_seconds"}));
    object.erase(it);
    ++timings;
  }
  object.erase("wall_seconds");
  for (auto& [key, value] : object) timings += strip_timings(value);
  return timings;
}

// The timed rendering of `report`, minus its timing keys, must dump
// byte-identical to the untimed one. Returns the timings objects seen.
template <typename Report>
std::size_t expect_timed_is_untimed_plus_timings(const Report& report) {
  util::Json timed = report.to_json(/*include_timings=*/true);
  EXPECT_TRUE(timed.contains("wall_seconds"));
  const std::size_t timings = strip_timings(timed);
  EXPECT_EQ(timed.dump(2), report.to_json(/*include_timings=*/false).dump(2));
  return timings;
}

util::Json fixture(const std::string& name) {
  return util::Json::parse(read_file(std::string(XMEM_FIXTURE_DIR) + "/" +
                                     name));
}

TEST(ReportSchema, TimedRenderingIsTheUntimedOnePlusTimingKeys) {
  core::EstimationService service;
  // A curve-on sweep with an unsupported (LLMem x CNN) entry.
  const core::EstimateReport sweep = service.sweep(
      core::EstimateRequest::from_json(fixture("sweep_request_curve.json")));
  ASSERT_EQ(sweep.entries.size(), 2u);
  EXPECT_FALSE(sweep.entries[0].reserved_curve.empty());
  EXPECT_FALSE(sweep.entries[1].supported);
  EXPECT_EQ(expect_timed_is_untimed_plus_timings(sweep), 2u);

  // A refine-all plan with overlap windows: every gated plan key is on.
  core::PlanRequest plan_request =
      core::PlanRequest::from_json(fixture("plan_request_overlap.json"));
  plan_request.refine_all = true;
  const core::PlanReport plan = service.plan(plan_request);
  ASSERT_TRUE(plan.comm_overlap);
  ASSERT_FALSE(plan.candidates.empty());
  EXPECT_TRUE(plan.candidates[0].replayed && plan.candidates[0].window_mode);
  EXPECT_EQ(expect_timed_is_untimed_plus_timings(plan),
            plan.single_device_entries.size());

  // A fleet pack with what-if pools.
  const sched::FleetReport fleet = service.fleet(
      sched::FleetRequest::from_json(fixture("fleet_request.json")));
  ASSERT_TRUE(fleet.what_if.has_value());
  EXPECT_EQ(expect_timed_is_untimed_plus_timings(fleet), 0u);
}

// --- the inputs that motivated the field tables ---------------------------

util::Json plan_with(const char* extra) {
  return util::Json::parse(
      std::string(R"({"job": {"model": "distilgpt2", "batch": 5},
                      "devices": ["rtx3060"])") +
      extra + "}");
}

void expect_error_names(const std::string& kind, const util::Json& document,
                        const std::string& field) {
  const std::string error = error_of(kind, document);
  EXPECT_NE(error.find("\"" + field + "\""), std::string::npos)
      << document.dump() << " -> '" << error << "'";
}

TEST(RequestSchemaRegression, MaxGpusBeyondIntIsRejected) {
  expect_error_names("plan", plan_with(R"(, "max_gpus": 4294967298)"),
                     "max_gpus");
  EXPECT_EQ(error_of("plan", plan_with(R"(, "max_gpus": 64)")), "");
}

TEST(RequestSchemaRegression, NarrowedOrFractionalBatchIsRejected) {
  for (const char* batch : {"4294967301", "5.9"}) {
    const util::Json document = util::Json::parse(
        std::string(R"({"job": {"model": "distilgpt2", "batch": )") + batch +
        R"(}, "devices": ["rtx3060"]})");
    expect_error_names("sweep", document, "batch");
    expect_error_names("plan", document, "batch");
  }
}

TEST(RequestSchemaRegression, StringsTyposAndStringEnumsAreRejected) {
  expect_error_names("plan", plan_with(R"(, "max_gpus": "64")"), "max_gpus");
  expect_error_names("plan", plan_with(R"(, "max_gpu": 64)"), "max_gpu");
  expect_error_names("plan", plan_with(R"(, "zero_stage": "3")"),
                     "zero_stage");
}

TEST(RequestSchemaRegression, NegativeProfileIterationsFailAtParse) {
  expect_error_names("sweep", plan_with(R"(, "profile_iterations": -5)"),
                     "profile_iterations");
  expect_error_names("plan", plan_with(R"(, "profile_iterations": -5)"),
                     "profile_iterations");
  util::Json fleet = base_document("fleet");
  fleet["profile_iterations"] = util::Json(-5);
  expect_error_names("fleet", fleet, "profile_iterations");
}

TEST(RequestSchemaRegression, DeeplyNestedDocumentIsAParseError) {
  EXPECT_THROW(util::Json::parse(std::string(200000, '[')),
               util::JsonParseError);
}

TEST(RequestSchemaRegression, NegativeFixturesNameTheField) {
  const std::map<std::string, std::pair<std::string, std::string>> fixtures =
      {{"bad_narrowing.json", {"sweep", "batch"}},
       {"bad_plan_type.json", {"plan", "max_gpus"}},
       {"bad_plan_unknown_field.json", {"plan", "max_gpu"}}};
  for (const auto& [name, expected] : fixtures) {
    std::ifstream in(std::string(XMEM_FIXTURE_DIR) + "/" + name);
    ASSERT_TRUE(in) << "missing ci/fixtures/" << name;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    expect_error_names(expected.first, util::Json::parse(buffer.str()),
                       expected.second);
  }
}

}  // namespace
