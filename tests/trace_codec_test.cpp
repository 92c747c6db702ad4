// Trace JSON codec: the append writer's bytes are pinned for real profiled
// traces, the one-pass reader is checked field by field for range errors,
// and it is differentially tested against a DOM reference reader on a hand
// document, its byte mutations and truncations, and real indented output.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/profile_runner.h"
#include "models/amp.h"
#include "models/zoo.h"
#include "trace/trace.h"
#include "util/json.h"
#include "util/rng.h"

namespace xmem::trace {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV-1a 64 prime
  }
  return hash;
}

Trace profile_zoo(const std::string& model_name, int batch, bool amp) {
  fw::ModelDescriptor model = models::build_model(model_name, batch);
  if (amp) model = models::make_amp_variant(model);
  core::ProfileOptions options;
  options.iterations = 2;
  return core::profile_on_cpu(model, fw::OptimizerKind::kAdamW, options);
}

// ---------- writer byte pins ----------

struct PinnedTrace {
  const char* model;
  int batch;
  bool amp;
  std::uint64_t compact;
  std::uint64_t indent2;
};

// Digests recorded with the DOM writer (util::Json of std::map objects)
// that preceded the append writer; the append writer must reproduce its
// bytes exactly. Never regenerate these to make a codec change pass.
constexpr PinnedTrace kPinned[] = {
    {"MobileNetV3Small", 200, false, 0x7ec5c616494f0113ULL,
     0xe6620772e080fcedULL},
    {"distilgpt2", 5, false, 0xa4f4261749159f7dULL, 0x9db70ca3f4d3786dULL},
    {"T5-small", 5, true, 0x484b0c8fab530d6eULL, 0xe89d9dae08cc6582ULL},
};

TEST(TraceCodec, WriterBytesArePinned) {
  for (const PinnedTrace& pin : kPinned) {
    const Trace t = profile_zoo(pin.model, pin.batch, pin.amp);
    EXPECT_EQ(fnv1a(t.to_json_string()), pin.compact) << pin.model;
    EXPECT_EQ(fnv1a(t.to_json_string(2)), pin.indent2) << pin.model;
  }
}

// ---------- range checks, one per narrowed field ----------

std::string meta_doc(const std::string& field, const std::string& value) {
  return R"({"traceMeta":{")" + field + "\":" + value +
         R"(},"traceEvents":[]})";
}

std::string instant_doc(const std::string& field, const std::string& value) {
  return R"({"traceEvents":[{"cat":"cpu_instant_event","args":{")" + field +
         "\":" + value + "}}]}";
}

void expect_range_error(const std::string& doc, const std::string& field) {
  try {
    Trace::from_json_string(doc);
    ADD_FAILURE() << "accepted " << doc;
  } catch (const util::JsonParseError& e) {
    ADD_FAILURE() << "parse error instead of a range error: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"" + field + "\""),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceRange, DeviceIdOutsideIntThrows) {
  expect_range_error(instant_doc("Device Id", "2147483648"), "Device Id");
  expect_range_error(instant_doc("Device Id", "-2147483649"), "Device Id");
  EXPECT_EQ(Trace::from_json_string(instant_doc("Device Id", "2147483647"))
                .events[0]
                .device_id,
            2147483647);
}

TEST(TraceRange, BatchSizeOutsideIntThrows) {
  expect_range_error(meta_doc("batch_size", "4294967304"), "batch_size");
  expect_range_error(meta_doc("batch_size", "1e300"), "batch_size");
  EXPECT_EQ(Trace::from_json_string(meta_doc("batch_size", "8")).batch_size,
            8);
}

TEST(TraceRange, IterationsOutsideIntThrows) {
  expect_range_error(meta_doc("iterations", "-2147483649"), "iterations");
  EXPECT_EQ(Trace::from_json_string(meta_doc("iterations", "3.9")).iterations,
            3);
}

TEST(TraceRange, SchemaVersionOutsideInt64Throws) {
  expect_range_error(meta_doc("xmem_schema_version", "1e19"),
                     "xmem_schema_version");
}

TEST(TraceRange, TotalAllocatedOutsideInt64Throws) {
  expect_range_error(instant_doc("Total Allocated", "99999999999999999999"),
                     "Total Allocated");
  expect_range_error(instant_doc("Total Allocated", "1e300"),
                     "Total Allocated");
  expect_range_error(instant_doc("Total Allocated", "-1e400"),
                     "Total Allocated");
}

TEST(TraceRange, EventIntegerFieldsOutsideInt64Throw) {
  for (const char* field : {"Addr", "Bytes", "Ev Idx", "Python id",
                            "Parent id", "Python parent id",
                            "Sequence number"}) {
    expect_range_error(instant_doc(field, "9223372036854775808"), field);
  }
  expect_range_error(
      R"({"traceEvents":[{"cat":"cpu_op","ts":1e300}]})", "ts");
  expect_range_error(
      R"({"traceEvents":[{"cat":"cpu_op","dur":-9.3e18}]})", "dur");
}

TEST(TraceRange, InRangeFractionsTruncateTowardZero) {
  const Trace t = Trace::from_json_string(
      R"({"traceEvents":[{"cat":"cpu_op","ts":12.9,"dur":-3.7,)"
      R"("args":{"Ev Idx":9.2e18,"Sequence number":-9.2e18}}]})");
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].ts, 12);
  EXPECT_EQ(t.events[0].dur, -3);
  EXPECT_EQ(t.events[0].id, 9200000000000000000LL);
  EXPECT_EQ(t.events[0].seq, -9200000000000000000LL);
}

// ---------- differential test against the DOM reference ----------

// The DOM reader the one-pass reader replaced: util::Json::parse, then a
// walk of the document. It carries the two fixes the one-pass reader
// made: a non-array traceEvents is a runtime_error, and a number outside
// int64 (or int, for the int fields) is a runtime_error naming its field.
std::int64_t ref_int64(const util::Json& obj, const std::string& key,
                       std::int64_t fallback) {
  if (!obj.is_object() || !obj.contains(key)) return fallback;
  const util::Json& value = obj.at(key);
  if (!value.is_number()) return fallback;
  if (value.is_double() && !(value.as_double() >= -0x1p63 &&
                             value.as_double() < 0x1p63)) {
    throw std::runtime_error("Trace: \"" + key +
                             "\" is outside the int64 range");
  }
  return value.as_int();
}

int ref_int(const util::Json& obj, const std::string& key, int fallback) {
  const std::int64_t value = ref_int64(obj, key, fallback);
  if (value < INT32_MIN || value > INT32_MAX) {
    throw std::runtime_error("Trace: \"" + key + "\" is outside the int range");
  }
  return static_cast<int>(value);
}

std::string ref_string(const util::Json& obj, const std::string& key) {
  return obj.get_string_or(key, "");
}

TraceEvent ref_event(const util::Json& j) {
  TraceEvent e;
  const std::string cat = ref_string(j, "cat");
  if (cat == "python_function") {
    e.kind = EventKind::kPythonFunction;
  } else if (cat == "user_annotation") {
    e.kind = EventKind::kUserAnnotation;
  } else if (cat == "cpu_op") {
    e.kind = EventKind::kCpuOp;
  } else if (cat == "cpu_instant_event") {
    e.kind = EventKind::kCpuInstantEvent;
  } else {
    throw std::runtime_error("Trace: unknown event category '" + cat + "'");
  }
  e.name = ref_string(j, "name");
  e.ts = ref_int64(j, "ts", 0);
  e.dur = ref_int64(j, "dur", 0);
  if (j.contains("args")) {
    const util::Json& args = j.at("args");
    e.id = ref_int64(args, "Ev Idx", ref_int64(args, "Python id", -1));
    e.parent_id = ref_int64(args, "Python parent id",
                            ref_int64(args, "Parent id", -1));
    e.seq = ref_int64(args, "Sequence number", -1);
    e.addr = static_cast<std::uint64_t>(ref_int64(args, "Addr", 0));
    e.bytes = ref_int64(args, "Bytes", 0);
    e.total_allocated = ref_int64(args, "Total Allocated", 0);
    e.device_id = ref_int(args, "Device Id", -1);
  }
  return e;
}

Trace ref_read(const std::string& text) {
  const util::Json doc = util::Json::parse(text);
  if (!doc.is_object() || !doc.contains("traceEvents")) {
    throw std::runtime_error("Trace: document has no traceEvents array");
  }
  Trace t;
  t.schema_version = 0;
  if (doc.contains("traceMeta")) {
    const util::Json& meta = doc.at("traceMeta");
    const std::int64_t version = ref_int64(meta, "xmem_schema_version", 0);
    if (version < 0 || version > Trace::kSchemaVersion) {
      throw std::runtime_error(
          "Trace: unsupported xmem_schema_version " + std::to_string(version) +
          " (this build reads <= " + std::to_string(Trace::kSchemaVersion) +
          ")");
    }
    t.schema_version = static_cast<int>(version);
    t.model_name = ref_string(meta, "model");
    t.optimizer_name = ref_string(meta, "optimizer");
    t.batch_size = ref_int(meta, "batch_size", 0);
    t.iterations = ref_int(meta, "iterations", 0);
    t.backend = ref_string(meta, "backend");
  }
  const util::Json& events = doc.at("traceEvents");
  if (!events.is_array()) {
    throw std::runtime_error("Trace: \"traceEvents\" is not an array");
  }
  for (const util::Json& item : events.as_array()) {
    t.events.push_back(ref_event(item));
  }
  return t;
}

// What a reader made of one input: a trace, or an error kind and message.
struct Outcome {
  std::optional<Trace> trace;
  std::string error;  ///< "parse: ..." or "runtime: ..."
};

template <typename Reader>
Outcome run_reader(Reader read, const std::string& text) {
  Outcome outcome;
  try {
    outcome.trace = read(text);
  } catch (const util::JsonParseError& e) {
    outcome.error = std::string("parse: ") + e.what();
  } catch (const std::runtime_error& e) {
    outcome.error = std::string("runtime: ") + e.what();
  }
  return outcome;
}

bool same_events(const TraceEvent& a, const TraceEvent& b) {
  return a.kind == b.kind && a.name == b.name && a.ts == b.ts &&
         a.dur == b.dur && a.id == b.id && a.parent_id == b.parent_id &&
         a.seq == b.seq && a.addr == b.addr && a.bytes == b.bytes &&
         a.total_allocated == b.total_allocated && a.device_id == b.device_id;
}

bool same_traces(const Trace& a, const Trace& b) {
  if (a.model_name != b.model_name || a.optimizer_name != b.optimizer_name ||
      a.batch_size != b.batch_size || a.iterations != b.iterations ||
      a.backend != b.backend || a.schema_version != b.schema_version ||
      a.events.size() != b.events.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    if (!same_events(a.events[i], b.events[i])) return false;
  }
  return true;
}

// Returns an empty string when both readers agree, else a description.
std::string compare_readers(const std::string& text) {
  const Outcome ours = run_reader(
      [](const std::string& s) { return Trace::from_json_string(s); }, text);
  const Outcome ref = run_reader(ref_read, text);
  if (ours.trace.has_value() != ref.trace.has_value() ||
      ours.error != ref.error) {
    return "one-pass {" + ours.error + "} vs reference {" + ref.error + "}";
  }
  if (ours.trace && !same_traces(*ours.trace, *ref.trace)) {
    return "the readers built different traces";
  }
  return "";
}

// Reordered, unknown, nested and duplicate keys; escapes and a surrogate
// pair; fractional numbers; non-number values in integer fields; pretty
// whitespace. Every event resolves, so the document reads cleanly.
const char* const kHandDocument = R"( {
  "deviceProperties" : [ { "name": "cpu", "nested": { "a": [1, 2.5e0, {"b": null}], "c": true } } ],
  "traceMeta": {
    "iterations": 3, "model": "gpté-😀", "extra": {"x": [false, -0.0]},
    "batch_size": 8.75, "xmem_schema_version": 1, "optimizer": "Adam\tW",
    "backend": "cpu", "model": "gpt2 \"q\" \/ \\"
  },
  "traceEvents": [
    {"ph": "X", "name": "ProfilerStep#0", "cat": "user_annotation", "ts": 0,
     "dur": 100, "args": {"Ev Idx": 0}, "pid": 0, "tid": 0},
    {"name": "nn.Module: Linear_0", "cat": "python_function", "ts": 5.9,
     "dur": 40, "args": {"Python id": 1, "Python parent id": 0,
                         "Unknown": {"deep": [1, {"k": "v\n"}]}}},
    {"cat": "gpu_op", "cat": "cpu_op", "name": "aten::addmm", "ts": 1e1,
     "dur": "20", "args": {"Parent id": 1, "Sequence number": 7,
                           "Ev Idx": 2, "Ev Idx": 3}},
    {"args": {"Addr": 140737488355328, "Bytes": 4096, "Total Allocated": 4096,
              "Device Id": 0, "Ev Idx": 4},
     "cat": "cpu_instant_event", "name": "[memory]", "ph": "i", "s": "t",
     "ts": 12},
    {"args": {"Addr": -1, "Bytes": -4096, "Total Allocated": null,
              "Device Id": "0", "Ev Idx": 5.5},
     "cat": "cpu_instant_event", "name": "[memory]\r", "ts": 28,
     "ts": 29.999},
    {"cat": "cpu_op", "name": "aten::empty", "args": [1, 2], "ts": -3.7E+0},
    {"cat": "cpu_op", "name": 7, "args": {"Python parent id": "x",
                                          "Parent id": 9}, "args": {}},
    {"cat": "python_function", "args": {"Python id": 11, "Ev Idx": true,
                                        "Parent id": 2,
                                        "Python parent id": 1}}
  ],
  "schemaVersion": 1,
  "traceEvents_": 0
}
)";

TEST(TraceCodec, HandDocumentReadsLikeTheReference) {
  const std::string doc = kHandDocument;
  EXPECT_EQ(compare_readers(doc), "");
  const Trace t = Trace::from_json_string(doc);
  EXPECT_EQ(t.model_name, "gpt2 \"q\" / \\");
  EXPECT_EQ(t.optimizer_name, "Adam\tW");
  EXPECT_EQ(t.batch_size, 8);
  ASSERT_EQ(t.events.size(), 8u);
  EXPECT_EQ(t.events[1].ts, 5);
  EXPECT_EQ(t.events[1].id, 1);  // "Python id" fallback
  EXPECT_EQ(t.events[2].kind, EventKind::kCpuOp);  // last "cat" wins
  EXPECT_EQ(t.events[2].id, 3);                    // last "Ev Idx" wins
  EXPECT_EQ(t.events[2].dur, 0);                   // "20" is not a number
  EXPECT_EQ(t.events[3].addr, 140737488355328ULL);
  EXPECT_EQ(t.events[4].device_id, -1);
  EXPECT_EQ(t.events[4].name, "[memory]\r");
  EXPECT_EQ(t.events[4].ts, 29);
  EXPECT_EQ(t.events[6].parent_id, -1);  // the later empty "args" wins
  EXPECT_EQ(t.events[7].id, 11);
  EXPECT_EQ(t.events[7].parent_id, 1);
}

TEST(TraceCodec, MutatedDocumentsReadLikeTheReference) {
  const std::string doc = kHandDocument;
  // Fragments that steer mutations at the reader's decisions: structure,
  // literals, escapes, and numbers at and beyond the int / int64 edges.
  const std::vector<std::string> fragments = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "null", "true",
      "\"x\"", "{}", "[]", "\\u", "\\ud800", "\\udc00", "0", "-", ".", "e",
      "E+", "1.5", "-0.5", "2147483648", "-2147483649", "4294967296",
      "9223372036854775807", "9223372036854775808", "99999999999999999999",
      "1e300", "-1e300", "1e-400", "9.2e18", "\"cat\":\"gpu_op\",",
      "\"traceEvents\":5,", "\"traceMeta\":{\"xmem_schema_version\":2},",
      "\"traceEvents\":[],", "\"args\":7,", "\"Device Id\":1e10,"};
  util::Rng rng(20261017);
  int mismatches = 0;
  int parsed_ok = 0;
  constexpr int kMutations = 100000;
  for (int i = 0; i < kMutations; ++i) {
    std::string text = doc;
    const int edits = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < edits && !text.empty(); ++k) {
      const std::size_t at = rng.next_below(text.size());
      switch (rng.next_below(4)) {
        case 0:  // overwrite a byte with any byte
          text[at] = static_cast<char>(rng.next_below(256));
          break;
        case 1:  // delete a short run
          text.erase(at, 1 + rng.next_below(4));
          break;
        case 2:  // insert a fragment
          text.insert(at, fragments[rng.next_below(fragments.size())]);
          break;
        default:  // overwrite a byte with a fragment's first byte
          text[at] = fragments[rng.next_below(fragments.size())][0];
          break;
      }
    }
    const std::string diff = compare_readers(text);
    if (diff.empty()) {
      if (run_reader([](const std::string& s) {
            return Trace::from_json_string(s);
          }, text).trace) {
        ++parsed_ok;
      }
    } else if (++mismatches <= 5) {
      ADD_FAILURE() << diff << "\ninput: " << text;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // The mutations must exercise the semantic paths, not only syntax errors.
  EXPECT_GT(parsed_ok, kMutations / 20);
}

TEST(TraceCodec, EveryTruncationReadsLikeTheReference) {
  const std::string doc = kHandDocument;
  for (std::size_t n = 0; n < doc.size(); ++n) {
    const std::string prefix = doc.substr(0, n);
    ASSERT_EQ(compare_readers(prefix), "") << "prefix of " << n << " bytes";
  }
}

TEST(TraceCodec, IndentedRealTraceReadsLikeTheReference) {
  const Trace original = profile_zoo("distilgpt2", 5, false);
  const std::string pretty = original.to_json_string(2);
  EXPECT_EQ(compare_readers(pretty), "");
  // Whitespace is all that differs from the compact form.
  EXPECT_TRUE(same_traces(Trace::from_json_string(pretty),
                          Trace::from_json_string(original.to_json_string())));
}

}  // namespace
}  // namespace xmem::trace
