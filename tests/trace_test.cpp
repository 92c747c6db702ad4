#include "trace/trace.h"

#include <gtest/gtest.h>

namespace xmem::trace {
namespace {

TraceEvent make_span(EventKind kind, const std::string& name, std::int64_t id,
                     std::int64_t parent, util::TimeUs ts, util::TimeUs dur) {
  TraceEvent e;
  e.kind = kind;
  e.name = name;
  e.id = id;
  e.parent_id = parent;
  e.ts = ts;
  e.dur = dur;
  return e;
}

TraceEvent make_memory(std::int64_t id, std::uint64_t addr, std::int64_t bytes,
                       std::int64_t total, util::TimeUs ts) {
  TraceEvent e;
  e.kind = EventKind::kCpuInstantEvent;
  e.name = "[memory]";
  e.id = id;
  e.addr = addr;
  e.bytes = bytes;
  e.total_allocated = total;
  e.ts = ts;
  e.device_id = -1;
  return e;
}

Trace make_sample_trace() {
  Trace t;
  t.model_name = "gpt2";
  t.optimizer_name = "AdamW";
  t.batch_size = 8;
  t.iterations = 3;
  t.backend = "cpu";
  t.add(make_span(EventKind::kUserAnnotation, "ProfilerStep#0", 0, -1, 0, 100));
  t.add(make_span(EventKind::kPythonFunction, "nn.Module: Linear_0", 1, 0, 5, 40));
  TraceEvent op = make_span(EventKind::kCpuOp, "aten::addmm", 2, 1, 10, 20);
  op.seq = 7;
  t.add(op);
  t.add(make_memory(3, 0x1000, 4096, 4096, 12));
  t.add(make_memory(4, 0x1000, -4096, 0, 28));
  return t;
}

TEST(Trace, EventKindNames) {
  EXPECT_STREQ(to_string(EventKind::kPythonFunction), "python_function");
  EXPECT_STREQ(to_string(EventKind::kUserAnnotation), "user_annotation");
  EXPECT_STREQ(to_string(EventKind::kCpuOp), "cpu_op");
  EXPECT_STREQ(to_string(EventKind::kCpuInstantEvent), "cpu_instant_event");
}

TEST(Trace, AllocationPredicates) {
  const TraceEvent alloc = make_memory(0, 0x10, 512, 512, 0);
  const TraceEvent dealloc = make_memory(1, 0x10, -512, 0, 1);
  EXPECT_TRUE(alloc.is_allocation());
  EXPECT_FALSE(alloc.is_deallocation());
  EXPECT_TRUE(dealloc.is_deallocation());
  EXPECT_FALSE(dealloc.is_allocation());
}

TEST(Trace, JsonRoundTripPreservesEverything) {
  const Trace original = make_sample_trace();
  const Trace parsed = Trace::from_json_string(original.to_json_string());

  EXPECT_EQ(parsed.model_name, "gpt2");
  EXPECT_EQ(parsed.optimizer_name, "AdamW");
  EXPECT_EQ(parsed.batch_size, 8);
  EXPECT_EQ(parsed.iterations, 3);
  EXPECT_EQ(parsed.backend, "cpu");
  ASSERT_EQ(parsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    const TraceEvent& a = original.events[i];
    const TraceEvent& b = parsed.events[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.name, b.name) << i;
    EXPECT_EQ(a.ts, b.ts) << i;
    EXPECT_EQ(a.dur, b.dur) << i;
    EXPECT_EQ(a.addr, b.addr) << i;
    EXPECT_EQ(a.bytes, b.bytes) << i;
    EXPECT_EQ(a.total_allocated, b.total_allocated) << i;
  }
  // Sequence numbers and hierarchy survive.
  EXPECT_EQ(parsed.events[2].seq, 7);
  EXPECT_EQ(parsed.events[1].parent_id, 0);
}

TEST(Trace, JsonHasProfilerShape) {
  const util::Json doc = make_sample_trace().to_json();
  EXPECT_EQ(doc.at("schemaVersion").as_int(), 1);
  ASSERT_TRUE(doc.contains("traceEvents"));
  const util::Json& first = doc.at("traceEvents")[0];
  EXPECT_EQ(first.at("cat").as_string(), "user_annotation");
  EXPECT_EQ(first.at("ph").as_string(), "X");
  // Memory events are Chrome instant events with the PyTorch arg names.
  const util::Json& mem = doc.at("traceEvents")[3];
  EXPECT_EQ(mem.at("ph").as_string(), "i");
  EXPECT_EQ(mem.at("args").at("Bytes").as_int(), 4096);
  EXPECT_TRUE(mem.at("args").contains("Total Allocated"));
  EXPECT_TRUE(mem.at("args").contains("Addr"));
}

TEST(Trace, MalformedDocumentsThrow) {
  EXPECT_THROW(Trace::from_json_string("{}"), std::runtime_error);
  EXPECT_THROW(Trace::from_json_string("[1,2]"), std::runtime_error);
  EXPECT_THROW(Trace::from_json_string("not json"), util::JsonParseError);
  // A traceEvents that is not an array is a runtime_error naming it.
  try {
    Trace::from_json_string(R"({"traceEvents": 5})");
    ADD_FAILURE() << "a non-array traceEvents was accepted";
  } catch (const util::JsonParseError& e) {
    ADD_FAILURE() << "not a parse error: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("traceEvents"), std::string::npos);
  }
  // Unknown category.
  EXPECT_THROW(
      Trace::from_json_string(
          R"({"traceEvents":[{"cat":"gpu_op","name":"x","ph":"X","ts":0}]})"),
      std::runtime_error);
}

TEST(Trace, LargeAddressesSurviveJson) {
  Trace t = make_sample_trace();
  t.events[3].addr = 0x7F12'3456'7890ULL;
  const Trace parsed = Trace::from_json_string(t.to_json_string());
  EXPECT_EQ(parsed.events[3].addr, 0x7F12'3456'7890ULL);
}

}  // namespace
}  // namespace xmem::trace
