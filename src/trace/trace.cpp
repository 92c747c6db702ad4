#include "trace/trace.h"

#include <charconv>
#include <exception>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/json_cursor.h"

namespace xmem::trace {

using util::Json;
using util::JsonCursor;
using util::JsonNumber;
using util::JsonToken;

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kPythonFunction: return "python_function";
    case EventKind::kUserAnnotation: return "user_annotation";
    case EventKind::kCpuOp: return "cpu_op";
    case EventKind::kCpuInstantEvent: return "cpu_instant_event";
  }
  return "unknown";
}

namespace {

EventKind kind_from_string(std::string_view s) {
  if (s == "python_function") return EventKind::kPythonFunction;
  if (s == "user_annotation") return EventKind::kUserAnnotation;
  if (s == "cpu_op") return EventKind::kCpuOp;
  if (s == "cpu_instant_event") return EventKind::kCpuInstantEvent;
  std::string message = "Trace: unknown event category '";
  message += s;
  message += '\'';
  throw std::runtime_error(message);
}

// ---------- writer ----------

void append_int(std::string& out, std::int64_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// Keys go out in byte order at every level — the order util::Json's
// std::map objects dump in — so the text equals a util::Json rendering.
void append_event(std::string& out, const TraceEvent& e) {
  out += "{\"args\":{";
  switch (e.kind) {
    case EventKind::kCpuInstantEvent:
      out += "\"Addr\":";
      append_int(out, static_cast<std::int64_t>(e.addr));
      out += ",\"Bytes\":";
      append_int(out, e.bytes);
      out += ",\"Device Id\":";
      append_int(out, e.device_id);
      out += ",\"Ev Idx\":";
      append_int(out, e.id);
      out += ",\"Total Allocated\":";
      append_int(out, e.total_allocated);
      break;
    case EventKind::kPythonFunction:
      out += "\"Ev Idx\":";
      append_int(out, e.id);
      out += ",\"Python id\":";
      append_int(out, e.id);
      out += ",\"Python parent id\":";
      append_int(out, e.parent_id);
      break;
    case EventKind::kCpuOp:
      out += "\"Ev Idx\":";
      append_int(out, e.id);
      out += ",\"Parent id\":";
      append_int(out, e.parent_id);
      if (e.seq >= 0) {
        out += ",\"Sequence number\":";
        append_int(out, e.seq);
      }
      break;
    case EventKind::kUserAnnotation:
      out += "\"Ev Idx\":";
      append_int(out, e.id);
      break;
  }
  out += "},\"cat\":\"";
  out += to_string(e.kind);
  out += '"';
  const bool instant = e.kind == EventKind::kCpuInstantEvent;
  if (!instant) {
    out += ",\"dur\":";
    append_int(out, e.dur);
  }
  out += ",\"name\":";
  util::append_json_string(out, e.name);
  out += instant ? ",\"ph\":\"i\",\"pid\":0,\"s\":\"t\",\"tid\":0,\"ts\":"
                 : ",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":";
  append_int(out, e.ts);
  out += '}';
}

// ---------- reader ----------

// A number-valued field as last read. A value that is not a number reads
// as absent, like a missing key, so the field takes its default.
struct NumberField {
  bool present = false;
  JsonNumber number;
};

void read_number_field(JsonCursor& in, NumberField& field) {
  field.present = in.peek() == JsonToken::kNumber;
  if (field.present) {
    field.number = in.read_number();
  } else {
    in.skip_value();
  }
}

void read_string_field(JsonCursor& in, std::string& field) {
  if (in.peek() == JsonToken::kString) {
    field.assign(in.read_string());
  } else {
    field.clear();
    in.skip_value();
  }
}

[[noreturn]] void out_of_range(const char* field, const char* type) {
  throw std::runtime_error(std::string("Trace: \"") + field +
                           "\" is outside the " + type + " range");
}

std::int64_t to_int64(const NumberField& field, std::int64_t fallback,
                      const char* name) {
  if (!field.present) return fallback;
  if (field.number.is_int) return field.number.int_value;
  // Doubles in [-2^63, 2^63) truncate to an int64; anything else
  // (including ±inf from an overlong literal) would be undefined.
  const double value = field.number.double_value;
  if (!(value >= -0x1p63 && value < 0x1p63)) out_of_range(name, "int64");
  return static_cast<std::int64_t>(value);
}

int to_int(const NumberField& field, int fallback, const char* name) {
  const std::int64_t value = to_int64(field, fallback, name);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    out_of_range(name, "int");
  }
  return static_cast<int>(value);
}

struct EventArgs {
  NumberField ev_idx, python_id, python_parent_id, parent_id, seq, addr,
      bytes, total_allocated, device_id;
};

constexpr struct {
  std::string_view key;
  NumberField EventArgs::*field;
} kArgFields[] = {
    {"Ev Idx", &EventArgs::ev_idx},
    {"Addr", &EventArgs::addr},
    {"Bytes", &EventArgs::bytes},
    {"Total Allocated", &EventArgs::total_allocated},
    {"Device Id", &EventArgs::device_id},
    {"Parent id", &EventArgs::parent_id},
    {"Sequence number", &EventArgs::seq},
    {"Python id", &EventArgs::python_id},
    {"Python parent id", &EventArgs::python_parent_id},
};

// One traceEvents element as read so far (its name is read straight into
// the TraceEvent). It is resolved once the element is closed, so the last
// of duplicate keys wins and the id fallbacks see every key.
struct EventFields {
  std::string cat;
  NumberField ts, dur;
  EventArgs args;
};

void read_args(JsonCursor& in, EventArgs& args) {
  args = {};
  if (in.peek() != JsonToken::kObject) {
    in.skip_value();
    return;
  }
  in.begin_object();
  std::string_view key;
  while (in.next_member(key)) {
    NumberField* field = nullptr;
    for (const auto& entry : kArgFields) {
      if (key == entry.key) {
        field = &(args.*entry.field);
        break;
      }
    }
    if (field != nullptr) {
      read_number_field(in, *field);
    } else {
      in.skip_value();
    }
  }
}

void read_event(JsonCursor& in, EventFields& fields, TraceEvent& e) {
  fields.cat.clear();
  fields.ts = fields.dur = {};
  fields.args = {};
  if (in.peek() != JsonToken::kObject) {
    in.skip_value();
    return;
  }
  in.begin_object();
  std::string_view key;
  while (in.next_member(key)) {
    if (key == "args") {
      read_args(in, fields.args);
    } else if (key == "cat") {
      read_string_field(in, fields.cat);
    } else if (key == "name") {
      read_string_field(in, e.name);
    } else if (key == "ts") {
      read_number_field(in, fields.ts);
    } else if (key == "dur") {
      read_number_field(in, fields.dur);
    } else {
      in.skip_value();
    }
  }
}

// Throws std::runtime_error for an unknown category or an out-of-range
// number; the category is checked first, then the fields in event order.
void resolve_event(const EventFields& fields, TraceEvent& e) {
  e.kind = kind_from_string(fields.cat);
  e.ts = to_int64(fields.ts, 0, "ts");
  e.dur = to_int64(fields.dur, 0, "dur");
  const EventArgs& args = fields.args;
  e.id = to_int64(args.ev_idx, to_int64(args.python_id, -1, "Python id"),
                  "Ev Idx");
  e.parent_id =
      to_int64(args.python_parent_id,
               to_int64(args.parent_id, -1, "Parent id"), "Python parent id");
  e.seq = to_int64(args.seq, -1, "Sequence number");
  e.addr = static_cast<std::uint64_t>(to_int64(args.addr, 0, "Addr"));
  e.bytes = to_int64(args.bytes, 0, "Bytes");
  e.total_allocated = to_int64(args.total_allocated, 0, "Total Allocated");
  e.device_id = to_int(args.device_id, -1, "Device Id");
}

// A compact event takes about this many bytes of JSON; the reader
// reserves for a compact file and trims what it over-reserved.
constexpr std::size_t kCompactEventBytes = 160;

// Reads a traceEvents array. The first event that fails to resolve is
// kept in `error` and the rest are only syntax-checked, so a syntax error
// later in the document still wins.
void read_events(JsonCursor& in, std::vector<TraceEvent>& events,
                 std::exception_ptr& error) {
  in.begin_array();
  EventFields fields;
  while (in.next_element()) {
    if (error) {
      in.skip_value();
      continue;
    }
    TraceEvent& e = events.emplace_back();
    read_event(in, fields, e);
    try {
      resolve_event(fields, e);
    } catch (const std::runtime_error&) {
      events.pop_back();
      error = std::current_exception();
    }
  }
}

struct MetaFields {
  NumberField version, batch_size, iterations;
  std::string model, optimizer, backend;
};

void read_meta(JsonCursor& in, MetaFields& meta) {
  meta = {};
  if (in.peek() != JsonToken::kObject) {
    in.skip_value();
    return;
  }
  in.begin_object();
  std::string_view key;
  while (in.next_member(key)) {
    if (key == "xmem_schema_version") {
      read_number_field(in, meta.version);
    } else if (key == "model") {
      read_string_field(in, meta.model);
    } else if (key == "optimizer") {
      read_string_field(in, meta.optimizer);
    } else if (key == "batch_size") {
      read_number_field(in, meta.batch_size);
    } else if (key == "iterations") {
      read_number_field(in, meta.iterations);
    } else if (key == "backend") {
      read_string_field(in, meta.backend);
    } else {
      in.skip_value();
    }
  }
}

}  // namespace

std::string Trace::to_json_string(int indent) const {
  if (indent >= 0) return to_json().dump(indent);
  std::string out;
  out.reserve(256 + events.size() * 192);
  out += "{\"schemaVersion\":1,\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ',';
    append_event(out, events[i]);
  }
  out += "],\"traceMeta\":{\"backend\":";
  util::append_json_string(out, backend);
  out += ",\"batch_size\":";
  append_int(out, batch_size);
  out += ",\"iterations\":";
  append_int(out, iterations);
  out += ",\"model\":";
  util::append_json_string(out, model_name);
  out += ",\"optimizer\":";
  util::append_json_string(out, optimizer_name);
  out += ",\"xmem_schema_version\":";
  append_int(out, kSchemaVersion);
  out += "}}";
  return out;
}

Trace Trace::from_json_string(std::string_view text) {
  JsonCursor in(text);
  Trace t;
  t.schema_version = 0;  // legacy unless traceMeta says otherwise
  MetaFields meta;
  bool has_events = false;
  bool events_are_array = false;
  std::exception_ptr event_error;
  if (in.peek() == JsonToken::kObject) {
    in.begin_object();
    std::string_view key;
    while (in.next_member(key)) {
      if (key == "traceEvents") {
        has_events = true;
        t.events.clear();
        event_error = nullptr;
        events_are_array = in.peek() == JsonToken::kArray;
        if (events_are_array) {
          t.events.reserve(text.size() / kCompactEventBytes);
          read_events(in, t.events, event_error);
        } else {
          in.skip_value();
        }
      } else if (key == "traceMeta") {
        read_meta(in, meta);
      } else {
        in.skip_value();
      }
    }
  } else {
    in.skip_value();
  }
  in.finish();

  // Meaning is checked only now that the whole document has parsed, so a
  // truncated or garbled file always fails as util::JsonParseError.
  if (!has_events) {
    throw std::runtime_error("Trace: document has no traceEvents array");
  }
  // Compat check: files without the field predate versioning (version 0)
  // and stay loadable; files from a newer writer are refused here rather
  // than misread event-by-event downstream.
  const std::int64_t version = to_int64(meta.version, 0, "xmem_schema_version");
  if (version < 0 || version > kSchemaVersion) {
    throw std::runtime_error(
        "Trace: unsupported xmem_schema_version " + std::to_string(version) +
        " (this build reads <= " + std::to_string(kSchemaVersion) + ")");
  }
  t.schema_version = static_cast<int>(version);
  t.model_name = std::move(meta.model);
  t.optimizer_name = std::move(meta.optimizer);
  t.batch_size = to_int(meta.batch_size, 0, "batch_size");
  t.iterations = to_int(meta.iterations, 0, "iterations");
  t.backend = std::move(meta.backend);
  if (!events_are_array) {
    throw std::runtime_error("Trace: \"traceEvents\" is not an array");
  }
  if (event_error) std::rethrow_exception(event_error);
  t.events.shrink_to_fit();  // sessions keep traces; drop the slack
  return t;
}

Json Trace::to_json() const { return Json::parse(to_json_string()); }

Trace Trace::from_json(const Json& doc) { return from_json_string(doc.dump()); }

void Trace::save(const std::string& path, int indent) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("Trace::save: cannot open " + path);
  }
  out << to_json_string(indent);
  if (!out) {
    throw std::runtime_error("Trace::save: write failed for " + path);
  }
}

Trace Trace::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("Trace::load: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json_string(buffer.str());
}

}  // namespace xmem::trace
