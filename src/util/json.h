// Minimal, dependency-free JSON value / parser / writer.
//
// Requests, reports and server frames go through this DOM. Profiler traces
// are written and read without it (trace/trace.cpp), but parse() and the
// trace reader share one lexer, util::JsonCursor (json_cursor.h). It
// supports the full JSON grammar except for exotic numbers (NaN/Inf are
// not valid JSON and are rejected on write); integers that fit in int64 are
// preserved exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace xmem::util {

class Json;
using JsonArray = std::vector<Json>;
// std::map (ordered) keeps serialization deterministic across runs.
using JsonObject = std::map<std::string, Json>;

class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int v) : value_(static_cast<std::int64_t>(v)) {}
  Json(unsigned v) : value_(static_cast<std::int64_t>(v)) {}
  Json(long v) : value_(static_cast<std::int64_t>(v)) {}
  Json(long long v) : value_(static_cast<std::int64_t>(v)) {}
  Json(double v) : value_(v) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  static Json array() { return Json(JsonArray{}); }
  static Json object() { return Json(JsonObject{}); }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::Null; }
  bool is_bool() const { return type() == Type::Bool; }
  bool is_int() const { return type() == Type::Int; }
  bool is_double() const { return type() == Type::Double; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::String; }
  bool is_array() const { return type() == Type::Array; }
  bool is_object() const { return type() == Type::Object; }

  bool as_bool() const { return std::get<bool>(value_); }
  std::int64_t as_int() const {
    if (is_double()) return static_cast<std::int64_t>(std::get<double>(value_));
    return std::get<std::int64_t>(value_);
  }
  double as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
    return std::get<double>(value_);
  }
  const std::string& as_string() const { return std::get<std::string>(value_); }

  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }

  /// Object access. `operator[]` creates members on mutable objects like a
  /// typical JSON API; `at` throws on absence; `get_or` never throws.
  Json& operator[](const std::string& key);
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t fallback) const;
  std::string get_string_or(const std::string& key,
                            const std::string& fallback) const;

  /// Array helpers.
  void push_back(Json v);
  std::size_t size() const;
  Json& operator[](std::size_t index) { return as_array()[index]; }
  const Json& operator[](std::size_t index) const { return as_array()[index]; }

  bool operator==(const Json& other) const { return value_ == other.value_; }

  /// Serialize. `indent < 0` => compact single-line output.
  std::string dump(int indent = -1) const;

  /// Deepest array/object nesting parse() accepts. Every document the
  /// program reads (traces, requests, reports) nests a handful of levels;
  /// the cap keeps a hostile frame of nested brackets from exhausting the
  /// parser's stack.
  static constexpr int kMaxDepth = 64;

  /// Parse a complete JSON document; throws JsonParseError on malformed
  /// input (including trailing garbage and nesting deeper than kMaxDepth).
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      value_;
};

/// Append `s` as a quoted JSON string literal, escaping quotes, backslashes
/// and control characters; bytes >= 0x80 pass through unchanged.
void append_json_string(std::string& out, std::string_view s);

}  // namespace xmem::util
