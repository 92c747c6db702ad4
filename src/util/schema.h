// Declarative JSON schemas: one field table per request and report type.
//
// A table declares each field once: its JSON name, the member it binds (a
// member-pointer chain), whether it is required, its integer range, and
// when it is written (always, when changed, while a bool member is true, or
// with timings). read_object() and write_object() walk the table, so
// parsing, checking and canonical re-emission cannot disagree. The rules
// and the error format,
//   <context>: "<field>" must be <expectation>, got <value>
// are in docs/API.md "Request fields" ("Report fields": write-only tables).
// A value with its own JSON form plugs in as a codec: a class with `kExpect`
// and static `read(json, value, path, info)` and `write(value, timings)`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json.h"

namespace xmem::util::schema {

/// Where a value sits in a document: a chain of stack frames up to a root
/// context such as "plan request". Rendered only when an error is thrown.
struct Path {
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  const char* name;
  const Path* parent = nullptr;
  std::size_t index = kNoIndex;  ///< set for array elements

  std::string str() const;  ///< "fleet request jobs[3].job"
};

/// Throw the error for the value at `at`; a null `got` reads "got nothing".
[[noreturn]] void fail(const Path& at, const std::string& expect,
                       const Json* got);

enum Flags : unsigned {
  kOptional = 0,
  kRequired = 1,   ///< absence is an error; a required array is non-empty
  kIfChanged = 2,  ///< emitted only when it differs from the default
  kTiming = 4,     ///< a wall-clock reading: emitted only with timings
};

/// The type-independent half of a field: what docs and tests enumerate.
struct FieldInfo {
  const char* name;
  const char* expect;  ///< nullptr for integers: rendered from the range
  unsigned flags = kOptional;
  std::int64_t min = 0;  ///< integer fields have min < max
  std::int64_t max = 0;

  bool integer() const { return min < max; }
  std::string expectation() const;
};

template <typename T>
struct Field : FieldInfo {
  void (*read)(const Json& value, T& out, const Path& at,
               const FieldInfo& info);  ///< null in write-only tables
  Json (*write)(const T& in, bool timings);
  bool T::*when = nullptr;  ///< set: emitted only while this member is true
};

template <typename T>
using Schema = std::span<const Field<T>>;

template <typename T>
void read_object(const Json& json, T& out, const Path& at, Schema<T> fields) {
  if (!json.is_object()) fail(at, "an object", &json);
  std::uint64_t seen = 0;  // bit i: fields[i] was present (< 64 fields)
  for (const auto& [key, value] : json.as_object()) {
    std::size_t i = 0;
    while (i < fields.size() && key != fields[i].name) ++i;
    if (i == fields.size()) {
      std::string known;
      for (const FieldInfo& f : fields) known.append(", ").append(f.name);
      fail(Path{key.c_str(), &at}, "a known field (" + known.substr(2) + ")",
           &value);
    }
    fields[i].read(value, out, Path{fields[i].name, &at}, fields[i]);
    seen |= std::uint64_t{1} << i;
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if ((fields[i].flags & kRequired) != 0 && (seen >> i & 1) == 0) {
      fail(Path{fields[i].name, &at}, fields[i].expectation(), nullptr);
    }
  }
}

/// The type-independent half of a table's fields, for docs and tests.
template <typename Table>
std::vector<FieldInfo> infos(const Table& table) {
  return {std::begin(table), std::end(table)};
}

template <typename T>
T parse(const Json& json, const Path& at, Schema<T> fields) {
  T out;
  read_object(json, out, at, fields);
  return out;
}

/// `timings` false leaves out every kTiming field, nested objects' too.
template <typename T>
Json write_object(const T& in, Schema<T> fields, bool timings = true) {
  static const T defaults = T();
  Json out = Json::object();
  for (const Field<T>& field : fields) {
    if ((field.when != nullptr && !(in.*field.when)) ||
        ((field.flags & kTiming) != 0 && !timings)) {
      continue;
    }
    Json value = field.write(in, timings);
    if ((field.flags & kIfChanged) == 0 ||
        !(value == field.write(defaults, timings))) {
      out[field.name] = std::move(value);
    }
  }
  return out;
}

// --- codecs ------------------------------------------------------------------

/// A JSON integer inside [info.min, info.max], checked before narrowing.
struct Int {
  static constexpr const char* kExpect = nullptr;
  template <typename V>
  static void read(const Json& value, V& out, const Path& at,
                   const FieldInfo& info) {
    if (!value.is_int() || value.as_int() < info.min ||
        value.as_int() > info.max) {
      fail(at, info.expectation(), &value);
    }
    out = static_cast<V>(value.as_int());
  }
  template <typename V>
  static Json write(V value, bool = true) {
    return Json(static_cast<std::int64_t>(value));
  }
};

/// A double; reports carry seconds this way.
struct Double {
  static Json write(double value, bool = true) { return Json(value); }
};

/// A bool or a std::string.
template <typename V>
struct Scalar {
  static constexpr const char* kExpect =
      std::is_same_v<V, bool> ? "a boolean" : "a string";
  static void read(const Json& value, V& out, const Path& at,
                   const FieldInfo& info) {
    if (!(std::is_same_v<V, bool> ? value.is_bool() : value.is_string())) {
      fail(at, info.expectation(), &value);
    }
    if constexpr (std::is_same_v<V, bool>) out = value.as_bool();
    if constexpr (!std::is_same_v<V, bool>) out = value.as_string();
  }
  static Json write(const V& value, bool = true) { return Json(value); }
};
using Bool = Scalar<bool>;
using Str = Scalar<std::string>;

/// An enumerator by name: `Parse` throws std::invalid_argument on unknown
/// names, and the enum's to_string() (found by ADL) writes it. A nullptr
/// `Parse` makes a write-only codec.
template <auto Parse>
struct Enum {
  static constexpr const char* kExpect = nullptr;  // tables list the names
  template <typename V>
  static void read(const Json& value, V& out, const Path& at,
                   const FieldInfo& info) {
    try {
      if (value.is_string()) {
        out = Parse(value.as_string());
        return;
      }
    } catch (const std::invalid_argument&) {
    }
    fail(at, info.expectation(), &value);
  }
  template <typename V>
  static Json write(V value, bool = true) { return Json(to_string(value)); }
};

/// A nested object read through its own table.
template <const auto& Table>
struct Obj {
  static constexpr const char* kExpect = "an object";
  template <typename V>
  static void read(const Json& value, V& out, const Path& at,
                   const FieldInfo&) {
    read_object<V>(value, out, at, Table);
  }
  template <typename V>
  static Json write(const V& value, bool timings = true) {
    return write_object<V>(value, Table, timings);
  }
};

/// A JSON array as a std::vector; a present array replaces the default.
template <typename Codec>
struct List {
  static constexpr const char* kExpect = "an array";
  template <typename V>
  static void read(const Json& value, std::vector<V>& out, const Path& at,
                   const FieldInfo& info) {
    if (!value.is_array() || ((info.flags & kRequired) && value.size() == 0)) {
      fail(at, info.expectation(), &value);
    }
    out.clear();
    for (const Json& element : value.as_array()) {
      const Path element_at{at.name, at.parent, out.size()};
      Codec::read(element, out.emplace_back(), element_at,
                  FieldInfo{info.name, Codec::kExpect});
    }
  }
  template <typename V>
  static Json write(const std::vector<V>& values, bool timings = true) {
    Json out = Json::array();
    for (const V& value : values) out.push_back(Codec::write(value, timings));
    return out;
  }
};

/// A JSON object keyed by free-form names, as a std::map.
template <typename Codec>
struct Dict {
  static constexpr const char* kExpect = "an object";
  template <typename V>
  static void read(const Json& value, std::map<std::string, V>& out,
                   const Path& at, const FieldInfo& info) {
    if (!value.is_object()) fail(at, info.expectation(), &value);
    for (const auto& [key, element] : value.as_object()) {
      Codec::read(element, out[key], Path{key.c_str(), &at},
                  FieldInfo{info.name, Codec::kExpect});
    }
  }
  template <typename V>
  static Json write(const std::map<std::string, V>& values,
                    bool timings = true) {
    Json out = Json::object();
    for (const auto& [key, value] : values) {
      out[key] = Codec::write(value, timings);
    }
    return out;
  }
};

/// A std::pair as a two-element array, e.g. a curve's [ts, bytes] point.
template <typename First, typename Second>
struct Pair {
  template <typename A, typename B>
  static Json write(const std::pair<A, B>& value, bool timings = true) {
    Json out = Json::array();
    out.push_back(First::write(value.first, timings));
    out.push_back(Second::write(value.second, timings));
    return out;
  }
};

// --- field factories ---------------------------------------------------------

template <typename C, typename V>
C owner_of(V C::*);
template <auto M>
using Owner = decltype(owner_of(M));
template <auto M, auto... Ms>
using Value = std::remove_cvref_t<decltype((
    (std::declval<Owner<M>&>().*M) .* ... .* Ms))>;

/// A field read and written by `Codec` through the member chain M, Ms...
/// (`&HeadroomPolicy::base, &HeadroomRule::percent` reaches a nested
/// member).
template <typename Codec, auto M, auto... Ms>
constexpr Field<Owner<M>> field(const char* name, unsigned flags = kOptional,
                                const char* expect = Codec::kExpect,
                                std::int64_t min = 0, std::int64_t max = 0) {
  return {{name, expect, flags, min, max},
          [](const Json& value, Owner<M>& out, const Path& at,
             const FieldInfo& info) {
            Codec::read(value, ((out.*M) .* ... .* Ms), at, info);
          },
          [](const Owner<M>& in, bool timings) {
            return Codec::write(((in.*M) .* ... .* Ms), timings);
          }};
}

/// A write-only field (report tables) written by `Codec` through M, Ms...;
/// a `when` member gates it like Field::when.
template <typename Codec, auto M, auto... Ms>
constexpr Field<Owner<M>> emit(const char* name, unsigned flags = kOptional,
                               bool Owner<M>::*when = nullptr) {
  return {{name, nullptr, flags},
          nullptr,
          [](const Owner<M>& in, bool timings) {
            return Codec::write(((in.*M) .* ... .* Ms), timings);
          },
          when};
}

/// A nested object written from other members of the owner through its
/// own `Table`, e.g. a report's `stage_counters`.
template <typename T, const auto& Table>
constexpr Field<T> group(const char* name, bool T::*when = nullptr) {
  return {{name, nullptr}, nullptr, &Obj<Table>::template write<T>, when};
}

/// A constant, e.g. a report's `schema_version`.
template <typename T, std::int64_t V>
constexpr Field<T> constant(const char* name) {
  return {{name, nullptr}, nullptr, [](const T&, bool) { return Json(V); }};
}

/// An integer field; the range defaults to the member type's own range,
/// clipped to what a JSON integer can carry.
template <auto M, auto... Ms>
constexpr Field<Owner<M>> integer(
    const char* name,
    std::int64_t min = std::numeric_limits<Value<M, Ms...>>::min(),
    std::int64_t max = static_cast<std::int64_t>(std::min<std::uint64_t>(
        std::numeric_limits<Value<M, Ms...>>::max(),
        std::numeric_limits<std::int64_t>::max()))) {
  return field<Int, M, Ms...>(name, kOptional, nullptr, min, max);
}

template <typename T>
constexpr Field<T> required(Field<T> field) {
  field.flags |= kRequired;
  return field;
}

}  // namespace xmem::util::schema
