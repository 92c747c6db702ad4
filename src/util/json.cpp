#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/json_cursor.h"

namespace xmem::util {

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::out_of_range("Json::at: missing key '" + key + "'");
  }
  return it->second;
}

bool Json::contains(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().count(key) > 0;
}

std::int64_t Json::get_int_or(const std::string& key,
                              std::int64_t fallback) const {
  if (!is_object()) return fallback;
  auto it = as_object().find(key);
  if (it == as_object().end() || !it->second.is_number()) return fallback;
  return it->second.as_int();
}

std::string Json::get_string_or(const std::string& key,
                                const std::string& fallback) const {
  if (!is_object()) return fallback;
  auto it = as_object().find(key);
  if (it == as_object().end() || !it->second.is_string()) return fallback;
  return it->second.as_string();
}

void Json::push_back(Json v) {
  if (is_null()) value_ = JsonArray{};
  as_array().push_back(std::move(v));
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

namespace {

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    throw std::invalid_argument("Json: NaN/Inf are not representable in JSON");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
  // Ensure the value re-parses as a double, not an int.
  if (out.find_first_of(".eE", out.size() - std::strlen(buf)) == std::string::npos) {
    out += ".0";
  }
}

void dump_impl(const Json& v, std::string& out, int indent, int depth) {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(static_cast<std::size_t>(indent) *
                                                   static_cast<std::size_t>(depth + 1),
                                               ' ')
                                 : "";
  const std::string close_pad =
      pretty ? std::string(static_cast<std::size_t>(indent) *
                               static_cast<std::size_t>(depth),
                           ' ')
             : "";
  switch (v.type()) {
    case Json::Type::Null: out += "null"; break;
    case Json::Type::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Json::Type::Int: out += std::to_string(v.as_int()); break;
    case Json::Type::Double: append_double(out, v.as_double()); break;
    case Json::Type::String: append_json_string(out, v.as_string()); break;
    case Json::Type::Array: {
      const auto& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const auto& item : arr) {
        if (!first) out.push_back(',');
        first = false;
        if (pretty) {
          out.push_back('\n');
          out += pad;
        }
        dump_impl(item, out, indent, depth + 1);
      }
      if (pretty) {
        out.push_back('\n');
        out += close_pad;
      }
      out.push_back(']');
      break;
    }
    case Json::Type::Object: {
      const auto& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out.push_back(',');
        first = false;
        if (pretty) {
          out.push_back('\n');
          out += pad;
        }
        append_json_string(out, key);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        dump_impl(value, out, indent, depth + 1);
      }
      if (pretty) {
        out.push_back('\n');
        out += close_pad;
      }
      out.push_back('}');
      break;
    }
  }
}

Json parse_value(JsonCursor& in) {
  switch (in.peek()) {
    case JsonToken::kObject: {
      in.begin_object();
      JsonObject obj;
      std::string_view key;
      while (in.next_member(key)) {
        std::string name(key);  // the value's strings reuse the key buffer
        obj[std::move(name)] = parse_value(in);
      }
      return Json(std::move(obj));
    }
    case JsonToken::kArray: {
      in.begin_array();
      JsonArray arr;
      while (in.next_element()) arr.push_back(parse_value(in));
      return Json(std::move(arr));
    }
    case JsonToken::kString: return Json(std::string(in.read_string()));
    case JsonToken::kNumber: {
      const JsonNumber number = in.read_number();
      return number.is_int ? Json(number.int_value) : Json(number.double_value);
    }
    case JsonToken::kTrue: in.read_literal(); return Json(true);
    case JsonToken::kFalse: in.read_literal(); return Json(false);
    case JsonToken::kNull: in.read_literal(); return Json(nullptr);
  }
  return Json();
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) {
  JsonCursor in(text);
  Json value = parse_value(in);
  in.finish();
  return value;
}

}  // namespace xmem::util
