#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

namespace {

void append_escaped(std::string& out, const std::string& s) {
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
    case Json::Type::String: append_escaped(out, v.as_string()); break;
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
        append_escaped(out, key);
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

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      throw JsonParseError("trailing characters after JSON document", pos_);
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, pos_);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char expected, const char* what) {
    if (!consume(expected)) fail(std::string("expected ") + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return nested(&Parser::parse_object);
      case '[': return nested(&Parser::parse_array);
      case '"': return Json(parse_string());
      case 't': return parse_literal("true", Json(true));
      case 'f': return parse_literal("false", Json(false));
      case 'n': return parse_literal("null", Json(nullptr));
      default: return parse_number();
    }
  }

  Json nested(Json (Parser::*parse_container)()) {
    if (++depth_ > Json::kMaxDepth) {
      fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
           " levels");
    }
    Json value = (this->*parse_container)();
    --depth_;
    return value;
  }

  Json parse_literal(std::string_view literal, Json value) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("invalid literal");
    }
    pos_ += literal.size();
    return value;
  }

  Json parse_object() {
    expect('{', "'{'");
    JsonObject obj;
    skip_whitespace();
    if (consume('}')) return Json(std::move(obj));
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_whitespace();
      expect(':', "':'");
      obj[std::move(key)] = parse_value();
      skip_whitespace();
      if (consume(',')) continue;
      expect('}', "'}' or ','");
      break;
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[', "'['");
    JsonArray arr;
    skip_whitespace();
    if (consume(']')) return Json(std::move(arr));
    while (true) {
      arr.push_back(parse_value());
      skip_whitespace();
      if (consume(',')) continue;
      expect(']', "']' or ','");
      break;
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    while (true) {
      const char c = advance();
      if (c == '"') break;
      if (c == '\\') {
        const char esc = advance();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = parse_hex4();
            if (code >= 0xD800 && code <= 0xDBFF) {
              // Surrogate pair.
              if (!consume('\\') || !consume('u')) {
                fail("unpaired UTF-16 surrogate");
              }
              const unsigned low = parse_hex4();
              if (low < 0xDC00 || low > 0xDFFF) {
                fail("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            append_utf8(out, code);
            break;
          }
          default: fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = advance();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
      // sign consumed
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool is_floating = false;
    if (consume('.')) {
      is_floating = true;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_floating = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (!is_floating) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end == token.c_str() + token.size()) {
        return Json(static_cast<std::int64_t>(v));
      }
      // Falls through to double for out-of-range integers.
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    return Json(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(*this, out, indent, 0);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace xmem::util
