// Pull cursor over one JSON document — the program's one JSON lexer.
//
// Json::parse builds its DOM from this cursor and the trace reader
// (trace/trace.cpp) reads profiler events straight off it, so both accept
// exactly one grammar and fail with the same JsonParseError message and
// offset. The cursor checks syntax only: what a value means is up to the
// caller, which asks peek() what comes next and then consumes it with the
// matching call (or skip_value()).
//
// Containers are walked with begin_object()/next_member() and
// begin_array()/next_element(): after begin_*(), call next_*() before each
// member or element; it returns false once it has consumed the closing
// bracket. Nesting deeper than Json::kMaxDepth is rejected.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.h"

namespace xmem::util {

/// A number token. Integers that fit in int64 stay exact; every other
/// number (a fraction, an exponent, or an integer outside int64) is a
/// double, which may be ±inf for literals beyond the double range.
struct JsonNumber {
  bool is_int = true;
  std::int64_t int_value = 0;
  double double_value = 0.0;
};

enum class JsonToken { kObject, kArray, kString, kNumber, kTrue, kFalse, kNull };

class JsonCursor {
 public:
  /// The cursor views `text` without copying it; keep it alive.
  explicit JsonCursor(std::string_view text) : text_(text) {}

  /// Skip whitespace and classify the next value by its first byte without
  /// consuming it; throws at end of input. A byte that starts no container,
  /// string or literal classifies as a number, which read_number() rejects.
  JsonToken peek() {
    skip_whitespace();
    switch (current()) {
      case '{': return JsonToken::kObject;
      case '[': return JsonToken::kArray;
      case '"': return JsonToken::kString;
      case 't': return JsonToken::kTrue;
      case 'f': return JsonToken::kFalse;
      case 'n': return JsonToken::kNull;
      default: return JsonToken::kNumber;
    }
  }

  void begin_object() { open('{', "'{'"); }
  void begin_array() { open('[', "'['"); }

  /// Advance to the next member of the innermost object: true with `key`
  /// set to its name, false once the closing '}' is consumed.
  bool next_member(std::string_view& key) {
    if (!next_item('}', "'}' or ','")) return false;
    skip_whitespace();
    if (current() != '"') fail("expected object key");
    key = read_string();
    skip_whitespace();
    if (!consume(':')) fail("expected ':'");
    return true;
  }

  /// Advance to the next element of the innermost array: true before an
  /// element, false once the closing ']' is consumed.
  bool next_element() { return next_item(']', "']' or ','"); }

  /// Read a string value or key. The view points into the document when
  /// the string has no escapes, else into a decode buffer that the next
  /// string read overwrites.
  std::string_view read_string() {
    skip_whitespace();
    if (!consume('"')) fail("expected '\"'");
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') return text_.substr(start, pos_++ - start);
      if (c == '\\' || c < 0x20) break;
      ++pos_;
    }
    return read_escaped_string(start);
  }

  JsonNumber read_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    consume('-');
    skip_digits();
    bool is_floating = false;
    if (consume('.')) {
      is_floating = true;
      skip_digits();
    }
    if (consume('e') || consume('E')) {
      is_floating = true;
      if (!consume('+')) consume('-');
      skip_digits();
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      fail("invalid number");
    }
    JsonNumber number;
    if (!is_floating) {
      const char* first = text_.data() + start;
      const char* last = text_.data() + pos_;
      const auto [end, error] =
          std::from_chars(first, last, number.int_value);
      if (error == std::errc() && end == last) return number;
      // Falls through to double for out-of-range integers.
    }
    number.is_int = false;
    number.double_value = parse_double(start);
    return number;
  }

  /// Consume the literal peek() classified as kTrue, kFalse or kNull.
  void read_literal();

  /// Consume one value of any type, checking its syntax.
  void skip_value();

  /// Require that only whitespace follows the document.
  void finish() {
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
  }

 private:
  [[noreturn]] void fail(const std::string& message) const;

  char current() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void skip_digits() {
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
  }

  void open(char bracket, const char* what) {
    skip_whitespace();
    if (++depth_ > Json::kMaxDepth) {
      fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
           " levels");
    }
    if (!consume(bracket)) fail(std::string("expected ") + what);
    opened_ = true;
  }

  bool next_item(char close, const char* what) {
    skip_whitespace();
    if (opened_) {
      opened_ = false;
      if (!consume(close)) return true;
    } else if (consume(',')) {
      return true;
    } else if (!consume(close)) {
      fail(std::string("expected ") + what);
    }
    --depth_;
    return false;
  }

  std::string_view read_escaped_string(std::size_t start);
  unsigned read_hex4();
  double parse_double(std::size_t start);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool opened_ = false;  ///< a container was just opened
  std::string decoded_;  ///< read_string()'s buffer for escaped strings
};

}  // namespace xmem::util
