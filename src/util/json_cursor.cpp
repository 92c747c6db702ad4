#include "util/json_cursor.h"

#include <cstdlib>

namespace xmem::util {

namespace {

void append_utf8(std::string& out, unsigned code) {
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

}  // namespace

void JsonCursor::fail(const std::string& message) const {
  throw JsonParseError(message, pos_);
}

void JsonCursor::read_literal() {
  std::string_view literal;
  switch (current()) {
    case 't': literal = "true"; break;
    case 'f': literal = "false"; break;
    default: literal = "null"; break;
  }
  if (text_.substr(pos_, literal.size()) != literal) fail("invalid literal");
  pos_ += literal.size();
}

void JsonCursor::skip_value() {
  switch (peek()) {
    case JsonToken::kObject: {
      begin_object();
      std::string_view key;
      while (next_member(key)) skip_value();
      break;
    }
    case JsonToken::kArray:
      begin_array();
      while (next_element()) skip_value();
      break;
    case JsonToken::kString: read_string(); break;
    case JsonToken::kNumber: read_number(); break;
    default: read_literal(); break;
  }
}

std::string_view JsonCursor::read_escaped_string(std::size_t start) {
  decoded_.assign(text_.data() + start, pos_ - start);
  while (true) {
    const char c = current();
    ++pos_;
    if (c == '"') break;
    if (c == '\\') {
      const char escape = current();
      ++pos_;
      switch (escape) {
        case '"': decoded_.push_back('"'); break;
        case '\\': decoded_.push_back('\\'); break;
        case '/': decoded_.push_back('/'); break;
        case 'b': decoded_.push_back('\b'); break;
        case 'f': decoded_.push_back('\f'); break;
        case 'n': decoded_.push_back('\n'); break;
        case 'r': decoded_.push_back('\r'); break;
        case 't': decoded_.push_back('\t'); break;
        case 'u': {
          unsigned code = read_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair.
            if (!consume('\\') || !consume('u')) {
              fail("unpaired UTF-16 surrogate");
            }
            const unsigned low = read_hex4();
            if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(decoded_, code);
          break;
        }
        default: fail("invalid escape sequence");
      }
    } else if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    } else {
      decoded_.push_back(c);
    }
  }
  return decoded_;
}

unsigned JsonCursor::read_hex4() {
  unsigned value = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = current();
    ++pos_;
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

double JsonCursor::parse_double(std::size_t start) {
  // strtod needs a terminated copy of the token; its out-of-range results
  // (±HUGE_VAL, or 0 on underflow) are kept, as JsonNumber documents.
  const std::string token(text_.substr(start, pos_ - start));
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) fail("invalid number");
  return value;
}

}  // namespace xmem::util
