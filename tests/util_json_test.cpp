#include "util/json.h"

#include <gtest/gtest.h>

#include "util/json_cursor.h"
#include "util/rng.h"

namespace xmem::util {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_EQ(Json::parse("42").as_int(), 42);
  EXPECT_EQ(Json::parse("-17").as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_double(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntegersPreservedExactly) {
  const std::int64_t big = 9007199254740993LL;  // not representable in double
  EXPECT_EQ(Json::parse(std::to_string(big)).as_int(), big);
}

TEST(JsonParse, NestedStructures) {
  const Json doc = Json::parse(R"({"a":[1,2,{"b":null}],"c":{"d":true}})");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a")[0].as_int(), 1);
  EXPECT_TRUE(doc.at("a")[2].at("b").is_null());
  EXPECT_TRUE(doc.at("c").at("d").as_bool());
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(Json::parse(R"("é")").as_string(), "\xC3\xA9");       // é
  EXPECT_EQ(Json::parse(R"("😀")").as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonParse, Whitespace) {
  EXPECT_EQ(Json::parse(" \n\t{ \"a\" : 1 } \r\n").at("a").as_int(), 1);
}

TEST(JsonParse, Errors) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\":}"), JsonParseError);
  EXPECT_THROW(Json::parse("tru"), JsonParseError);
  EXPECT_THROW(Json::parse("1 2"), JsonParseError);  // trailing garbage
  EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(Json::parse("{'a':1}"), JsonParseError);
  EXPECT_THROW(Json::parse("\"bad \\x escape\""), JsonParseError);
}

TEST(JsonParse, DeepNestingThrowsInsteadOfExhaustingTheStack) {
  const std::string deep(200000, '[');
  try {
    Json::parse(deep);
    FAIL() << "200k nested brackets parsed";
  } catch (const JsonParseError& error) {
    EXPECT_EQ(error.offset(), static_cast<std::size_t>(Json::kMaxDepth));
    EXPECT_NE(std::string(error.what()).find("nesting"), std::string::npos);
  }
  // Objects count toward the same limit.
  std::string objects;
  for (int i = 0; i <= Json::kMaxDepth; ++i) objects += "{\"a\":";
  EXPECT_THROW(Json::parse(objects), JsonParseError);
}

TEST(JsonParse, NestingAtExactlyTheLimitParses) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(Json::parse(nested(Json::kMaxDepth)).dump(),
            nested(Json::kMaxDepth));
  EXPECT_THROW(Json::parse(nested(Json::kMaxDepth + 1)), JsonParseError);
}

TEST(JsonDump, CompactRoundTrip) {
  const char* text = R"({"arr":[1,2.5,"s"],"b":false,"n":null})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.dump(), text);
}

TEST(JsonDump, EscapesControlCharacters) {
  Json v(std::string("a\x01" "b\n"));
  EXPECT_EQ(v.dump(), "\"a\\u0001b\\n\"");
  EXPECT_EQ(Json::parse(v.dump()).as_string(), "a\x01" "b\n");
}

TEST(JsonDump, DoublesReparseAsDoubles) {
  Json v(2.0);
  const Json reparsed = Json::parse(v.dump());
  EXPECT_TRUE(reparsed.is_double());
  EXPECT_DOUBLE_EQ(reparsed.as_double(), 2.0);
}

TEST(JsonDump, PrettyPrintIsReparsable) {
  const Json doc = Json::parse(R"({"a":[1,2],"b":{"c":"d"}})");
  const std::string pretty = doc.dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  EXPECT_EQ(Json::parse(pretty), doc);
}

TEST(JsonObject, AccessHelpers) {
  Json obj = Json::object();
  obj["x"] = Json(5);
  obj["s"] = Json("v");
  EXPECT_TRUE(obj.contains("x"));
  EXPECT_FALSE(obj.contains("y"));
  EXPECT_EQ(obj.get_int_or("x", -1), 5);
  EXPECT_EQ(obj.get_int_or("y", -1), -1);
  EXPECT_EQ(obj.get_string_or("s", ""), "v");
  EXPECT_EQ(obj.get_string_or("x", "fallback"), "fallback");  // wrong type
  EXPECT_THROW(obj.at("missing"), std::out_of_range);
}

TEST(JsonArray, PushBackOnNullPromotes) {
  Json arr;
  arr.push_back(Json(1));
  arr.push_back(Json("two"));
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[1].as_string(), "two");
}

// Property: randomly generated documents survive dump -> parse unchanged.
Json random_json(Rng& rng, int depth) {
  const std::uint64_t kind = rng.next_below(depth > 2 ? 4 : 6);
  switch (kind) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.next_bool(0.5));
    case 2: return Json(static_cast<std::int64_t>(rng.next_u64() >> 16));
    case 3: {
      std::string s;
      const auto len = rng.next_below(12);
      for (std::uint64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(32 + rng.next_below(90)));
      }
      return Json(std::move(s));
    }
    case 4: {
      Json arr = Json::array();
      const auto len = rng.next_below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        arr.push_back(random_json(rng, depth + 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::object();
      const auto len = rng.next_below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        obj["k" + std::to_string(i)] = random_json(rng, depth + 1);
      }
      return obj;
    }
  }
}

TEST(JsonCursor, WalksADocumentWithoutADom) {
  const std::string text = R"( {"a": [1, -2.5, "x"], "b\u0021": {"c": null}} )";
  JsonCursor in(text);
  ASSERT_EQ(in.peek(), JsonToken::kObject);
  in.begin_object();
  std::string_view key;
  ASSERT_TRUE(in.next_member(key));
  EXPECT_EQ(key, "a");
  in.begin_array();
  ASSERT_TRUE(in.next_element());
  const JsonNumber one = in.read_number();
  EXPECT_TRUE(one.is_int);
  EXPECT_EQ(one.int_value, 1);
  ASSERT_TRUE(in.next_element());
  const JsonNumber fraction = in.read_number();
  EXPECT_FALSE(fraction.is_int);
  EXPECT_DOUBLE_EQ(fraction.double_value, -2.5);
  ASSERT_TRUE(in.next_element());
  const std::string_view x = in.read_string();
  EXPECT_EQ(x, "x");
  // An unescaped string is a view into the document itself.
  EXPECT_GE(x.data(), text.data());
  EXPECT_LT(x.data(), text.data() + text.size());
  EXPECT_FALSE(in.next_element());
  ASSERT_TRUE(in.next_member(key));
  EXPECT_EQ(key, "b!");  // decoded into the cursor's buffer
  in.skip_value();
  EXPECT_FALSE(in.next_member(key));
  in.finish();
}

TEST(JsonCursor, IntegersBeyondInt64BecomeDoubles) {
  JsonCursor in("99999999999999999999");
  const JsonNumber n = in.read_number();
  EXPECT_FALSE(n.is_int);
  EXPECT_DOUBLE_EQ(n.double_value, 1e20);
}

TEST(JsonCursor, SkipValueChecksSyntaxAndDepth) {
  JsonCursor bad_escape(R"(["ok", {"k": "\q"}])");
  EXPECT_THROW(bad_escape.skip_value(), JsonParseError);
  const std::string too_deep = std::string(Json::kMaxDepth + 1, '[') +
                               std::string(Json::kMaxDepth + 1, ']');
  JsonCursor deep(too_deep);  // the cursor views the text, never copies it
  EXPECT_THROW(deep.skip_value(), JsonParseError);
  JsonCursor trailing("{} x");
  trailing.skip_value();
  EXPECT_THROW(trailing.finish(), JsonParseError);
}

class JsonRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTripProperty, DumpParseIsIdentity) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Json doc = random_json(rng, 0);
    EXPECT_EQ(Json::parse(doc.dump()), doc);
    EXPECT_EQ(Json::parse(doc.dump(2)), doc);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace xmem::util
