#include "common/json.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace prox {
namespace {

// Parse `text`, expect success, and return the value.
JsonValue MustParse(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
  return parsed.ok() ? parsed.value() : JsonValue::Null();
}

TEST(JsonTest, ScalarKinds) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_EQ(MustParse("true").bool_value(), true);
  EXPECT_EQ(MustParse("false").bool_value(), false);
  EXPECT_EQ(MustParse("42").int_value(), 42);
  EXPECT_EQ(MustParse("-7").int_value(), -7);
  EXPECT_DOUBLE_EQ(MustParse("0.25").double_value(), 0.25);
  EXPECT_DOUBLE_EQ(MustParse("1e3").double_value(), 1000.0);
  EXPECT_EQ(MustParse("\"hi\"").string_value(), "hi");
}

TEST(JsonTest, IntegersStayExact) {
  JsonValue value = MustParse("9007199254740993");  // 2^53 + 1
  ASSERT_TRUE(value.is_int());
  EXPECT_EQ(value.int_value(), INT64_C(9007199254740993));
  EXPECT_EQ(WriteJson(value), "9007199254740993");
}

TEST(JsonTest, WriterIsCompactAndOrdered) {
  JsonValue object = JsonValue::Object();
  object.Set("b", JsonValue::Int(1));
  object.Set("a", JsonValue::Int(2));
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Null());
  array.Append(JsonValue::Bool(true));
  object.Set("list", array);
  EXPECT_EQ(WriteJson(object), "{\"b\":1,\"a\":2,\"list\":[null,true]}");

  // Overwriting keeps the original position.
  object.Set("b", JsonValue::Int(9));
  EXPECT_EQ(WriteJson(object), "{\"b\":9,\"a\":2,\"list\":[null,true]}");
}

TEST(JsonTest, RoundTripsEscapes) {
  const std::string text =
      "{\"s\":\"line\\nquote\\\"back\\\\slash\\ttab\\u0001\"}";
  JsonValue value = MustParse(text);
  const JsonValue* member = value.Find("s");
  ASSERT_NE(member, nullptr);
  EXPECT_EQ(member->string_value(),
            std::string("line\nquote\"back\\slash\ttab\x01"));
  // Write → parse → write is a fixed point.
  EXPECT_EQ(WriteJson(MustParse(WriteJson(value))), WriteJson(value));
}

TEST(JsonTest, UnicodeEscapesAndSurrogatePairs) {
  // U+00E9 (é), U+20AC (€), U+1F600 (😀, surrogate pair).
  JsonValue value = MustParse("\"\\u00e9 \\u20ac \\ud83d\\ude00\"");
  EXPECT_EQ(value.string_value(), "\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80");
  // Lone surrogates are malformed.
  EXPECT_FALSE(ParseJson("\"\\ud83d\"").ok());
  EXPECT_FALSE(ParseJson("\"\\ude00\"").ok());
  EXPECT_FALSE(ParseJson("\"\\ud83dx\"").ok());
}

TEST(JsonTest, DoublesRoundTripShortest) {
  for (double value : {0.1, 1.0 / 3.0, 1e-300, 1.5, -2.25, 6.02e23}) {
    std::string text = ShortestDouble(value);
    JsonValue parsed = MustParse(text);
    EXPECT_DOUBLE_EQ(parsed.double_value(), value) << text;
  }
  EXPECT_EQ(ShortestDouble(1.5), "1.5");
}

/// ShortestDouble's search from precision 1: the first `%.*g` rendering
/// that parses back to the same bits.
std::string ShortestDoubleFromPrecisionOne(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

TEST(JsonTest, ShortestDoubleMatchesTheSearchFromPrecisionOne) {
  std::vector<double> corpus = {
      0.0,
      -0.0,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  // Powers of two and their neighbours, over the whole exponent range.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    corpus.push_back(p);
    corpus.push_back(std::nextafter(p, 0.0));
    corpus.push_back(std::nextafter(p, INFINITY));
  }
  // Short decimals and their neighbours: 0.1, 0.25, 1.7e-5, ...
  for (int mantissa = 1; mantissa <= 999; mantissa += 7) {
    for (int e = -30; e <= 30; e += 3) {
      const double d = mantissa * std::pow(10.0, e);
      corpus.push_back(d);
      corpus.push_back(-d);
      corpus.push_back(std::nextafter(d, 0.0));
      corpus.push_back(std::nextafter(d, INFINITY));
    }
  }
  std::mt19937_64 rng(20161);
  for (int i = 0; i < 20000; ++i) {
    // Random bit patterns (all exponents, subnormals included) and random
    // subnormals.
    corpus.push_back(FromBits(rng()));
    corpus.push_back(FromBits(rng() & ((uint64_t{1} << 52) - 1)));
    // Distances in [0, 1], as the summarize bodies carry them.
    corpus.push_back(std::uniform_real_distribution<double>(0.0, 1.0)(rng));
  }
  for (double value : corpus) {
    EXPECT_EQ(ShortestDouble(value), ShortestDoubleFromPrecisionOne(value))
        << std::hexfloat << value;
  }
}

TEST(JsonTest, MalformedInputsReturnErrorsNotCrashes) {
  const char* bad[] = {
      "",        "{",         "}",          "[1,]",      "{\"a\":}",
      "tru",     "01",        "+1",         "1.",        ".5",
      "\"",      "\"\\x\"",   "\"\\u12\"",  "nan",       "Infinity",
      "[1 2]",   "{\"a\" 1}", "{1: 2}",     "[1],",      "[1] x",
      "'one'",   "{,}",       "[\"\\\"]",   "--1",       "\x01",
  };
  for (const char* text : bad) {
    auto parsed = ParseJson(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << text;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(JsonTest, RawControlCharacterInStringRejected) {
  std::string text = "\"a\nb\"";  // unescaped newline inside a string
  EXPECT_FALSE(ParseJson(text).ok());
}

TEST(JsonTest, DepthLimitStopsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep, /*max_depth=*/96).ok());
  EXPECT_TRUE(ParseJson(deep, /*max_depth=*/300).ok());

  std::string shallow = "[[[[1]]]]";
  EXPECT_TRUE(ParseJson(shallow, /*max_depth=*/4).ok());
  EXPECT_FALSE(ParseJson(shallow, /*max_depth=*/3).ok());
}

TEST(JsonTest, TrailingGarbageRejectedButWhitespaceOk) {
  EXPECT_TRUE(ParseJson("  {\"a\": [1, 2]}  \n").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} {\"b\":2}").ok());
}

TEST(JsonTest, FindOnNonObjectIsNull) {
  EXPECT_EQ(MustParse("[1]").Find("a"), nullptr);
  EXPECT_EQ(MustParse("{\"a\":1}").Find("b"), nullptr);
  ASSERT_NE(MustParse("{\"a\":1}").Find("a"), nullptr);
}

TEST(JsonTest, EqualityIsStructural) {
  EXPECT_EQ(MustParse("{\"a\":[1,2.5,\"x\"]}"),
            MustParse("{\"a\": [1, 2.5, \"x\"]}"));
  EXPECT_NE(MustParse("{\"a\":1}"), MustParse("{\"a\":2}"));
}

TEST(JsonTest, FuzzishRoundTripCorpus) {
  // Write(Parse(x)) must parse back equal for a pile of awkward documents.
  const char* corpus[] = {
      "{}",
      "[]",
      "[[],{},[{}],{\"\":[]}]",
      "{\"\":\"\"}",
      "[0,-0.0,1e-5,123456789012345678,0.5]",
      "\"\\u0000\\u001f\\\\\\\"\"",
      "{\"nested\":{\"a\":{\"b\":{\"c\":[null,false]}}}}",
      "[\"\\ud83d\\ude00\",\"plain\",\"\\u00e9\"]",
  };
  for (const char* text : corpus) {
    JsonValue first = MustParse(text);
    std::string written = WriteJson(first);
    JsonValue second = MustParse(written);
    EXPECT_EQ(first, second) << text;
    EXPECT_EQ(WriteJson(second), written) << text;
  }
}

}  // namespace
}  // namespace prox
