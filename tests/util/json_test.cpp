// util/json: the shared writer and reader. Documents go through the writer,
// are checked by the independent syntax oracle (tests/common/json_check.h),
// then come back through the reader, so neither half is judged only by the
// other.
#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "tests/common/json_check.h"
#include "util/error.h"

namespace {

using pcxx::json::Value;
using pcxx::json::Writer;

/// Writes `v` as the single member "v" of an object, checks the document's
/// syntax independently, and reads the member back.
template <typename T>
Value roundTrip(const T& v) {
  Writer w;
  w.beginObject().member("v", v).endObject();
  const std::string doc = w.str();
  EXPECT_TRUE(pcxx::test::JsonChecker::valid(doc)) << doc;
  const Value parsed = pcxx::json::parse(doc);
  const Value* got = parsed.find("v");
  return got != nullptr ? *got : Value{};
}

std::uint64_t bitsOf(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

TEST(JsonWriter, LayoutPutsContainerElementsOnTheirOwnLines) {
  Writer w;
  w.beginObject().key("events").beginArray();
  w.beginObject().member("a", 1).member("b", "x").endObject();
  w.beginObject().key("args").beginObject().member("c", true).endObject()
      .endObject();
  w.endArray().key("ids").beginArray().value(1).value(2).endArray();
  w.key("empty").beginArray().endArray().endObject();
  EXPECT_EQ(w.str(),
            "{\"events\": [\n"
            "  {\"a\": 1, \"b\": \"x\"},\n"
            "  {\"args\": {\"c\": true}}\n"
            "], \"ids\": [1, 2], \"empty\": []}\n");
}

TEST(JsonWriter, NestedLineBrokenArraysIndentPerLevel) {
  Writer w;
  w.beginArray().beginObject().key("rows").beginArray();
  w.beginObject().member("n", 0).endObject();
  w.endArray().endObject().endArray();
  EXPECT_EQ(w.str(),
            "[\n"
            "  {\"rows\": [\n"
            "    {\"n\": 0}\n"
            "  ]}\n"
            "]\n");
}

TEST(JsonWriter, NumbersAreExactShortestOrFixed) {
  Writer w;
  w.beginArray()
      .value(0.1)
      .value(2.0)
      .value(-0.0)
      .value(std::uint64_t{18446744073709551615u})
      .value(std::int64_t{-9223372036854775807 - 1})
      .fixed3(42.0)
      .fixed3(0.0004)
      .fixed3(std::numeric_limits<double>::infinity())
      .value(std::numeric_limits<double>::quiet_NaN())
      .endArray();
  EXPECT_EQ(w.str(),
            "[0.1, 2, -0, 18446744073709551615, -9223372036854775808, "
            "42.000, 0.000, null, null]\n");
}

TEST(JsonWriter, MisuseIsAnInternalError) {
  Writer open;
  open.beginObject();
  EXPECT_THROW(open.str(), pcxx::InternalError);
  Writer noKey;
  noKey.beginObject();
  EXPECT_THROW(noKey.value(1), pcxx::InternalError);
  Writer keyInArray;
  keyInArray.beginArray();
  EXPECT_THROW(keyInArray.key("k"), pcxx::InternalError);
  Writer mismatched;
  mismatched.beginArray();
  EXPECT_THROW(mismatched.endObject(), pcxx::InternalError);
}

TEST(JsonRoundTrip, EveryByteInsideAString) {
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  const Value v = roundTrip(all);
  ASSERT_EQ(v.kind, Value::Kind::String);
  EXPECT_EQ(v.str, all);
}

TEST(JsonRoundTrip, ControlCharactersAreEscapedNotRaw) {
  Writer w;
  w.beginArray().value("a\tb\nc\x01").endArray();
  EXPECT_EQ(w.str(), "[\"a\\tb\\nc\\u0001\"]\n");
}

TEST(JsonRoundTrip, DoublesComeBackBitIdentical) {
  const double cases[] = {
      0.1,
      -0.0,
      1e300,
      -1e-300,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,  // subnormal
      std::numeric_limits<double>::max(),
      2.26387,
      0.0910231,
      1.0 / 3.0,
  };
  for (const double d : cases) {
    const Value v = roundTrip(d);
    ASSERT_EQ(v.kind, Value::Kind::Number) << d;
    EXPECT_EQ(bitsOf(v.number), bitsOf(d)) << d;
  }
}

TEST(JsonRoundTrip, IntegersUpTo2To53AreExact) {
  const std::uint64_t top = std::uint64_t{1} << 53;
  for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1}, top - 1,
                                top}) {
    const Value v = roundTrip(n);
    ASSERT_EQ(v.kind, Value::Kind::Number);
    EXPECT_EQ(v.number, static_cast<double>(n));
  }
  Writer w;
  w.beginObject().member("n", top).endObject();
  EXPECT_EQ(pcxx::json::parse(w.str()).countAt("n"), top);
  const Value neg = roundTrip(std::int64_t{-(std::int64_t{1} << 53)});
  EXPECT_EQ(neg.number, -static_cast<double>(top));
}

TEST(JsonRoundTrip, NonFiniteDoublesComeBackAsNull) {
  for (const double d : {std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(roundTrip(d).kind, Value::Kind::Null) << d;
  }
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8) {
  const Value v = pcxx::json::parse(
      R"(["\u0041\u00e9\u20ac\ud83d\ude00", "\u0000x", "\/"])");
  ASSERT_EQ(v.items.size(), 3u);
  EXPECT_EQ(v.items[0].str, "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_EQ(v.items[1].str, std::string("\0x", 2));
  EXPECT_EQ(v.items[2].str, "/");
}

TEST(JsonReader, RejectsBadUnicodeEscapes) {
  for (const char* bad : {R"(["\u00g0"])", R"(["\u12"])", R"(["\u+123"])",
                          R"(["\ud83d"])", R"(["\ud83dx"])",
                          R"(["\ud83d\u0041"])", R"(["\ude00"])"}) {
    EXPECT_THROW(pcxx::json::parse(bad), pcxx::FormatError) << bad;
  }
}

TEST(JsonReader, ReadsALargeOutOfRangeNumberAsInfinity) {
  const Value v = pcxx::json::parse("[1e999, -1e999, 1e-999]");
  EXPECT_EQ(v.items[0].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.items[1].number, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.items[2].number, 0.0);
  const Value big = pcxx::json::parse(R"({"n": 1e999, "m": 1e30})");
  EXPECT_EQ(big.countAt("n", 7), 7u);
  EXPECT_EQ(big.countAt("m", 7), 7u);
}

TEST(JsonReader, IntAtChecksIntegralityAndTheTargetRange) {
  const Value v = pcxx::json::parse(
      R"({"i": -2147483648, "big": 9007199254740992, "half": 2.5,)"
      R"( "huge": 1e300, "edge": 9223372036854775808, "s": "1"})");
  EXPECT_EQ(v.intAt<int>("i"), std::numeric_limits<int>::min());
  EXPECT_EQ(v.intAt<int>("absent", 7), 7);
  EXPECT_EQ(v.intAt<std::int64_t>("big"), std::int64_t{1} << 53);
  EXPECT_THROW(v.intAt<int>("big"), pcxx::FormatError);
  EXPECT_THROW(v.intAt<int>("half"), pcxx::FormatError);
  EXPECT_THROW(v.intAt<std::int64_t>("huge"), pcxx::FormatError);
  EXPECT_THROW(v.intAt<std::int64_t>("edge"), pcxx::FormatError);  // 2^63
  EXPECT_THROW(v.intAt<int>("s"), pcxx::FormatError);
}

TEST(JsonReader, NestingIsBoundedByKMaxDepth) {
  const int max = pcxx::json::kMaxDepth;
  const std::string ok =
      std::string(static_cast<size_t>(max), '[') +
      std::string(static_cast<size_t>(max), ']');
  EXPECT_NO_THROW(pcxx::json::parse(ok));
  const std::string deep =
      std::string(static_cast<size_t>(max + 1), '[') +
      std::string(static_cast<size_t>(max + 1), ']');
  EXPECT_THROW(pcxx::json::parse(deep), pcxx::FormatError);
  EXPECT_THROW(pcxx::json::parse(std::string(200000, '[')), pcxx::FormatError);
  std::string objects;
  for (int i = 0; i <= max; ++i) objects += "{\"a\": ";
  EXPECT_THROW(pcxx::json::parse(objects), pcxx::FormatError);
}

TEST(JsonReader, TruncatedOrGarbageInputIsAFormatError) {
  const std::string doc = R"({"a": [1, 2.5e-3, "s\n", true, false, null],)"
                          R"( "b": {"c": -0}})";
  ASSERT_NO_THROW(pcxx::json::parse(doc));
  // Every proper prefix is truncated input.
  for (size_t n = 0; n < doc.size(); ++n) {
    EXPECT_THROW(pcxx::json::parse(doc.substr(0, n)), pcxx::FormatError) << n;
  }
  for (const char* bad :
       {"", "   ", "nul", "tru", "+1", "01", "1.", ".5", "1e", "1e+", "-",
        "NaN", "Infinity", "[1,]", "[1 2]", "{\"a\" 1}", "{\"a\": 1,}",
        "{1: 2}", "[\"a\tb\"]", "\"\\x\"", "[1] [2]", "}", "\"abc"}) {
    EXPECT_THROW(pcxx::json::parse(bad), pcxx::FormatError) << bad;
  }
  // Every single-byte corruption either parses or throws FormatError.
  for (size_t i = 0; i < doc.size(); ++i) {
    for (const char c : {'\0', '"', '\\', '[', '}', ',', 'x', '9'}) {
      std::string mutated = doc;
      mutated[i] = c;
      try {
        (void)pcxx::json::parse(mutated);
      } catch (const pcxx::FormatError&) {
      }
    }
  }
}

TEST(JsonReader, FileErrorsAreTyped) {
  EXPECT_THROW(pcxx::json::parseFile("/nonexistent/dir/x.json"),
               pcxx::IoError);
}

}  // namespace
