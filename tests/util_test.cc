#include <gtest/gtest.h>

#include "util/json_writer.h"
#include "util/status.h"
#include "util/strings.h"

namespace xic {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, OkHasEmptyMessageAndLimit) {
  Status s = Status::OK();
  EXPECT_TRUE(s.message().empty());
  EXPECT_TRUE(s.limit().empty());
  EXPECT_TRUE(Status(StatusCode::kOk, "ignored").ok());
  EXPECT_TRUE(Status::ParseError("x").limit().empty());
}

TEST(StatusTest, LimitAndDeadlineKeepTheirLimit) {
  Status limit = Status::LimitExceeded("max_tree_depth", "too deep");
  EXPECT_EQ(limit.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(limit.limit(), "max_tree_depth");
  EXPECT_EQ(limit.message(), "max_tree_depth: too deep");
  Status deadline = Status::DeadlineExceeded("late");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.limit(), "deadline");
  EXPECT_EQ(deadline.message(), "late");
}

TEST(StatusTest, CopyOfAnErrorIsIndependent) {
  Status copy;
  {
    Status original = Status::LimitExceeded("max_bytes", "big");
    copy = original;
    Status constructed(original);
    original = Status::Internal("changed");
    EXPECT_EQ(constructed.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(constructed.limit(), "max_bytes");
  }
  // The original is gone; the copy still owns its own block.
  EXPECT_EQ(copy.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(copy.message(), "max_bytes: big");
  EXPECT_EQ(copy.limit(), "max_bytes");
  copy = Status::OK();
  EXPECT_TRUE(copy.ok());
  EXPECT_TRUE(copy.message().empty());
}

TEST(StatusTest, SelfAssignmentKeepsTheStatus) {
  Status s = Status::DeadlineExceeded("late");
  Status& alias = s;
  s = alias;
  EXPECT_EQ(s.ToString(), "DeadlineExceeded: late");
  EXPECT_EQ(s.limit(), "deadline");
  s = std::move(alias);
  EXPECT_EQ(s.ToString(), "DeadlineExceeded: late");
  EXPECT_EQ(s.limit(), "deadline");
}

TEST(StatusTest, MoveCarriesCodeMessageAndLimit) {
  Status source = Status::LimitExceeded("max_depth", "deep");
  Status moved(std::move(source));
  EXPECT_EQ(moved.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(moved.message(), "max_depth: deep");
  EXPECT_EQ(moved.limit(), "max_depth");
  Status assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(assigned.message(), "max_depth: deep");
  EXPECT_EQ(assigned.limit(), "max_depth");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kValidationError),
               "ValidationError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotSupported), "NotSupported");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, ErrorComesBackUnchanged) {
  Result<std::string> r(Status::LimitExceeded("max_bytes", "too big"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().message(), "max_bytes: too big");
  EXPECT_EQ(r.status().limit(), "max_bytes");
  Result<std::string> copy = r;
  EXPECT_EQ(copy.status().ToString(), r.status().ToString());
  EXPECT_EQ(copy.status().limit(), "max_bytes");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("abc"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "abc");
}

Result<int> Halve(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  XIC_ASSIGN_OR_RETURN(int half, Halve(x));
  XIC_ASSIGN_OR_RETURN(int quarter, Halve(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a.b.c", '.'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_TRUE(StartsWith("foo", ""));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b  "), "a b");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, ParseDecimalTakesDigitsOnly) {
  uint64_t value = 7;
  EXPECT_TRUE(ParseDecimal("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseDecimal("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  // Empty, signed, space-led, trailing junk and one past UINT64_MAX all
  // fail and leave the output alone.
  value = 7;
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseDecimal(bad, &value)) << '"' << bad << '"';
    EXPECT_EQ(value, 7u) << '"' << bad << '"';
  }
}

using util::JsonWriter;
using Layout = util::JsonWriter::Layout;

TEST(JsonWriterTest, CompactLayoutHasNoWhitespace) {
  JsonWriter w;
  w.BeginObject();
  w.Key("k");
  w.Number(1);
  w.Key("l");
  w.BeginArray();
  w.Bool(true);
  w.Null();
  w.String("x");
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"k\":1,\"l\":[true,null,\"x\"]}");
}

TEST(JsonWriterTest, InlineLayoutSpacesAfterColonAndComma) {
  JsonWriter w;
  w.BeginObject(Layout::kInline);
  w.Key("k");
  w.Number(1);
  w.Key("l");
  w.Number(2);
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"k\": 1, \"l\": 2}");
}

// The stats-verb shape: an indented outer object whose sub-objects stay
// on one line each.
TEST(JsonWriterTest, IndentedOuterWithInlineInner) {
  JsonWriter w;
  w.BeginObject(Layout::kIndented);
  w.Key("schema");
  w.String("v1");
  w.Key("cache");
  w.BeginObject(Layout::kInline);
  w.Key("entries");
  w.Number(0);
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"schema\": \"v1\",\n"
            "  \"cache\": {\"entries\": 0}\n"
            "}");
}

// The Chrome trace_event shape: one element per array line, no indent.
TEST(JsonWriterTest, LinesLayoutOneElementPerLine) {
  JsonWriter w;
  w.BeginArray(Layout::kLines);
  w.Raw("{\"a\":1}");
  w.Raw("{\"b\":2}");
  w.EndArray();
  EXPECT_EQ(w.str(), "[\n{\"a\":1},\n{\"b\":2}\n]");
}

TEST(JsonWriterTest, EmptyContainersStayClosedUp) {
  JsonWriter compact;
  compact.BeginObject(Layout::kIndented);
  compact.EndObject();
  EXPECT_EQ(compact.str(), "{}");
  JsonWriter array;
  array.BeginArray(Layout::kLines);
  array.EndArray();
  EXPECT_EQ(array.str(), "[\n]");
}

TEST(JsonWriterTest, EscapesStringsAndKeys) {
  EXPECT_EQ(JsonWriter::Escape("a\"b\\c\nd\te\r"),
            "a\\\"b\\\\c\\nd\\te\\r");
  EXPECT_EQ(JsonWriter::Escape(std::string("\x01", 1)), "\\u0001");
  JsonWriter w;
  w.BeginObject();
  w.Key("quote\"key");
  w.String("line\nbreak");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"quote\\\"key\":\"line\\nbreak\"}");
}

TEST(JsonWriterTest, TakeStringMovesTheBuffer) {
  JsonWriter w;
  w.BeginArray();
  w.Number(7);
  w.EndArray();
  EXPECT_EQ(w.TakeString(), "[7]");
}

TEST(StringsTest, XmlNames) {
  EXPECT_TRUE(IsXmlName("book"));
  EXPECT_TRUE(IsXmlName("_under"));
  EXPECT_TRUE(IsXmlName("a-b.c1"));
  EXPECT_FALSE(IsXmlName(""));
  EXPECT_FALSE(IsXmlName("1abc"));
  EXPECT_FALSE(IsXmlName("a b"));
  EXPECT_FALSE(IsXmlName("-dash"));
}

}  // namespace
}  // namespace xic
