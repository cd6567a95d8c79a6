/**
 * @file
 * Tests of the model layer's minimal JSON reader/builder — the
 * parser must accept everything the benches emit and reject the
 * malformed files a user will inevitably hand `t3d-model fit`.
 */

#include <gtest/gtest.h>

#include "model/json.hh"

namespace t3dsim::model
{
namespace
{

TEST(Json, ParsesScalars)
{
    std::string error;
    EXPECT_TRUE(Json::parse("null", &error).isNull());
    EXPECT_TRUE(Json::parse("true").boolean());
    EXPECT_FALSE(Json::parse("false").boolean());
    EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").number(), -1250.0);
    EXPECT_EQ(Json::parse("\"a\\n\\\"b\\\"\"").str(), "a\n\"b\"");
}

TEST(Json, ParsesNestedStructure)
{
    const Json doc = Json::parse(
        R"({"a": [1, 2, {"b": "x"}], "c": {"d": 4.5}, "e": true})");
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc["a"].isArray());
    EXPECT_EQ(doc["a"].array().size(), 3u);
    EXPECT_DOUBLE_EQ(doc["a"].array()[1].number(), 2);
    EXPECT_EQ(doc["a"].array()[2]["b"].str(), "x");
    EXPECT_DOUBLE_EQ(doc["c"].numberOr("d", -1), 4.5);
    EXPECT_DOUBLE_EQ(doc["c"].numberOr("missing", -1), -1);
    EXPECT_TRUE(doc["e"].boolean());
    EXPECT_FALSE(doc.has("zz"));
    EXPECT_TRUE(doc["zz"].isNull());
}

TEST(Json, RejectsMalformedInput)
{
    for (const char *bad :
         {"{", "[1,", "{\"a\" 1}", "tru", "\"unterminated",
          "{\"a\": 1,}", "[1 2]", "01x"}) {
        std::string error;
        const Json doc = Json::parse(bad, &error);
        EXPECT_TRUE(doc.isNull()) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(Json, RejectsNestingPastTheCap)
{
    // Without the cap this recursed once per '[' and overflowed the
    // stack; it must now fail at the first bracket past the cap.
    std::string error;
    const Json doc = Json::parse(std::string(50000, '['), &error);
    EXPECT_TRUE(doc.isNull());
    EXPECT_EQ(error, "offset " + std::to_string(Json::maxNesting) +
                         ": nesting too deep");
}

TEST(Json, AcceptsNestingUpToTheCap)
{
    const int depth = Json::maxNesting;
    const std::string text =
        std::string(depth - 1, '[') + "{\"a\": 1}" +
        std::string(depth - 1, ']');
    std::string error;
    const Json doc = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    const Json *v = &doc;
    for (int i = 1; i < depth; ++i) {
        ASSERT_TRUE(v->isArray());
        ASSERT_EQ(v->array().size(), 1u);
        v = &v->array()[0];
    }
    EXPECT_DOUBLE_EQ(v->numberOr("a", 0), 1);

    EXPECT_FALSE(Json::parse("[" + text + "]", &error).isArray());
    EXPECT_NE(error.find("nesting too deep"), std::string::npos);
}

TEST(Json, RejectsTrailingGarbage)
{
    std::string error;
    EXPECT_TRUE(Json::parse("{} extra", &error).isNull());
    EXPECT_FALSE(error.empty());
}

TEST(Json, BuildersPreserveInsertionOrder)
{
    Json obj = Json::makeObject();
    obj.set("z", Json::makeNumber(1));
    obj.set("a", Json::makeString("two"));
    obj.set("z", Json::makeNumber(3)); // overwrite keeps position
    ASSERT_EQ(obj.members().size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "z");
    EXPECT_DOUBLE_EQ(obj.members()[0].second.number(), 3);
    EXPECT_EQ(obj.members()[1].first, "a");

    Json arr = Json::makeArray(
        {Json::makeBool(true), Json::makeNull()});
    EXPECT_EQ(arr.array().size(), 2u);
    EXPECT_TRUE(arr.array()[1].isNull());
}

TEST(Json, MissingFileReportsError)
{
    std::string error;
    const Json doc =
        Json::parseFile("/nonexistent/t3d-model.json", &error);
    EXPECT_TRUE(doc.isNull());
    EXPECT_FALSE(error.empty());
}

} // namespace
} // namespace t3dsim::model
