// Tests for the shared string helpers.

#include "efes/common/string_util.h"

#include <gtest/gtest.h>

namespace efes {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyPieces) {
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
}

TEST(SplitTest, NoDelimiterYieldsWholeInput) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(ToLowerTest, LowersAscii) {
  EXPECT_EQ(ToLower("MiXeD123"), "mixed123");
}

TEST(PrefixSuffixTest, StartsAndEnds) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(ParseInt64Test, ParsesValidIntegers) {
  EXPECT_EQ(ParseInt64("42"), 42);
  EXPECT_EQ(ParseInt64("-17"), -17);
  EXPECT_EQ(ParseInt64("  99  "), 99);
}

TEST(ParseInt64Test, RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("12abc").has_value());
  EXPECT_FALSE(ParseInt64("1.5").has_value());
  EXPECT_FALSE(ParseInt64("'98").has_value());
  EXPECT_FALSE(ParseInt64("999999999999999999999999").has_value());
}

TEST(ParseUint64Test, ParsesCountsAndSizes) {
  EXPECT_EQ(ParseUint64("0"), 0u);
  EXPECT_EQ(ParseUint64("42"), 42u);
  EXPECT_EQ(ParseUint64("+7"), 7u);
  EXPECT_EQ(ParseUint64(" 99 "), 99u);
  EXPECT_EQ(ParseUint64("18446744073709551615"), UINT64_MAX);
}

TEST(ParseUint64Test, RejectsMinusSignsOverflowAndGarbage) {
  for (const char* bad : {"-1", "-0", " -5", "-18446744073709551615",
                          "18446744073709551616", "99999999999999999999",
                          "", " ", "+", "-", "abc", "1.5", "1e3", "0x10",
                          "12abc", "4 2"}) {
    EXPECT_FALSE(ParseUint64(bad).has_value()) << "accepted: '" << bad
                                                << "'";
  }
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  EXPECT_DOUBLE_EQ(*ParseDouble("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("7"), 7.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("12--34").has_value());
}

TEST(FormatDoubleTest, FormatsCompactly) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
}

TEST(EditDistanceTest, KnownDistances) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "xyz"), 3u);
}

TEST(EditDistanceTest, Symmetric) {
  EXPECT_EQ(EditDistance("flaw", "lawn"), EditDistance("lawn", "flaw"));
}

TEST(NameSimilarityTest, IdenticalIsOne) {
  EXPECT_DOUBLE_EQ(NameSimilarity("title", "title"), 1.0);
  EXPECT_DOUBLE_EQ(NameSimilarity("", ""), 1.0);
}

TEST(NameSimilarityTest, CaseInsensitive) {
  EXPECT_DOUBLE_EQ(NameSimilarity("Title", "title"), 1.0);
}

TEST(NameSimilarityTest, DisjointIsLow) {
  EXPECT_LT(NameSimilarity("abc", "xyz"), 0.01);
}

TEST(TokenizeIdentifierTest, SplitsSeparatorsAndCamelCase) {
  EXPECT_EQ(TokenizeIdentifier("artist_list"),
            (std::vector<std::string>{"artist", "list"}));
  EXPECT_EQ(TokenizeIdentifier("artistList"),
            (std::vector<std::string>{"artist", "list"}));
  EXPECT_EQ(TokenizeIdentifier("release-group.id"),
            (std::vector<std::string>{"release", "group", "id"}));
}

TEST(TokenJaccardTest, OverlapScores) {
  EXPECT_DOUBLE_EQ(TokenJaccard("artist_list", "list_artist"), 1.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("artist_list", "artist_name"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(TokenJaccard("abc", "xyz"), 0.0);
}

}  // namespace
}  // namespace efes
