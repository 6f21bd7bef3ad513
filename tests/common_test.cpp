#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace satfr {
namespace {

// ----------------------------------------------------------------- Rng

TEST(RngTest, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a() != b()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextBelow(1), 0u);
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolRespectsExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, NextBoolRoughlyMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(17);
  const auto perm = rng.Permutation(50);
  std::set<std::uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, PermutationOfZeroIsEmpty) {
  Rng rng(17);
  EXPECT_TRUE(rng.Permutation(0).empty());
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(23);
  Rng forked = a.Fork();
  // The fork must not replay the parent's stream.
  Rng parent_copy(23);
  (void)parent_copy.Fork();
  int equal = 0;
  for (int i = 0; i < 16; ++i) {
    if (forked() == a()) ++equal;
  }
  EXPECT_LT(equal, 8);
}

TEST(StableHashTest, DeterministicAndSpreads) {
  EXPECT_EQ(StableHash64("alu2"), StableHash64("alu2"));
  EXPECT_NE(StableHash64("alu2"), StableHash64("alu4"));
  EXPECT_NE(StableHash64(""), StableHash64("a"));
}

// ------------------------------------------------------------- strings

TEST(StringsTest, ParseIntAcceptsWholeTokens) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_EQ(ParseInt("2147483647"), 2147483647);
  EXPECT_EQ(ParseInt("1", 1), 1);
}

TEST(StringsTest, ParseIntRejectsMalformedOrOutOfRange) {
  EXPECT_FALSE(ParseInt(""));
  EXPECT_FALSE(ParseInt("abc"));        // non-numeric
  EXPECT_FALSE(ParseInt("8x"));         // trailing junk
  EXPECT_FALSE(ParseInt(" 8"));         // whitespace is not part of a number
  EXPECT_FALSE(ParseInt("+8"));
  EXPECT_FALSE(ParseInt("2.5"));
  EXPECT_FALSE(ParseInt("2147483648"));   // int overflow
  EXPECT_FALSE(ParseInt("-2147483649"));  // int underflow
  EXPECT_FALSE(ParseInt("0", 1));         // below the minimum
}

TEST(StringsTest, ParseDoubleAcceptsFiniteNumbers) {
  EXPECT_EQ(ParseDouble("2"), 2.0);
  EXPECT_EQ(ParseDouble("0.5"), 0.5);
  EXPECT_EQ(ParseDouble("-1e-3"), -1e-3);
}

TEST(StringsTest, ParseDoubleRejectsMalformedOrNonFinite) {
  EXPECT_FALSE(ParseDouble(""));
  EXPECT_FALSE(ParseDouble("xyz"));     // non-numeric
  EXPECT_FALSE(ParseDouble("1.5s"));    // trailing junk
  EXPECT_FALSE(ParseDouble("1e999"));   // double overflow
  EXPECT_FALSE(ParseDouble("inf"));
  EXPECT_FALSE(ParseDouble("nan"));
}

TEST(StringsTest, SplitWhitespaceBasics) {
  const auto tokens = SplitWhitespace("  p cnf  3 \t 4\n");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "p");
  EXPECT_EQ(tokens[1], "cnf");
  EXPECT_EQ(tokens[2], "3");
  EXPECT_EQ(tokens[3], "4");
}

TEST(StringsTest, SplitWhitespaceEmpty) {
  EXPECT_TRUE(SplitWhitespace("").empty());
  EXPECT_TRUE(SplitWhitespace("   \t\n").empty());
}

TEST(StringsTest, SplitCharPreservesEmptyFields) {
  const auto fields = SplitChar("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hello \t"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("p cnf", "p"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"only"}, ", "), "only");
}

TEST(StringsTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(1234567.0, 0), "1,234,567");
  EXPECT_EQ(FormatWithCommas(999.0, 0), "999");
  EXPECT_EQ(FormatWithCommas(1000.25, 2), "1,000.25");
  EXPECT_EQ(FormatWithCommas(-1234.5, 1), "-1,234.5");
}

TEST(StringsTest, FormatSecondsPaperStyle) {
  // Matches Table 2's rendering: decimals below 1000 s, commas above.
  EXPECT_EQ(FormatSecondsPaperStyle(0.12), "0.12");
  EXPECT_EQ(FormatSecondsPaperStyle(12.83), "12.83");
  EXPECT_EQ(FormatSecondsPaperStyle(999.994), "999.99");
  EXPECT_EQ(FormatSecondsPaperStyle(1531524.0), "1,531,524");
  EXPECT_EQ(FormatSecondsPaperStyle(1054417.0), "1,054,417");
}

// ----------------------------------------------------------- stopwatch

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(watch.Millis(), 15.0);
  watch.Reset();
  EXPECT_LT(watch.Millis(), 15.0);
}

TEST(DeadlineTest, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.RemainingSeconds()));
}

TEST(DeadlineTest, ExpiresAfterInterval) {
  const Deadline d = Deadline::After(0.02);
  EXPECT_FALSE(d.IsInfinite());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, NonPositiveExpiresImmediately) {
  EXPECT_TRUE(Deadline::After(0.0).Expired());
  EXPECT_TRUE(Deadline::After(-1.0).Expired());
}

}  // namespace
}  // namespace satfr
