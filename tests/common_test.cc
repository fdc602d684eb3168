// Tests for the common substrate: Status/Result, string utilities and the
// seeded RNG.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "common/stringpiece.h"

namespace logcl {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::IoError("x").code(), Status::FailedPrecondition("x").code(),
      Status::Internal("x").code()};
  EXPECT_EQ(codes.size(), 5u);
}

TEST(ResultTest, HoldsValue) {
  Result<int64_t> r = int64_t{42};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int64_t> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

// --- String utilities --------------------------------------------------------

TEST(StringTest, StrSplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringTest, StrTrim) {
  EXPECT_EQ(StrTrim("  hi  "), "hi");
  EXPECT_EQ(StrTrim("hi"), "hi");
  EXPECT_EQ(StrTrim("\t\n "), "");
}

TEST(StringTest, ParseInt64Accepts) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("  13 ").value(), 13);
}

TEST(StringTest, ParseInt64Rejects) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
}

TEST(StringTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3").value(), -1e-3);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5junk").ok());
}

TEST(StringTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
  EXPECT_EQ(StrFormat("plain"), "plain");
}

TEST(StringTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool diverged = false;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(6);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.UniformInt(5)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(RngTest, NormalMoments) {
  Rng rng(7);
  double sum = 0, sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 3000, 200);
}

TEST(RngTest, SplitStreamsAreIndependentOfParentUse) {
  // Drawing from a child stream must not perturb the parent sequence.
  Rng a(9);
  Rng a_child = a.Split();
  uint64_t next_after_split = a.Next();
  Rng b(9);
  Rng b_child = b.Split();
  for (int i = 0; i < 50; ++i) b_child.Next();  // burn the child
  EXPECT_EQ(b.Next(), next_after_split);
  (void)a_child;
}

TEST(RngTest, CounterAccessorsReadAheadWithoutAdvancing) {
  Rng ahead(11);
  Rng serial(11);
  for (uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(ahead.UniformAt(i, -0.5, 2.0), serial.Uniform(-0.5, 2.0))
        << "draw " << i;
  }
  Rng fresh(11);
  EXPECT_EQ(ahead.Next(), fresh.Next());  // the accessors did not advance
}

TEST(RngTest, BernoulliAtMatchesSerialBernoulli) {
  Rng ahead(12);
  Rng serial(12);
  int hits = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    bool b = ahead.BernoulliAt(i, 0.3);
    EXPECT_EQ(b, serial.Bernoulli(0.3)) << "draw " << i;
    hits += b ? 1 : 0;
  }
  EXPECT_NEAR(hits, 600, 90);
}

TEST(RngTest, SkipEqualsSerialDraws) {
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{1000}}) {
    Rng skipped(13);
    Rng serial(13);
    skipped.Skip(n);
    for (uint64_t i = 0; i < n; ++i) serial.Next();
    EXPECT_EQ(skipped.Next(), serial.Next()) << "n=" << n;
    EXPECT_EQ(skipped.UniformAt(5, 0.0, 1.0), serial.UniformAt(5, 0.0, 1.0));
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(10);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace logcl
