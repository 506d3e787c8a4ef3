// Unit tests for the support library: statistics, RNG, string helpers and
// the byte reader's element counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/binio.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/str.h"

namespace snorlax {
namespace {

TEST(Stats, MeanOfEmptyIsZero) { EXPECT_EQ(Mean({}), 0.0); }

TEST(Stats, MeanAndStdDev) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  // Sample stddev of this classic set is ~2.138.
  EXPECT_NEAR(StdDev(xs), 2.138, 0.001);
}

TEST(Stats, StdDevOfSingletonIsZero) { EXPECT_EQ(StdDev({42.0}), 0.0); }

TEST(Stats, GeoMean) {
  EXPECT_NEAR(GeoMean({1.0, 4.0, 16.0}), 4.0, 1e-9);
  EXPECT_NEAR(GeoMean({24.0}), 24.0, 1e-9);
  EXPECT_EQ(GeoMean({}), 0.0);
}

TEST(Stats, F1ScoreHarmonicMean) {
  EXPECT_DOUBLE_EQ(F1Score(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(F1Score(0.0, 0.0), 0.0);
  EXPECT_NEAR(F1Score(0.5, 1.0), 2.0 / 3.0, 1e-12);
}

TEST(Stats, ConfusionCounts) {
  ConfusionCounts c;
  c.true_positive = 8;
  c.false_positive = 2;
  c.false_negative = 0;
  EXPECT_DOUBLE_EQ(c.Precision(), 0.8);
  EXPECT_DOUBLE_EQ(c.Recall(), 1.0);
  EXPECT_NEAR(c.F1(), 2 * 0.8 / 1.8, 1e-12);
}

TEST(Stats, ConfusionCountsEmptyDenominators) {
  ConfusionCounts c;
  EXPECT_EQ(c.Precision(), 0.0);
  EXPECT_EQ(c.Recall(), 0.0);
  EXPECT_EQ(c.F1(), 0.0);
}

TEST(Stats, KendallTauIdentical) {
  EXPECT_EQ(KendallTauDistance({1, 2, 3}, {1, 2, 3}), 0u);
}

TEST(Stats, KendallTauSingleSwap) {
  // The paper's example: [I1,I2,I3] vs [I1,I3,I2] has distance 1.
  EXPECT_EQ(KendallTauDistance({1, 2, 3}, {1, 3, 2}), 1u);
}

TEST(Stats, KendallTauFullReversal) {
  EXPECT_EQ(KendallTauDistance({1, 2, 3, 4}, {4, 3, 2, 1}), 6u);
}

TEST(Stats, OrderingAccuracyMatchesPaperDefinition) {
  // A_O = 100 * (1 - K / #pairs).
  EXPECT_DOUBLE_EQ(OrderingAccuracy({1, 2, 3}, {1, 2, 3}), 100.0);
  EXPECT_NEAR(OrderingAccuracy({1, 3, 2}, {1, 2, 3}), 100.0 * (1.0 - 1.0 / 3.0), 1e-9);
  EXPECT_DOUBLE_EQ(OrderingAccuracy({2, 1}, {1, 2}), 0.0);
}

TEST(Stats, OrderingAccuracyDegenerate) {
  EXPECT_DOUBLE_EQ(OrderingAccuracy({}, {}), 100.0);
  EXPECT_DOUBLE_EQ(OrderingAccuracy({7}, {7}), 100.0);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.NextU64() == b.NextU64());
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextInRangeInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Str, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(Str, Join) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrJoin({"only"}, ","), "only");
}

TEST(Str, Pad) {
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

TEST(ByteReader, CountReadsACappedVarint) {
  using support::ByteReader;
  using support::StatusCode;
  std::vector<uint8_t> bytes;
  support::AppendVarint(&bytes, 300);  // two varint bytes
  bytes.resize(bytes.size() + 300);
  ByteReader ok(bytes);
  EXPECT_EQ(ok.Count(), 300u);
  EXPECT_TRUE(ok.ok());

  ByteReader capped(bytes);
  EXPECT_EQ(capped.Count(/*max=*/299), 0u);
  EXPECT_EQ(capped.status().code(), StatusCode::kCorruptData);

  // A count may not promise more elements than bytes remain.
  bytes.resize(bytes.size() - 1);
  ByteReader short_read(bytes);
  EXPECT_EQ(short_read.Count(), 0u);
  EXPECT_EQ(short_read.status().code(), StatusCode::kCorruptData);
}

// Property sweep: OrderingAccuracy is symmetric-in-permutation and bounded.
class OrderingAccuracyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderingAccuracyProperty, BoundedAndConsistent) {
  Rng rng(GetParam());
  std::vector<uint64_t> truth;
  const size_t n = 2 + rng.NextBelow(8);
  for (size_t i = 0; i < n; ++i) {
    truth.push_back(i * 10);
  }
  std::vector<uint64_t> perm = truth;
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
  }
  const double ao = OrderingAccuracy(perm, truth);
  EXPECT_GE(ao, 0.0);
  EXPECT_LE(ao, 100.0);
  // Distance is symmetric, so accuracy is too.
  EXPECT_DOUBLE_EQ(ao, OrderingAccuracy(truth, perm));
  // Identity always scores 100.
  EXPECT_DOUBLE_EQ(OrderingAccuracy(truth, truth), 100.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderingAccuracyProperty, ::testing::Range<uint64_t>(1, 33));

}  // namespace
}  // namespace snorlax
