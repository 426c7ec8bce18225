#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/types.h"

namespace aimetro {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(AIM_CHECK(1 == 2), CheckError);
  try {
    AIM_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Types, SimTimeConversions) {
  EXPECT_EQ(sim_time_from_seconds(1.0), 1'000'000);
  EXPECT_EQ(sim_time_from_seconds(0.0), 0);
  EXPECT_DOUBLE_EQ(sim_time_to_seconds(2'500'000), 2.5);
}

TEST(Types, Distances) {
  const Pos a{0, 0};
  const Pos b{3, 4};
  EXPECT_DOUBLE_EQ(euclidean(a, b), 5.0);
  EXPECT_DOUBLE_EQ(manhattan(a, b), 7.0);
  EXPECT_DOUBLE_EQ(chebyshev(a, b), 4.0);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  bool all_equal = true;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.next() != c.next()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_THROW(rng.uniform_int(2, 1), CheckError);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(11);
  for (const double lambda : {0.5, 3.0, 50.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.05) << "lambda=" << lambda;
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 30000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(std::sqrt((sum_sq - n * mean * mean) / (n - 1)), 2.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(17);
  std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), CheckError);
  EXPECT_THROW(rng.weighted_index({}), CheckError);
}

TEST(Rng, WeightedTableDrawsTheScansIndexes) {
  // The trace generators draw from one weight vector many times through a
  // WeightedTable; the trace bytes depend on every index being the one the
  // subtractive scan picks. Random vectors of five shapes, each checked
  // with draws from twin streams and with points exactly on, and one ulp
  // either side of, every running sum, where rounding decides the scan.
  Rng gen(29);
  Rng scanning(31);
  Rng searching(31);
  const double kTiny = std::numeric_limits<double>::denorm_min();
  const double kInf = std::numeric_limits<double>::infinity();
  auto weight = [&](int shape) {
    if (gen.bernoulli(0.15)) return 0.0;
    switch (shape) {
      case 0:  // the homogeneous fill's skew
        return std::exp(gen.normal(0.0, 0.6));
      case 1:  // the heterogeneous fill's curve shares, down to 1e-6
        return std::exp(gen.normal(0.0, 0.6)) *
               (gen.bernoulli(0.5) ? 1e-6 : gen.uniform(1e-6, 0.2));
      case 2:  // exponents spread +-60
        return std::ldexp(gen.uniform(1.0, 2.0),
                          static_cast<int>(gen.uniform_int(-60, 60)));
      default:  // subnormal
        return kTiny * static_cast<double>(gen.uniform_int(1, 1 << 20));
    }
  };
  std::size_t draws = 0;
  for (int round = 0; round < 4000; ++round) {
    const int shape = round % 5;
    // Shape 4 is n = 1; the others draw n up to 400.
    const auto n = static_cast<std::size_t>(
        shape == 4 ? 1 : gen.uniform_int(1, 400));
    std::vector<double> w(n);
    for (double& x : w) x = weight(shape == 4 ? 0 : shape);
    w[static_cast<std::size_t>(gen.uniform_int(
        0, static_cast<std::int64_t>(n) - 1))] += shape == 3 ? kTiny : 1e-6;
    const WeightedTable table(w);
    for (int draw = 0; draw < 100; ++draw, ++draws) {
      ASSERT_EQ(scanning.weighted_index(w), searching.weighted_index(table))
          << "round " << round << " draw " << draw;
    }
    double sum = 0.0;
    for (double x : w) {
      sum += x;
      for (const double r :
           {std::nextafter(sum, -kInf), sum, std::nextafter(sum, kInf)}) {
        ASSERT_EQ(table.scan(r), table.find(r))
            << "round " << round << " point " << r << " of total "
            << table.total();
        ++draws;
      }
    }
  }
  EXPECT_GT(draws, 2'000'000u);
  EXPECT_THROW(WeightedTable({}), CheckError);
  EXPECT_THROW(WeightedTable({0.0, 0.0}), CheckError);
  EXPECT_THROW(WeightedTable({1.0, -1.0}), CheckError);
}

TEST(TimeWeightedStat, PiecewiseConstantAverage) {
  TimeWeightedStat s;
  s.set(0, 2.0);     // 2 for [0, 10)
  s.set(10, 4.0);    // 4 for [10, 20)
  EXPECT_DOUBLE_EQ(s.average_until(20), 3.0);
  EXPECT_THROW(s.set(5, 1.0), CheckError);  // time went backwards
}

TEST(Strings, Format) {
  EXPECT_EQ(strformat("a=%d b=%s", 3, "x"), "a=3 b=x");
  EXPECT_EQ(strformat("%.2f", 1.5), "1.50");
}

TEST(Strings, SplitJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, Pad) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_left("abcde", 4), "abcde");
}

}  // namespace
}  // namespace aimetro
