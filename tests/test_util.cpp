#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using dqn::util::rng;

TEST(rng, deterministic_for_same_seed) {
  rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(rng, different_seeds_diverge) {
  rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(rng, uniform_in_unit_interval) {
  rng r{7};
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(rng, uniform_mean_is_half) {
  rng r{7};
  double total = 0;
  constexpr int n = 100'000;
  for (int i = 0; i < n; ++i) total += r.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(rng, uniform_int_range_and_coverage) {
  rng r{9};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(rng, uniform_int_inclusive_bounds) {
  rng r{10};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(rng, exponential_mean) {
  rng r{11};
  double total = 0;
  constexpr int n = 200'000;
  for (int i = 0; i < n; ++i) total += r.exponential(4.0);
  EXPECT_NEAR(total / n, 0.25, 0.005);
}

TEST(rng, exponential_rejects_nonpositive_rate) {
  rng r{1};
  EXPECT_THROW((void)r.exponential(0.0), std::invalid_argument);
  EXPECT_THROW((void)r.exponential(-1.0), std::invalid_argument);
}

TEST(rng, normal_moments) {
  rng r{12};
  double total = 0, total_sq = 0;
  constexpr int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(2.0, 3.0);
    total += x;
    total_sq += x * x;
  }
  const double mean = total / n;
  const double var = total_sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(rng, pareto_minimum_respected) {
  rng r{13};
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(r.pareto(1.5, 2.0), 2.0);
}

TEST(rng, pareto_mean_matches_formula) {
  // E[X] = alpha*xm/(alpha-1) for alpha > 1.
  rng r{14};
  double total = 0;
  constexpr int n = 400'000;
  for (int i = 0; i < n; ++i) total += r.pareto(3.0, 1.0);
  EXPECT_NEAR(total / n, 1.5, 0.02);
}

TEST(rng, discrete_follows_weights) {
  rng r{15};
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  constexpr int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[r.discrete(weights)];
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / double(n), 0.6, 0.01);
}

TEST(rng, discrete_rejects_bad_weights) {
  rng r{1};
  const std::vector<double> negative = {1.0, -1.0};
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_THROW((void)r.discrete(negative), std::invalid_argument);
  EXPECT_THROW((void)r.discrete(zeros), std::invalid_argument);
}

TEST(rng, shuffle_is_permutation) {
  rng r{16};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

TEST(rng, derive_seed_decorrelates_streams) {
  const auto s1 = dqn::util::derive_seed(42, 0);
  const auto s2 = dqn::util::derive_seed(42, 1);
  EXPECT_NE(s1, s2);
  rng a{s1}, b{s2};
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(format_duration, renders_paper_style) {
  EXPECT_EQ(dqn::util::format_duration(0.5), "500ms");
  EXPECT_EQ(dqn::util::format_duration(12), "12s");
  EXPECT_EQ(dqn::util::format_duration(75), "1m15s");
  EXPECT_EQ(dqn::util::format_duration(3600 * 2 + 22 * 60 + 11), "2h22m11s");
}

TEST(text_table, renders_rows_and_csv) {
  dqn::util::text_table table{{"a", "bb"}};
  table.add_row({"1", "2"});
  const auto text = table.to_string();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_EQ(table.to_csv(), "a,bb\n1,2\n");
}

TEST(text_table, rejects_mismatched_rows) {
  dqn::util::text_table table{{"a", "b"}};
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(fmt, formats_decimals) {
  EXPECT_EQ(dqn::util::fmt(0.12345, 3), "0.123");
  EXPECT_EQ(dqn::util::fmt(2.0, 1), "2.0");
}

}  // namespace
