// Unit tests for streaming statistics and the table/CSV emitters.

#include <gtest/gtest.h>

#include <sstream>

#include "hbosim/common/error.hpp"
#include "hbosim/common/stats.hpp"
#include "hbosim/common/table.hpp"

namespace hbosim {
namespace {

TEST(RunningStat, MatchesDirectComputation) {
  RunningStat s;
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stdev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyAndReset) {
  RunningStat s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(1.0);
  EXPECT_FALSE(s.empty());
  s.reset();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Ewma, ConvergesTowardConstantInput) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  e.add(0.0);
  for (int i = 0; i < 50; ++i) e.add(10.0);
  EXPECT_NEAR(e.value(), 10.0, 1e-6);
}

TEST(Ewma, FirstSampleInitializes) {
  Ewma e(0.1);
  e.add(42.0);
  EXPECT_DOUBLE_EQ(e.value(), 42.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile(xs, 101.0), Error);
}

TEST(Percentile, MatchesLinearInterpolationReference) {
  // rank = p/100 * (n-1), interpolated between order statistics.
  const std::vector<double> xs = {15.0, 20.0, 35.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 35.0);   // exact middle statistic
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);   // rank 1.0, no fraction
  EXPECT_DOUBLE_EQ(percentile(xs, 40.0), 29.0);   // rank 1.6: 20 + 0.6*15
  EXPECT_DOUBLE_EQ(percentile(xs, 90.0), 46.0);   // rank 3.6: 40 + 0.6*10
}

TEST(Percentile, SortsItsOwnCopyAndHandlesSingletons) {
  EXPECT_DOUBLE_EQ(percentile({9.0, 1.0, 5.0}, 50.0), 5.0);  // unsorted input
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 63.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 100.0), 7.0);
}

TEST(Percentile, EmptySampleAndOutOfRangePThrow) {
  EXPECT_THROW(percentile({}, 50.0), Error);
  EXPECT_THROW(percentile({1.0}, -0.1), Error);
  EXPECT_THROW(percentile({1.0}, 100.1), Error);
}

TEST(Ewma, InvalidAlphaThrows) {
  EXPECT_THROW(Ewma{0.0}, Error);
  EXPECT_THROW(Ewma{1.5}, Error);
  EXPECT_NO_THROW(Ewma{1.0});
}

TEST(Ewma, ValueOnEmptyThrows) {
  Ewma e(0.5);
  EXPECT_THROW(e.value(), Error);
}

TEST(TextTable, AlignsAndPrints) {
  TextTable t(std::vector<std::string>{"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t(std::vector<std::string>{"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(CsvWriter, HeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os, {"t", "v"});
  csv.row(std::vector<double>{1.0, 2.5});
  csv.row(std::vector<std::string>{"x", "y"});
  EXPECT_EQ(os.str(), "t,v\n1,2.5\nx,y\n");
}

TEST(CsvWriter, WidthMismatchThrows) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  EXPECT_THROW(csv.row(std::vector<double>{1.0}), Error);
}

}  // namespace
}  // namespace hbosim
