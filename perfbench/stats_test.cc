#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  // numpy.percentile([1, 2, 3, 4], [0, 25, 50, 99, 100]).
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 3.97);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4.0);
}

TEST(PercentileTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, -1.0), 1.0);  // q clamps to [0, 1]
  EXPECT_DOUBLE_EQ(Percentile({1, 2}, 2.0), 2.0);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(CoveredLengthTest, MergesOverlapsAndClips) {
  // [0,10) and [5,15) overlap; [20,30) is clipped to [20,25).
  EXPECT_EQ(CoveredLength({{5, 15}, {0, 10}, {20, 30}}, 0, 25), 20u);
  EXPECT_EQ(CoveredLength({{0, 100}}, 10, 20), 10u);
  EXPECT_EQ(CoveredLength({{0, 5}}, 10, 20), 0u);
  EXPECT_EQ(CoveredLength({}, 0, 10), 0u);
}

TEST(FoldSelfTimeTest, SubtractsChildCoverageOnce) {
  // root [0,100) with children a [10,40) and b [30,60) (overlapping, as
  // parallel chunks do) and grandchild c [15,25) under a.
  const std::vector<SpanNode> spans = {
      {1, 0, "root", 0, 100},
      {2, 1, "a", 10, 40},
      {3, 1, "b", 30, 60},
      {4, 2, "c", 15, 25},
  };
  std::map<std::string, SelfTimeRow> by_name;
  for (const SelfTimeRow& row : FoldSelfTime(spans)) by_name[row.name] = row;
  EXPECT_EQ(by_name["root"].total_ns, 100u);
  EXPECT_EQ(by_name["root"].self_ns, 50u);  // children cover [10,60)
  EXPECT_EQ(by_name["a"].self_ns, 20u);
  EXPECT_EQ(by_name["b"].self_ns, 30u);
  EXPECT_EQ(by_name["c"].self_ns, 10u);
}

TEST(FoldSelfTimeTest, AggregatesByNameAndSortsBySelfTime) {
  const std::vector<SpanNode> spans = {
      {1, 0, "op", 0, 10}, {2, 0, "op", 20, 50}, {3, 0, "other", 0, 5}};
  const std::vector<SelfTimeRow> rows = FoldSelfTime(spans);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "op");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[0].self_ns, 40u);
  EXPECT_EQ(rows[1].name, "other");
}

TEST(FoldSelfTimeTest, OrphanedParentIsIgnored) {
  // A span whose parent was not collected is folded as a root.
  const std::vector<SpanNode> spans = {{5, 99, "late", 0, 8}};
  const std::vector<SelfTimeRow> rows = FoldSelfTime(spans);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].self_ns, 8u);
}

}  // namespace
}  // namespace perfbench
