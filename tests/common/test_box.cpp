#include "common/box.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

namespace udb {
namespace {

// The bounding box of `pts`.
Box box_of(std::initializer_list<std::vector<double>> pts) {
  Box b(pts.begin()->size());
  for (const auto& p : pts) b.expand(std::span<const double>(p));
  return b;
}

TEST(Box, DefaultIsInvalid) {
  Box b;
  EXPECT_FALSE(b.valid());
}

TEST(Box, FreshBoxIsInvalidUntilExpanded) {
  Box b(3);
  EXPECT_FALSE(b.valid());
  const std::vector<double> p{1.0, 2.0, 3.0};
  b.expand(std::span<const double>(p));
  EXPECT_TRUE(b.valid());
}

TEST(Box, FromPointIsDegenerate) {
  const std::vector<double> p{1.0, -2.0};
  Box b = box_of({p});
  EXPECT_EQ(b.lo(0), 1.0);
  EXPECT_EQ(b.hi(0), 1.0);
  EXPECT_EQ(b.lo(1), -2.0);
  EXPECT_EQ(b.hi(1), -2.0);
  EXPECT_TRUE(b.contains(std::span<const double>(p)));
}

TEST(Box, ExpandPointGrowsBothSides) {
  Box b = box_of({{0.0, 0.0}});
  b.expand(std::span<const double>(std::vector<double>{3.0, -1.0}));
  EXPECT_EQ(b.lo(1), -1.0);
  EXPECT_EQ(b.hi(0), 3.0);
}

TEST(Box, ExpandBoxIsUnionBound) {
  Box a = box_of({{0.0, 0.0}});
  Box b = box_of({{5.0, 5.0}});
  a.expand(b);
  EXPECT_EQ(a.lo(0), 0.0);
  EXPECT_EQ(a.hi(0), 5.0);
}

TEST(Box, ContainsIsInclusiveOnBoundary) {
  Box b = box_of({{0.0}, {1.0}});
  EXPECT_TRUE(b.contains(std::vector<double>{0.0}));
  EXPECT_TRUE(b.contains(std::vector<double>{1.0}));
  EXPECT_FALSE(b.contains(std::vector<double>{1.0000001}));
}

TEST(Box, OverlapsDetectsSeparationPerAxis) {
  Box a = box_of({{0.0, 0.0}, {1.0, 1.0}});
  Box b = box_of({{2.0, 0.0}, {3.0, 1.0}});
  EXPECT_FALSE(a.overlaps(b));
  b.expand(std::span<const double>(std::vector<double>{0.5, 0.5}));
  EXPECT_TRUE(a.overlaps(b));
}

TEST(Box, TouchingBoxesOverlap) {
  Box a = box_of({{0.0}, {1.0}});
  Box b = box_of({{1.0}, {2.0}});
  EXPECT_TRUE(a.overlaps(b));  // shared face counts as overlap
}

TEST(Box, MinSqDistZeroInside) {
  Box b = box_of({{-1.0, -1.0}, {1.0, 1.0}});
  EXPECT_EQ(b.min_sq_dist(std::vector<double>{0.5, -0.5}), 0.0);
}

TEST(Box, MinSqDistAxisAndCorner) {
  Box b = box_of({{-1.0, -1.0}, {1.0, 1.0}});
  EXPECT_DOUBLE_EQ(b.min_sq_dist(std::vector<double>{3.0, 0.0}), 4.0);
  EXPECT_DOUBLE_EQ(b.min_sq_dist(std::vector<double>{2.0, 2.0}), 2.0);
}

TEST(Box, HighDimensionalRoundTrip) {
  const std::size_t d = 74;
  std::vector<double> p(d, 1.5);
  Box b = box_of({std::vector<double>(d, 1.25), std::vector<double>(d, 1.75)});
  EXPECT_EQ(b.dim(), d);
  EXPECT_TRUE(b.contains(p));
  std::vector<double> q(d, 1.5);
  q[73] = 1.76;
  EXPECT_FALSE(b.contains(q));
  EXPECT_DOUBLE_EQ(b.min_sq_dist(q), (1.76 - 1.75) * (1.76 - 1.75));
}

}  // namespace
}  // namespace udb
