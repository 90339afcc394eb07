#include "common/box.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace udb {
namespace {

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
  Box b = Box::from_point(p);
  EXPECT_EQ(b.lo(0), 1.0);
  EXPECT_EQ(b.hi(0), 1.0);
  EXPECT_EQ(b.lo(1), -2.0);
  EXPECT_EQ(b.hi(1), -2.0);
  EXPECT_TRUE(b.contains(std::span<const double>(p)));
}

TEST(Box, FromBallCoversRadius) {
  const std::vector<double> c{0.0, 0.0};
  Box b = Box::from_ball(c, 2.0);
  EXPECT_EQ(b.lo(0), -2.0);
  EXPECT_EQ(b.hi(1), 2.0);
}

TEST(Box, ExpandPointGrowsBothSides) {
  Box b = Box::from_point(std::vector<double>{0.0, 0.0});
  b.expand(std::span<const double>(std::vector<double>{3.0, -1.0}));
  EXPECT_EQ(b.lo(1), -1.0);
  EXPECT_EQ(b.hi(0), 3.0);
}

TEST(Box, ExpandBoxIsUnionBound) {
  Box a = Box::from_point(std::vector<double>{0.0, 0.0});
  Box b = Box::from_point(std::vector<double>{5.0, 5.0});
  a.expand(b);
  EXPECT_EQ(a.lo(0), 0.0);
  EXPECT_EQ(a.hi(0), 5.0);
}

TEST(Box, InflateGrowsEverySide) {
  Box b = Box::from_point(std::vector<double>{1.0, 1.0});
  b.inflate(0.5);
  EXPECT_EQ(b.lo(0), 0.5);
  EXPECT_EQ(b.hi(1), 1.5);
}

TEST(Box, ContainsIsInclusiveOnBoundary) {
  Box b = Box::from_point(std::vector<double>{0.0});
  b.expand(std::span<const double>(std::vector<double>{1.0}));
  EXPECT_TRUE(b.contains(std::vector<double>{0.0}));
  EXPECT_TRUE(b.contains(std::vector<double>{1.0}));
  EXPECT_FALSE(b.contains(std::vector<double>{1.0000001}));
}

TEST(Box, OverlapsDetectsSeparationPerAxis) {
  Box a = Box::from_point(std::vector<double>{0.0, 0.0});
  a.expand(std::span<const double>(std::vector<double>{1.0, 1.0}));
  Box b = Box::from_point(std::vector<double>{2.0, 0.0});
  b.expand(std::span<const double>(std::vector<double>{3.0, 1.0}));
  EXPECT_FALSE(a.overlaps(b));
  b.expand(std::span<const double>(std::vector<double>{0.5, 0.5}));
  EXPECT_TRUE(a.overlaps(b));
}

TEST(Box, TouchingBoxesOverlap) {
  Box a = Box::from_point(std::vector<double>{0.0});
  a.expand(std::span<const double>(std::vector<double>{1.0}));
  Box b = Box::from_point(std::vector<double>{1.0});
  b.expand(std::span<const double>(std::vector<double>{2.0}));
  EXPECT_TRUE(a.overlaps(b));  // shared face counts as overlap
}

TEST(Box, MinSqDistZeroInside) {
  Box b = Box::from_ball(std::vector<double>{0.0, 0.0}, 1.0);
  EXPECT_EQ(b.min_sq_dist(std::vector<double>{0.5, -0.5}), 0.0);
}

TEST(Box, MinSqDistAxisAndCorner) {
  Box b = Box::from_ball(std::vector<double>{0.0, 0.0}, 1.0);
  EXPECT_DOUBLE_EQ(b.min_sq_dist(std::vector<double>{3.0, 0.0}), 4.0);
  EXPECT_DOUBLE_EQ(b.min_sq_dist(std::vector<double>{2.0, 2.0}), 2.0);
}

TEST(Box, OverlapsBallBoundaryInclusive) {
  Box b = Box::from_point(std::vector<double>{0.0, 0.0});
  // Ball centre at (2,0), radius exactly 2: touches the box corner.
  EXPECT_TRUE(b.overlaps_ball(std::vector<double>{2.0, 0.0}, 2.0));
  EXPECT_FALSE(b.overlaps_ball(std::vector<double>{2.0, 0.0}, 1.999999));
}

TEST(Box, HighDimensionalRoundTrip) {
  const std::size_t d = 74;
  std::vector<double> p(d, 1.5);
  Box b = Box::from_ball(p, 0.25);
  EXPECT_EQ(b.dim(), d);
  EXPECT_TRUE(b.contains(p));
  std::vector<double> q(d, 1.5);
  q[73] = 1.76;
  EXPECT_FALSE(b.contains(q));
  EXPECT_TRUE(b.overlaps_ball(q, 0.011));
}

}  // namespace
}  // namespace udb
