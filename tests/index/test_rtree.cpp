#include "index/rtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/distance.hpp"
#include "data/generators.hpp"

namespace udb {
namespace {

std::vector<PointId> linear_ball(const Dataset& ds,
                                 std::span<const double> center, double r,
                                 bool strict) {
  std::vector<PointId> out;
  const double r2 = r * r;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const double d2 =
        sq_dist(center.data(), ds.ptr(static_cast<PointId>(i)), ds.dim());
    if (strict ? d2 < r2 : d2 <= r2) out.push_back(static_cast<PointId>(i));
  }
  return out;
}

RTree build_tree(const Dataset& ds) { return RTree::bulk_load_str(ds); }

TEST(RTree, EmptyTreeQueriesNothing) {
  const RTree tree = RTree::bulk_load_str(3, {});
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{0.0, 0.0, 0.0}, 10.0, out);
  EXPECT_TRUE(out.empty());
  std::vector<std::pair<PointId, double>> knn;
  tree.query_knn(std::vector<double>{0.0, 0.0, 0.0}, 3, knn);
  EXPECT_TRUE(knn.empty());
}

TEST(RTree, RejectsBadConfig) {
  RTree::Config cfg;
  cfg.max_entries = 1;  // a node must hold at least two entries
  EXPECT_THROW(RTree::bulk_load_str(2, {}, cfg), std::invalid_argument);
  EXPECT_THROW(RTree::bulk_load_str(0, {}), std::invalid_argument);
}

TEST(RTree, SingleInsertIsFindable) {
  Dataset ds(2, {1.0, 2.0});
  RTree tree = build_tree(ds);
  EXPECT_EQ(tree.size(), 1u);
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{1.0, 2.0}, 0.1, out);
  EXPECT_EQ(out, std::vector<PointId>{0});
  out.clear();
  tree.query_ball(std::vector<double>{5.0, 5.0}, 0.1, out);
  EXPECT_TRUE(out.empty());
}

TEST(RTree, StrictVsInclusiveBoundary) {
  Dataset ds(1, {0.0, 2.0});
  RTree tree = build_tree(ds);
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{0.0}, 2.0, out, /*strict=*/true);
  EXPECT_EQ(out.size(), 1u);  // only the point at distance 0
  out.clear();
  tree.query_ball(std::vector<double>{0.0}, 2.0, out, /*strict=*/false);
  EXPECT_EQ(out.size(), 2u);  // the boundary point at exactly 2.0 included
}

TEST(RTree, DuplicatePointsAllRetrievable) {
  std::vector<double> coords;
  for (int i = 0; i < 100; ++i) {
    coords.push_back(1.0);
    coords.push_back(1.0);
  }
  Dataset ds(2, std::move(coords));
  RTree tree = build_tree(ds);
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{1.0, 1.0}, 0.001, out);
  EXPECT_EQ(out.size(), 100u);
  tree.check_invariants();
}

TEST(RTree, VisitEarlyStop) {
  Dataset ds = gen_uniform(100, 2, 0.0, 1.0, 3);
  RTree tree = build_tree(ds);
  int seen = 0;
  tree.visit_ball(std::vector<double>{0.5, 0.5}, 1.0,
                  [&seen](PointId, double) {
                    ++seen;
                    return seen < 5;
                  });
  EXPECT_EQ(seen, 5);
}

TEST(RTree, DistanceEvalCounterAdvances) {
  Dataset ds = gen_uniform(200, 2, 0.0, 1.0, 4);
  RTree tree = build_tree(ds);
  tree.reset_distance_evals();
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{0.5, 0.5}, 0.2, out);
  EXPECT_GT(tree.distance_evals(), 0u);
  EXPECT_LE(tree.distance_evals(), 200u);
}

TEST(RTree, MoveTransfersOwnership) {
  Dataset ds = gen_uniform(50, 2, 0.0, 1.0, 6);
  RTree tree = build_tree(ds);
  RTree moved = std::move(tree);
  EXPECT_EQ(moved.size(), 50u);
  std::vector<PointId> out;
  moved.query_ball(std::vector<double>{0.5, 0.5}, 2.0, out);
  EXPECT_EQ(out.size(), 50u);
}

struct QueryCase {
  std::size_t n;
  std::size_t dim;
  double radius;
  std::uint64_t seed;
};

class RTreeQueryEquivalence : public ::testing::TestWithParam<QueryCase> {};

TEST_P(RTreeQueryEquivalence, MatchesLinearScan) {
  const auto& c = GetParam();
  Dataset ds = gen_blobs(c.n, c.dim, 4, 100.0, 5.0, 0.1, c.seed);
  RTree tree = build_tree(ds);
  tree.check_invariants();
  for (std::size_t qi = 0; qi < ds.size(); qi += 13) {
    const auto q = ds.point(static_cast<PointId>(qi));
    for (bool strict : {true, false}) {
      std::vector<PointId> got;
      tree.query_ball(q, c.radius, got, strict);
      std::vector<PointId> want = linear_ball(ds, q, c.radius, strict);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "query " << qi << " strict=" << strict;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RTreeQueryEquivalence,
    ::testing::Values(QueryCase{300, 2, 3.0, 1}, QueryCase{300, 3, 5.0, 2},
                      QueryCase{500, 5, 10.0, 3}, QueryCase{200, 14, 40.0, 4},
                      QueryCase{400, 3, 0.5, 5}, QueryCase{400, 3, 100.0, 6},
                      QueryCase{64, 74, 120.0, 7}));

class RTreeConfigSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RTreeConfigSweep, InvariantsAndQueriesForNodeSizes) {
  RTree::Config cfg;
  cfg.max_entries = GetParam();
  Dataset ds = gen_uniform(400, 3, 0.0, 100.0, 11);
  std::vector<std::pair<const double*, PointId>> items;
  for (std::size_t i = 0; i < ds.size(); ++i)
    items.emplace_back(ds.ptr(static_cast<PointId>(i)),
                       static_cast<PointId>(i));
  const RTree tree = RTree::bulk_load_str(3, std::move(items), cfg);
  tree.check_invariants();
  const auto q = ds.point(0);
  std::vector<PointId> got;
  tree.query_ball(q, 20.0, got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, linear_ball(ds, q, 20.0, true));
}

INSTANTIATE_TEST_SUITE_P(NodeSizes, RTreeConfigSweep,
                         ::testing::Values(4u, 8u, 16u, 64u));

// A ball query keeps its depth-first stack inline up to 256 nodes and spills
// the rest to the heap: a 300-wide node pushes past the inline part, and the
// query must still visit every node once.
TEST(RTree, WideNodesSpillTheQueryStackAndStayExact) {
  RTree::Config cfg;
  cfg.max_entries = 300;
  Dataset ds = gen_uniform(300 * 300 + 7, 1, 0.0, 1000.0, 12);
  std::vector<std::pair<const double*, PointId>> items;
  for (std::size_t i = 0; i < ds.size(); ++i)
    items.emplace_back(ds.ptr(static_cast<PointId>(i)),
                       static_cast<PointId>(i));
  const RTree tree = RTree::bulk_load_str(1, std::move(items), cfg);
  tree.check_invariants();
  EXPECT_EQ(tree.stats().internal_nodes, 3u);  // a root over 2 wide parents
  for (double r : {2000.0, 3.0}) {
    const std::uint64_t visits = tree.node_visits();
    const auto q = ds.point(5);
    std::vector<PointId> got;
    tree.query_ball(q, r, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, linear_ball(ds, q, r, true)) << "radius " << r;
    // The all-covering query visits every node once: 3 internal, 301 leaves.
    if (r > 1000.0) {
      EXPECT_EQ(tree.node_visits() - visits, 304u);
    }
  }
}

}  // namespace
}  // namespace udb
