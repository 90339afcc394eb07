// kNN queries and STR bulk loading for the R-tree.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/distance.hpp"
#include "data/generators.hpp"
#include "index/rtree.hpp"

namespace udb {
namespace {

std::vector<std::pair<PointId, double>> brute_knn(const Dataset& ds,
                                                  std::span<const double> q,
                                                  std::size_t k) {
  std::vector<std::pair<PointId, double>> all;
  for (std::size_t i = 0; i < ds.size(); ++i)
    all.emplace_back(static_cast<PointId>(i),
                     sq_dist(q.data(), ds.ptr(static_cast<PointId>(i)),
                             ds.dim()));
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  all.resize(std::min(k, all.size()));
  return all;
}

RTree bulk_tree(const Dataset& ds) { return RTree::bulk_load_str(ds); }

TEST(RTreeKnn, EmptyTreeAndZeroK) {
  const RTree tree = RTree::bulk_load_str(2, {});
  std::vector<std::pair<PointId, double>> out;
  tree.query_knn(std::vector<double>{0.0, 0.0}, 5, out);
  EXPECT_TRUE(out.empty());
  Dataset ds(2, {1.0, 1.0});
  RTree one = bulk_tree(ds);
  one.query_knn(std::vector<double>{0.0, 0.0}, 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(RTreeKnn, KLargerThanNReturnsAll) {
  Dataset ds = gen_uniform(10, 2, 0.0, 1.0, 3);
  RTree tree = bulk_tree(ds);
  std::vector<std::pair<PointId, double>> out;
  tree.query_knn(ds.point(0), 50, out);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_EQ(out[0].first, 0u);  // the query point itself is nearest
  EXPECT_EQ(out[0].second, 0.0);
}

TEST(RTreeKnn, ResultsAreSortedNearestFirst) {
  Dataset ds = gen_blobs(500, 3, 4, 50.0, 3.0, 0.1, 5);
  RTree tree = bulk_tree(ds);
  std::vector<std::pair<PointId, double>> out;
  tree.query_knn(ds.point(17), 20, out);
  ASSERT_EQ(out.size(), 20u);
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LE(out[i - 1].second, out[i].second);
}

struct KnnCase {
  std::size_t n, dim, k;
  std::uint64_t seed;
};

class RTreeKnnEquivalence : public ::testing::TestWithParam<KnnCase> {};

TEST_P(RTreeKnnEquivalence, MatchesBruteForce) {
  const auto& c = GetParam();
  Dataset ds = gen_blobs(c.n, c.dim, 4, 100.0, 4.0, 0.1, c.seed);
  RTree tree = bulk_tree(ds);
  for (std::size_t qi = 0; qi < ds.size(); qi += 29) {
    const auto q = ds.point(static_cast<PointId>(qi));
    std::vector<std::pair<PointId, double>> got;
    tree.query_knn(q, c.k, got);
    const auto want = brute_knn(ds, q, c.k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Distances must match exactly; ids may differ only between
      // equidistant points.
      EXPECT_DOUBLE_EQ(got[i].second, want[i].second) << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RTreeKnnEquivalence,
                         ::testing::Values(KnnCase{200, 2, 1, 1},
                                           KnnCase{300, 3, 5, 2},
                                           KnnCase{400, 5, 10, 3},
                                           KnnCase{150, 14, 7, 4}));

TEST(RTreeBulkLoad, EmptyInput) {
  RTree tree = RTree::bulk_load_str(3, {});
  EXPECT_EQ(tree.size(), 0u);
  std::vector<PointId> out;
  tree.query_ball(std::vector<double>{0.0, 0.0, 0.0}, 1.0, out);
  EXPECT_TRUE(out.empty());
}

TEST(RTreeBulkLoad, InvariantsAndCount) {
  Dataset ds = gen_blobs(5000, 3, 5, 100.0, 4.0, 0.2, 7);
  RTree tree = bulk_tree(ds);
  EXPECT_EQ(tree.size(), 5000u);
  tree.check_invariants();
  const auto s = tree.stats();
  EXPECT_EQ(s.entries, 5000u);
}

TEST(RTreeBulkLoad, PacksFullerNodesAndStaysQueryCompetitive) {
  // STR's guarantee is structural: every leaf but the last of each slab is
  // packed full, so the tree has the fewest leaves and levels the fan-out
  // allows, give or take a slab remainder. A 3.0 ball over uniform points in
  // [0, 100]^3 holds about 0.011% of them: each query must evaluate a small
  // multiple of that, not a large share of the points.
  Dataset ds = gen_uniform(20000, 3, 0.0, 100.0, 11);
  RTree bulk = bulk_tree(ds);
  const std::size_t full_leaves = (ds.size() + 15) / 16;  // 1250
  EXPECT_LT(bulk.stats().leaf_nodes, full_leaves * 11 / 10);
  EXPECT_LE(bulk.stats().height, 4u);  // 1250 leaves -> 79 -> 5 -> 1

  bulk.reset_distance_evals();
  std::vector<PointId> out;
  std::size_t queries = 0;
  for (std::size_t qi = 0; qi < ds.size(); qi += 100, ++queries) {
    out.clear();
    bulk.query_ball(ds.point(static_cast<PointId>(qi)), 3.0, out);
  }
  EXPECT_LT(bulk.distance_evals(), queries * ds.size() / 50);
}

TEST(RTreeBulkLoad, KnnOnBulkTree) {
  Dataset ds = gen_blobs(800, 3, 3, 50.0, 3.0, 0.1, 15);
  RTree tree = bulk_tree(ds);
  std::vector<std::pair<PointId, double>> got;
  tree.query_knn(ds.point(5), 8, got);
  const auto want = brute_knn(ds, ds.point(5), 8);
  ASSERT_EQ(got.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(got[i].second, want[i].second);
}

}  // namespace
}  // namespace udb
