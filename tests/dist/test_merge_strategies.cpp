// The two global-resolution strategies of the merge (all-gathered pairs vs
// the paper's distributed union-find, dist/merge.hpp) must produce
// *identical* labels — the canonical root of a component is its minimum
// representative gid under both.

#include <gtest/gtest.h>

#include "baselines/brute_dbscan.hpp"
#include "data/generators.hpp"
#include "dist/mudbscan_d.hpp"
#include "metrics/exactness.hpp"

namespace udb {
namespace {

struct StratCase {
  const char* tag;
  std::size_t n;
  double eps;
  std::uint32_t min_pts;
  int ranks;
  std::uint64_t seed;
};

void PrintTo(const StratCase& c, std::ostream* os) {
  *os << c.tag << "_p" << c.ranks << "_s" << c.seed;
}

Dataset make_dataset(const StratCase& c) {
  const std::string tag = c.tag;
  if (tag == "blobs") return gen_blobs(c.n, 3, 5, 100.0, 3.0, 0.15, c.seed);
  if (tag == "galaxy") {
    GalaxyConfig cfg;
    cfg.halos = 8;
    cfg.box = 150.0;
    return gen_galaxy(c.n, cfg, c.seed);
  }
  if (tag == "spanning") {
    std::vector<double> coords;
    for (std::size_t i = 0; i < c.n; ++i) {
      coords.push_back(static_cast<double>(i) * 0.05);
      coords.push_back(0.0);
      coords.push_back(0.0);
    }
    return Dataset(3, std::move(coords));
  }
  throw std::logic_error("unknown tag");
}

constexpr MergeStrategy kDuf = MergeStrategy::DistributedUnionFind;

DistConfig with(MergeStrategy strategy) {
  DistConfig cfg;
  cfg.merge_strategy = strategy;
  return cfg;
}

class MergeStrategies : public ::testing::TestWithParam<StratCase> {};

TEST_P(MergeStrategies, DistributedUfIsExact) {
  const auto& c = GetParam();
  Dataset ds = make_dataset(c);
  const DbscanParams prm{c.eps, c.min_pts};
  const auto truth = brute_dbscan(ds, prm);
  const auto got = mudbscan_d(ds, prm, c.ranks, nullptr, with(kDuf));
  const auto rep = compare_exact(truth, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST_P(MergeStrategies, StrategiesProduceIdenticalLabels) {
  const auto& c = GetParam();
  Dataset ds = make_dataset(c);
  const DbscanParams prm{c.eps, c.min_pts};
  const auto ag = mudbscan_d(ds, prm, c.ranks, nullptr,
                             with(MergeStrategy::AllGatherPairs));
  const auto duf = mudbscan_d(ds, prm, c.ranks, nullptr, with(kDuf));
  // Strict equality of raw labels, not merely the same partition: both
  // strategies canonicalize the root to the minimum representative gid.
  EXPECT_EQ(ag.label, duf.label);
  EXPECT_EQ(ag.is_core, duf.is_core);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergeStrategies,
    ::testing::Values(StratCase{"blobs", 600, 2.0, 5, 2, 1},
                      StratCase{"blobs", 600, 2.0, 5, 4, 2},
                      StratCase{"blobs", 600, 2.0, 5, 7, 3},
                      StratCase{"galaxy", 800, 1.5, 5, 4, 4},
                      StratCase{"galaxy", 800, 4.0, 6, 8, 5},
                      StratCase{"spanning", 400, 0.11, 3, 4, 6},
                      StratCase{"spanning", 400, 0.11, 3, 8, 7}));

TEST(MergeStrategies, DistributedUfReportsRounds) {
  Dataset ds = gen_galaxy(800, GalaxyConfig{}, 9);
  MuDbscanDStats st;
  (void)mudbscan_d(ds, {1.5, 5}, 4, &st, with(kDuf));
  EXPECT_GT(st.union_pairs + st.cross_edges, 0u);
}

TEST(MergeStrategies, SingleRankTrivial) {
  Dataset ds = gen_blobs(300, 2, 3, 40.0, 2.0, 0.1, 11);
  const auto a = mudbscan_d(ds, {1.5, 5}, 1, nullptr, with(kDuf));
  const auto b = mudbscan_d(ds, {1.5, 5}, 1);
  EXPECT_EQ(a.label, b.label);
}

}  // namespace
}  // namespace udb
