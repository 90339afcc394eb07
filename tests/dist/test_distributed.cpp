// End-to-end distributed exactness: µDBSCAN-D, PDSDBSCAN-D and the
// HPDBSCAN-like baseline must all reproduce the brute-force DBSCAN clustering
// for any rank count — the distributed analog of Theorem 1 (Section V).

#include <gtest/gtest.h>

#include "baselines/brute_dbscan.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "dist/hpdbscan_d.hpp"
#include "dist/mudbscan_d.hpp"
#include "dist/pdsdbscan_d.hpp"
#include "rank_records.hpp"
#include "metrics/exactness.hpp"

namespace udb {
namespace {

struct DistCase {
  const char* tag;
  std::size_t n;
  double eps;
  std::uint32_t min_pts;
  int ranks;
  std::uint64_t seed;
};

void PrintTo(const DistCase& c, std::ostream* os) {
  *os << c.tag << "_p" << c.ranks << "_s" << c.seed;
}

Dataset make_dataset(const DistCase& c) {
  const std::string tag = c.tag;
  if (tag == "blobs") return gen_blobs(c.n, 3, 5, 100.0, 3.0, 0.15, c.seed);
  if (tag == "galaxy") {
    GalaxyConfig cfg;
    cfg.halos = 8;
    cfg.box = 150.0;
    return gen_galaxy(c.n, cfg, c.seed);
  }
  if (tag == "roadnet") {
    RoadnetConfig cfg;
    cfg.waypoints = 50;
    return gen_roadnet(c.n, cfg, c.seed);
  }
  if (tag == "moons") return gen_two_moons(c.n, 0.05, c.seed);
  if (tag == "spanning") {
    // One long thin cluster guaranteed to span every partition: the
    // stress case for cross-rank merging.
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

class DistributedExactness : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedExactness, MuDbscanDMatchesBrute) {
  const auto& c = GetParam();
  Dataset ds = make_dataset(c);
  const DbscanParams prm{c.eps, c.min_pts};
  const auto truth = brute_dbscan(ds, prm);
  MuDbscanDStats st;
  const auto got = mudbscan_d(ds, prm, c.ranks, &st);
  const auto rep = compare_exact(truth, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
  if (c.ranks > 1) {
    EXPECT_GT(st.halo_points_total, 0u);
  }
}

TEST_P(DistributedExactness, PdsDbscanDMatchesBrute) {
  const auto& c = GetParam();
  Dataset ds = make_dataset(c);
  const DbscanParams prm{c.eps, c.min_pts};
  const auto truth = brute_dbscan(ds, prm);
  const auto got = pdsdbscan_d(ds, prm, c.ranks);
  const auto rep = compare_exact(truth, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST_P(DistributedExactness, HpdbscanDMatchesBrute) {
  const auto& c = GetParam();
  Dataset ds = make_dataset(c);
  const DbscanParams prm{c.eps, c.min_pts};
  const auto truth = brute_dbscan(ds, prm);
  const auto got = hpdbscan_d(ds, prm, c.ranks);
  const auto rep = compare_exact(truth, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedExactness,
    ::testing::Values(DistCase{"blobs", 700, 2.0, 5, 1, 1},
                      DistCase{"blobs", 700, 2.0, 5, 2, 2},
                      DistCase{"blobs", 700, 2.0, 5, 3, 3},
                      DistCase{"blobs", 700, 2.0, 5, 4, 4},
                      DistCase{"blobs", 700, 2.0, 5, 8, 5},
                      DistCase{"galaxy", 800, 1.5, 5, 4, 6},
                      DistCase{"galaxy", 800, 4.0, 6, 7, 7},
                      DistCase{"roadnet", 600, 1.0, 4, 4, 8},
                      DistCase{"moons", 600, 0.12, 5, 4, 9},
                      DistCase{"spanning", 400, 0.11, 3, 4, 10},
                      DistCase{"spanning", 400, 0.11, 3, 7, 11},
                      DistCase{"blobs", 300, 0.3, 3, 4, 12},
                      DistCase{"blobs", 300, 30.0, 10, 4, 13}));

TEST(Distributed, MuDbscanDDeterministicAcrossRuns) {
  Dataset ds = gen_blobs(500, 3, 4, 80.0, 3.0, 0.2, 41);
  const DbscanParams prm{2.5, 5};
  const auto a = mudbscan_d(ds, prm, 4);
  const auto b = mudbscan_d(ds, prm, 4);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.is_core, b.is_core);
}

TEST(Distributed, MuDbscanDMatchesSequentialMuDbscan) {
  Dataset ds = gen_galaxy(900, GalaxyConfig{}, 43);
  const DbscanParams prm{1.5, 5};
  const auto seq = mu_dbscan(ds, prm);
  const auto par = mudbscan_d(ds, prm, 6);
  const auto rep = compare_exact(seq, par);
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST(Distributed, MoreRanksThanPoints) {
  Dataset ds(2, {0.0, 0.0, 0.1, 0.1, 0.2, 0.2});
  const auto truth = brute_dbscan(ds, {0.5, 2});
  const auto got = mudbscan_d(ds, {0.5, 2}, 8);
  const auto rep = compare_exact(truth, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST(Distributed, AllNoiseDataset) {
  Dataset ds = gen_uniform(200, 3, 0.0, 1000.0, 47);
  const auto got = mudbscan_d(ds, {0.5, 5}, 4);
  EXPECT_EQ(got.num_noise(), 200u);
  EXPECT_EQ(got.num_clusters(), 0u);
}

TEST(Distributed, StatsArePopulated) {
  Dataset ds = gen_blobs(800, 3, 4, 60.0, 3.0, 0.1, 53);
  MuDbscanDStats st;
  (void)mudbscan_d(ds, {2.0, 5}, 4, &st);
  EXPECT_GT(st.t_tree, 0.0);
  EXPECT_GT(st.t_cluster, 0.0);
  EXPECT_GE(st.t_merge, 0.0);
  EXPECT_GT(st.total(), 0.0);
  EXPECT_GT(st.wall_seconds, 0.0);
  EXPECT_GT(st.queries_performed, 0u);
  expect_rank_records(st, ds.size(), 4);
}

TEST(Distributed, BaselinesFillRankRecords) {
  // The baselines run classical DBSCAN's one query per local or halo point
  // through the same pipeline, so their stats carry per-rank records too.
  Dataset ds = gen_blobs(800, 3, 4, 60.0, 3.0, 0.1, 61);
  const DbscanParams prm{2.0, 5};
  MuDbscanDStats pds, hpd;
  (void)pdsdbscan_d(ds, prm, 4, &pds);
  (void)hpdbscan_d(ds, prm, 4, &hpd);
  for (const MuDbscanDStats* st : {&pds, &hpd}) {
    expect_rank_records(*st, ds.size(), 4);
    EXPECT_GT(st->halo_points_total, 0u);
    EXPECT_EQ(st->queries_performed, ds.size() + st->halo_points_total);
    EXPECT_GT(st->t_tree, 0.0);
    EXPECT_GT(st->t_cluster, 0.0);
    EXPECT_EQ(st->t_reach, 0.0);
    EXPECT_EQ(st->t_post, 0.0);
  }
}

TEST(Distributed, VirtualMakespanShrinksWithRanks) {
  // The virtual-time model must show parallel benefit for the local compute
  // phases: per-rank clustering time at p=8 should be well below p=1. The
  // measured times of one run move with the host's load, so they are summed
  // over three runs at each rank count.
  Dataset ds = gen_galaxy(4000, GalaxyConfig{}, 59);
  const DbscanParams prm{1.2, 5};
  double t1 = 0.0, t8 = 0.0;
  for (int run = 0; run < 3; ++run) {
    MuDbscanDStats s1, s8;
    (void)mudbscan_d(ds, prm, 1, &s1);
    (void)mudbscan_d(ds, prm, 8, &s8);
    t1 += s1.t_cluster + s1.t_tree;
    t8 += s8.t_cluster + s8.t_tree;
  }
  EXPECT_LT(t8, t1 * 0.8);
}

}  // namespace
}  // namespace udb
