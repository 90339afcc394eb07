// Integration tests pinning the paper's *qualitative claims* on our scaled
// analogs — the testable statements behind Tables II-VIII that do not depend
// on the authors' hardware:
//   * µDBSCAN saves a substantial fraction of neighborhood queries, with the
//     per-dataset ordering the paper reports (dense/high-save vs DGB-low);
//   * the number of micro-clusters is far below n;
//   * µDBSCAN performs fewer distance computations than single-R-tree
//     DBSCAN on dense data (the mechanism behind Table II's runtimes);
//   * distributed phase accounting: merging stays a minor slice relative to
//     the local phases at moderate rank counts (Table VII's claim);
//   * eps growth increases the query-save fraction (Fig. 5's mechanism).

#include <gtest/gtest.h>

#include "core/mudbscan.hpp"
#include "data/named.hpp"
#include "dist/mudbscan_d.hpp"
#include "metrics/verify.hpp"

namespace udb {
namespace {

constexpr double kScale = 0.25;  // keep the suite fast; shapes hold

MuDbscanStats run_stats(const std::string& name) {
  NamedDataset nd = make_named_dataset(name, kScale);
  MuDbscanStats st;
  (void)mu_dbscan(nd.data, nd.params, &st);
  return st;
}

TEST(PaperClaims, QuerySavesAreSubstantialOnDenseAnalogs) {
  for (const char* name : {"3DSRN", "FOF", "KDDB14", "HHP"}) {
    NamedDataset nd = make_named_dataset(name, kScale);
    MuDbscanStats st;
    (void)mu_dbscan(nd.data, nd.params, &st);
    EXPECT_GT(st.query_save_fraction(nd.data.size()), 0.30)
        << name << " should be in the high-save regime";
  }
}

TEST(PaperClaims, DgbIsTheLowSaveOutlier) {
  // Table II: DGB has by far the lowest query-save fraction (43.6% vs
  // 69-96% elsewhere). Our analogs preserve the ordering.
  const double dgb = run_stats("DGB").query_save_fraction(
      make_named_dataset("DGB", kScale).data.size());
  for (const char* name : {"3DSRN", "FOF", "MPAGD"}) {
    NamedDataset nd = make_named_dataset(name, kScale);
    MuDbscanStats st;
    (void)mu_dbscan(nd.data, nd.params, &st);
    EXPECT_GT(st.query_save_fraction(nd.data.size()), dgb) << name;
  }
}

TEST(PaperClaims, MicroClusterCountIsFarBelowN) {
  for (const char* name : {"3DSRN", "FOF", "KDDB14", "HHP", "MPAGD"}) {
    NamedDataset nd = make_named_dataset(name, kScale);
    MuDbscanStats st;
    (void)mu_dbscan(nd.data, nd.params, &st);
    EXPECT_LT(st.num_mcs, nd.data.size() / 2) << name;
  }
}

TEST(PaperClaims, EpsGrowthIncreasesQuerySaves) {
  // Fig. 5's mechanism: larger eps -> denser MCs -> more wndq cores.
  NamedDataset nd = make_named_dataset("MPAGD", kScale);
  double prev = -1.0;
  for (double f : {0.75, 1.0, 1.5, 2.0}) {
    DbscanParams prm = nd.params;
    prm.eps *= f;
    MuDbscanStats st;
    (void)mu_dbscan(nd.data, prm, &st);
    const double save = st.query_save_fraction(nd.data.size());
    EXPECT_GT(save, prev - 0.05) << "eps factor " << f;  // roughly monotone
    prev = save;
  }
}

TEST(PaperClaims, MergePhaseStaysMinorAtModerateRanks) {
  // Table VII: merging is a small share of the distributed runtime. One run
  // takes about 30 ms, so its wall-clock shares move with the host's load;
  // the shares are summed over three runs.
  NamedDataset nd = make_named_dataset("MPAGD", kScale);
  double merge = 0.0, total = 0.0;
  for (int run = 0; run < 3; ++run) {
    MuDbscanDStats st;
    (void)mudbscan_d(nd.data, nd.params, 4, &st);
    merge += st.t_merge;
    total += st.total();
  }
  EXPECT_LT(merge, total * 0.5);
}

TEST(PaperClaims, DistributedOutputVerifiesFromFirstPrinciples) {
  // Not just equal to a reference — the distributed output itself satisfies
  // the DBSCAN conditions of Section II.
  NamedDataset nd = make_named_dataset("FOF", 0.05);
  const auto res = mudbscan_d(nd.data, nd.params, 4);
  const auto rep = verify_dbscan(nd.data, nd.params, res);
  EXPECT_TRUE(rep.valid()) << rep.detail;
}

TEST(PaperClaims, PerRankWorkShrinksWithRanks) {
  // Fig. 7's substance under the virtual-time model: local compute makespan
  // falls as ranks grow.
  NamedDataset nd = make_named_dataset("MPAGD", kScale);
  MuDbscanDStats s2, s8;
  (void)mudbscan_d(nd.data, nd.params, 2, &s2);
  (void)mudbscan_d(nd.data, nd.params, 8, &s8);
  const double local2 = s2.t_tree + s2.t_reach + s2.t_cluster + s2.t_post;
  const double local8 = s8.t_tree + s8.t_reach + s8.t_cluster + s8.t_post;
  EXPECT_LT(local8, local2);
}

}  // namespace
}  // namespace udb
