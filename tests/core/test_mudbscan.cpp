#include "core/mudbscan.hpp"

#include <gtest/gtest.h>

#include "baselines/brute_dbscan.hpp"
#include "core/mudbscan_engine.hpp"
#include "data/generators.hpp"
#include "dist/mudbscan_d.hpp"
#include "metrics/exactness.hpp"
#include "metrics/verify.hpp"
#include "obs/metrics.hpp"

namespace udb {
namespace {

TEST(MuDbscan, RejectsZeroMinPts) {
  Dataset ds(1, {0.0});
  EXPECT_THROW(mu_dbscan(ds, {1.0, 0}), std::invalid_argument);
}

TEST(MuDbscan, EmptyDataset) {
  Dataset ds = Dataset::empty(2);
  const auto r = mu_dbscan(ds, {1.0, 5});
  EXPECT_EQ(r.size(), 0u);
}

TEST(MuDbscan, SinglePointIsNoise) {
  Dataset ds(2, {0.0, 0.0});
  const auto r = mu_dbscan(ds, {1.0, 2});
  EXPECT_EQ(r.num_noise(), 1u);
}

TEST(MuDbscan, SinglePointIsCoreWithMinPtsOne) {
  Dataset ds(2, {0.0, 0.0});
  const auto r = mu_dbscan(ds, {1.0, 1});
  EXPECT_EQ(r.num_core(), 1u);
  EXPECT_EQ(r.num_clusters(), 1u);
}

TEST(MuDbscan, DenseMicroClusterCoresNeedNoQuery) {
  // 10 points tightly packed well inside eps/2 of the first point: the MC
  // centred at point 0 is a DMC, so every IC point (all of them) is tagged
  // wndq-core and the whole set costs zero neighborhood queries.
  std::vector<double> coords;
  for (int i = 0; i < 10; ++i) coords.push_back(0.01 * i);
  Dataset ds(1, std::move(coords));
  MuDbscanStats st;
  const auto r = mu_dbscan(ds, {1.0, 5}, &st);
  EXPECT_EQ(r.num_core(), 10u);
  EXPECT_EQ(r.num_clusters(), 1u);
  EXPECT_EQ(st.dmc, 1u);
  EXPECT_EQ(st.queries_performed, 0u);
  EXPECT_EQ(st.wndq_core_points, 10u);
}

TEST(MuDbscan, CoreMicroClusterMarksOnlyCenter) {
  // 5 points spread between eps/2 and eps of the centre: |IC| = 0 but
  // |MC| = 5 >= MinPts => CMC; only the centre is wndq-core, the rest are
  // queried.
  Dataset ds(1, {0.0, 0.6, 0.7, -0.6, -0.7});
  MuDbscanStats st;
  const auto r = mu_dbscan(ds, {1.0, 5}, &st);
  EXPECT_EQ(st.cmc, 1u);
  EXPECT_EQ(st.dmc, 0u);
  EXPECT_TRUE(r.is_core[0]);
  EXPECT_EQ(st.queries_performed, 4u);  // everyone but the centre
  EXPECT_EQ(r.num_clusters(), 1u);
}

TEST(MuDbscan, SparseMicroClustersYieldNoise) {
  Dataset ds(1, {0.0, 100.0, 200.0});
  MuDbscanStats st;
  const auto r = mu_dbscan(ds, {1.0, 2}, &st);
  EXPECT_EQ(st.smc, 3u);
  EXPECT_EQ(r.num_noise(), 3u);
}

TEST(MuDbscan, QueriesPlusWndqConsistent) {
  Dataset ds = gen_blobs(2000, 3, 5, 100.0, 3.0, 0.15, 17);
  MuDbscanStats st;
  (void)mu_dbscan(ds, {2.0, 5}, &st);
  // Every point either ran its query or was tagged wndq before its turn;
  // dynamic promotion can tag a point after its query, so the sum may
  // exceed n but queries alone never do.
  EXPECT_LE(st.queries_performed, ds.size());
  EXPECT_GE(st.queries_performed + st.wndq_core_points, ds.size());
  EXPECT_GT(st.wndq_core_points, 0u);
  EXPECT_GT(st.num_mcs, 0u);
  EXPECT_EQ(st.dmc + st.cmc + st.smc, st.num_mcs);
}

TEST(MuDbscan, PhaseTimesArePopulated) {
  Dataset ds = gen_blobs(1500, 3, 4, 80.0, 3.0, 0.1, 19);
  MuDbscanStats st;
  (void)mu_dbscan(ds, {2.0, 5}, &st);
  EXPECT_GT(st.t_tree, 0.0);
  EXPECT_GE(st.t_reach, 0.0);
  EXPECT_GT(st.t_cluster, 0.0);
  EXPECT_GE(st.t_post, 0.0);
  EXPECT_GT(st.total(), 0.0);
}

TEST(MuDbscan, QuerySaveFractionMatchesCounters) {
  Dataset ds = gen_blobs(1000, 2, 3, 50.0, 1.5, 0.1, 23);
  MuDbscanStats st;
  (void)mu_dbscan(ds, {1.5, 5}, &st);
  const double frac = st.query_save_fraction(ds.size());
  EXPECT_NEAR(frac,
              1.0 - static_cast<double>(st.queries_performed) /
                        static_cast<double>(ds.size()),
              1e-12);
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
}

TEST(MuDbscan, EngineStepwiseMatchesOneShot) {
  Dataset ds = gen_galaxy(1200, GalaxyConfig{}, 29);
  const DbscanParams prm{1.5, 5};
  MuDbscanEngine engine(ds, prm);
  engine.build_tree();
  engine.find_reachable();
  engine.cluster();
  engine.post_process();
  const auto stepwise = engine.extract_result();
  const auto oneshot = mu_dbscan(ds, prm);
  const auto rep = compare_exact(stepwise, oneshot);
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST(MuDbscan, AblationConfigsStayExact) {
  Dataset ds = gen_blobs(800, 3, 4, 60.0, 2.5, 0.15, 31);
  const DbscanParams prm{2.0, 5};
  const auto truth = brute_dbscan(ds, prm);
  for (bool two_eps : {true, false}) {
    for (bool promo : {true, false}) {
      for (bool filt : {true, false}) {
        MuDbscanConfig cfg;
        cfg.two_eps_rule = two_eps;
        cfg.dynamic_promotion = promo;
        cfg.mbr_filtration = filt;
        const auto got = mu_dbscan(ds, prm, nullptr, cfg);
        const auto rep = compare_exact(truth, got);
        EXPECT_TRUE(rep.exact())
            << rep.detail << " (two_eps=" << two_eps << " promo=" << promo
            << " filt=" << filt << ")";
      }
    }
  }
}

TEST(MuDbscan, DynamicPromotionSavesQueries) {
  Dataset ds = gen_blobs(3000, 2, 4, 40.0, 1.0, 0.05, 37);
  const DbscanParams prm{1.2, 5};
  MuDbscanStats with_promo, without_promo;
  MuDbscanConfig cfg;
  (void)mu_dbscan(ds, prm, &with_promo, cfg);
  cfg.dynamic_promotion = false;
  (void)mu_dbscan(ds, prm, &without_promo, cfg);
  EXPECT_LE(with_promo.queries_performed, without_promo.queries_performed);
}

// Algorithm 6 runs MC by MC over one candidate block per MC; with and
// without the MBR filter that gathers it, and at every thread count, the
// result must satisfy the DBSCAN conditions checked from first principles.
TEST(MuDbscan, McMajorAlgorithm6PassesVerifyAtEveryThreadCount) {
  GalaxyConfig gcfg;
  gcfg.halos = 6;
  gcfg.box = 80.0;
  const std::vector<std::pair<Dataset, DbscanParams>> cases = {
      {gen_galaxy(2500, gcfg, 12), DbscanParams{1.5, 5}},
      {gen_blobs(2000, 3, 4, 40.0, 2.0, 0.2, 13), DbscanParams{2.5, 8}},
      {gen_uniform(1500, 2, 0.0, 20.0, 14), DbscanParams{1.0, 4}}};
  for (const auto& [ds, prm] : cases) {
    const auto truth = brute_dbscan(ds, prm);
    for (bool filter : {true, false}) {
      for (unsigned threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("n=" + std::to_string(ds.size()) + " filter=" +
                     std::to_string(filter) + " threads=" +
                     std::to_string(threads));
        MuDbscanConfig cfg;
        cfg.mbr_filtration = filter;
        cfg.num_threads = threads;
        MuDbscanStats st;
        const auto got = mu_dbscan(ds, prm, &st, cfg);
        const VerifyReport rep = verify_dbscan(ds, prm, got);
        EXPECT_TRUE(rep.valid()) << rep.detail;
        EXPECT_TRUE(compare_exact(truth, got).exact());
        EXPECT_EQ(st.queries_performed + st.avoided_dmc + st.avoided_cmc +
                      st.avoided_promotion,
                  ds.size());
      }
    }
  }
}

// Algorithm 6 skips the rest of a reach MC's hits after one union only when
// that MC is dense or core. Here both MCs are sparse (MinPts = 5, eps = 1.5):
// MC 0 = {0, 2, 4}, MC 1 = {1, 3, 5}. Point 2's query claims 1, 3 and 5 as
// borders; 4's query then finds no core in MC 1 and stays in a set of its
// own. 1, 3 and 5 are core, and each of their queries meets MC 0's cores 2
// and 4, in that order, in two different sets: skipping MC 0 after the union
// with 2 would leave 4 a cluster of its own.
TEST(MuDbscan, SparseReachMcGetsOneUnionPerCoreHit) {
  const Dataset ds(2, {2, 2.5, 2.5, 4.5, 3, 3.5, 2, 4.5, 1.5, 3.5, 2.5, 4});
  const DbscanParams prm{1.5, 5};
  const auto truth = brute_dbscan(ds, prm);
  ASSERT_EQ(truth.num_clusters(), 1u);
  for (unsigned threads : {1u, 4u}) {
    MuDbscanConfig cfg;
    cfg.num_threads = threads;
    MuDbscanStats st;
    const auto got = mu_dbscan(ds, prm, &st, cfg);
    ASSERT_EQ(st.num_mcs, 2u);
    ASSERT_EQ(st.smc, 2u);
    const auto rep = compare_exact(truth, got);
    EXPECT_TRUE(rep.exact()) << rep.detail << " (threads=" << threads << ")";
  }
}

TEST(MuDbscan, NoisePromotedToBorderByLateWndqCore) {
  // Regression guard for Algorithm 8: a point processed as provisional noise
  // whose neighbor is promoted to wndq-core later must end as border. We
  // force this with a dataset where a border point precedes its dense blob
  // in processing order.
  std::vector<double> coords{-0.9};  // border-ish point, processed first
  for (int i = 0; i < 8; ++i) coords.push_back(0.05 * i);  // dense blob
  Dataset ds(1, std::move(coords));
  const auto truth = brute_dbscan(ds, {1.0, 6});
  const auto got = mu_dbscan(ds, {1.0, 6});
  const auto rep = compare_exact(truth, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
  EXPECT_FALSE(got.is_core[0]);
  EXPECT_NE(got.label[0], kNoise);
}

// Algorithm 7 fixtures: two or more clusters that only Algorithm 7 joins,
// because the cores linking them never ran a neighborhood query.

// A chain of dense MCs on a line. Blob i has its centre at 1.5 i (listed
// first) and six members at +-0.15/0.3/0.45, all inside the inner circle,
// so with MinPts = 5 each blob is a DMC and every point is a wndq core
// (zero queries). No member is within eps of another blob's centre, so each
// blob is its own MC; adjacent blobs touch only through the member pair
// (c_i + 0.45, c_{i+1} - 0.45), 0.6 < eps apart.
Dataset dense_mc_chain(int blobs) {
  std::vector<double> coords;
  for (int i = 0; i < blobs; ++i) {
    const double c = 1.5 * i;
    coords.push_back(c);
    for (double o : {-0.45, -0.3, -0.15, 0.15, 0.3, 0.45})
      coords.push_back(c + o);
  }
  return Dataset(1, std::move(coords));
}

// Three sparse MCs (MinPts = 4): A = {3.1, 2.5}, B = {0.65, 1.0, 0.8} and,
// founded from the deferred points, C = {2.1, 1.75, 2.0}. Queried in order,
// 1.0 and 0.8 are cores whose cluster sees 1.75 only as 2.5's border point;
// 2.1's query then promotes 1.75 (and 2.0), which is never queried. Only
// Algorithm 7 — a promoted wndq core in a sparse MC against a sparse
// reachable MC — unites 1.75 with the cores 0.8 and 1.0.
Dataset promoted_core_sparse_mcs() {
  return Dataset(1, {3.1, 0.65, 2.5, 1.0, 0.8, 2.1, 1.75, 2.0});
}

// Three MCs (MinPts = 3): CMCs A = {0.3, 0.9, 1.25} and
// B = {3.2, 2.35, 2.55, 4.05}, and the sparse C = {1.3, 2.1} founded from the
// deferred points. 0.9's query promotes 1.25 and 1.3 into A's set; 2.35's
// promotes 2.1 (and 2.55) into B's. C's wndq cores thus sit in two sets, so no MC pair
// involving C may be skipped on C's first point alone: only Algorithm 7
// joins 2.1 with 1.3 and 1.25.
Dataset sparse_mc_cores_in_two_sets() {
  return Dataset(1, {0.3, 3.2, 0.9, 2.35, 2.55, 1.3, 1.25, 4.05, 2.1});
}

// Exact at 1 and 4 threads with Algorithm 7 doing distance work, and exact
// under mudbscan_d at 2 ranks. Returns the Algorithm 7 distance evaluations
// summed over the 2 ranks' engines.
std::uint64_t expect_alg7_joins(const Dataset& ds, const DbscanParams& prm,
                                std::size_t clusters) {
  const auto truth = brute_dbscan(ds, prm);
  EXPECT_EQ(truth.num_clusters(), clusters);
  for (unsigned threads : {1u, 4u}) {
    MuDbscanConfig cfg;
    cfg.num_threads = threads;
    MuDbscanStats st;
    const auto got = mu_dbscan(ds, prm, &st, cfg);
    const auto rep = compare_exact(truth, got);
    EXPECT_TRUE(rep.exact()) << rep.detail << " (threads=" << threads << ")";
    EXPECT_GT(st.post_core_distance_evals, 0u) << "threads=" << threads;
    EXPECT_GT(st.post_core_mc_pairs, 0u) << "threads=" << threads;
    EXPECT_LE(st.post_core_mc_pairs_skipped, st.post_core_mc_pairs);
  }
  obs::MetricsRegistry reg;
  DistConfig dcfg;
  dcfg.mu.metrics = &reg;
  const auto dist = mudbscan_d(ds, prm, 2, nullptr, dcfg);
  const auto rep = compare_exact(truth, dist);
  EXPECT_TRUE(rep.exact()) << rep.detail << " (mudbscan_d, 2 ranks)";
  return reg.snapshot().counter(obs::Counter::kPostCoreDistanceEvals);
}

TEST(MuDbscan, PostCoreJoinsDenseMcsLinkedOnlyByWndqCores) {
  const Dataset ds = dense_mc_chain(8);
  const DbscanParams prm{1.0, 5};
  MuDbscanStats st;
  (void)mu_dbscan(ds, prm, &st);
  ASSERT_EQ(st.num_mcs, 8u);
  ASSERT_EQ(st.dmc, 8u);
  ASSERT_EQ(st.queries_performed, 0u);
  // Every blob's pair with itself is one set already.
  EXPECT_GE(st.post_core_mc_pairs_skipped, 8u);
  // Each rank holds a run of blobs, so Algorithm 7 joins them there too.
  EXPECT_GT(expect_alg7_joins(ds, prm, 1), 0u);
}

TEST(MuDbscan, PostCoreJoinsPromotedCoreInSparseMcs) {
  const Dataset ds = promoted_core_sparse_mcs();
  const DbscanParams prm{1.0, 4};
  MuDbscanStats st;
  (void)mu_dbscan(ds, prm, &st);
  ASSERT_EQ(st.num_mcs, 3u);
  ASSERT_EQ(st.smc, 3u);
  ASSERT_EQ(st.avoided_promotion, 2u);
  // At 2 ranks the join may come from the cross-rank merge instead.
  (void)expect_alg7_joins(ds, prm, 1);
}

TEST(MuDbscan, PostCoreJoinsSparseMcCoresInTwoSets) {
  const Dataset ds = sparse_mc_cores_in_two_sets();
  const DbscanParams prm{1.0, 3};
  MuDbscanStats st;
  (void)mu_dbscan(ds, prm, &st);
  ASSERT_EQ(st.num_mcs, 3u);
  ASSERT_EQ(st.cmc, 2u);
  ASSERT_EQ(st.smc, 1u);
  ASSERT_EQ(st.avoided_promotion, 4u);
  (void)expect_alg7_joins(ds, prm, 1);
}

}  // namespace
}  // namespace udb
