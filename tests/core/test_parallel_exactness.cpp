// The tentpole guarantee of the thread-parallel engine: for every thread
// count, the clustering is exact-equal to the one-thread run (same core
// set, same core partition, same noise set) — which is itself exact-equal to
// classical DBSCAN (Theorem 1). Each parallel configuration is run several
// times so racy interleavings get a chance to differ; they must not.

#include <gtest/gtest.h>

#include "baselines/brute_dbscan.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "metrics/exactness.hpp"

namespace udb {
namespace {

struct ParCase {
  const char* tag;
  std::size_t n;
  std::size_t dim;
  double eps;
  std::uint32_t min_pts;
  std::uint64_t seed;
};

void PrintTo(const ParCase& c, std::ostream* os) {
  *os << c.tag << "_n" << c.n << "_d" << c.dim << "_e" << c.eps << "_m"
      << c.min_pts;
}

Dataset make_dataset(const ParCase& c) {
  const std::string tag = c.tag;
  if (tag == "blobs") return gen_blobs(c.n, c.dim, 5, 100.0, 3.0, 0.15, c.seed);
  if (tag == "galaxy") {
    GalaxyConfig cfg;
    cfg.halos = 8;
    cfg.subhalos_per_halo = 5;
    cfg.box = 150.0;
    return gen_galaxy(c.n, cfg, c.seed);
  }
  if (tag == "roadnet") {
    RoadnetConfig cfg;
    cfg.waypoints = 50;
    return gen_roadnet(c.n, cfg, c.seed);
  }
  if (tag == "uniform") return gen_uniform(c.n, c.dim, 0.0, 25.0, c.seed);
  throw std::logic_error("unknown tag");
}

class ParallelExactness : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelExactness, EveryThreadCountMatchesSequential) {
  const auto& c = GetParam();
  Dataset ds = make_dataset(c);
  const DbscanParams prm{c.eps, c.min_pts};

  MuDbscanConfig seq_cfg;
  seq_cfg.num_threads = 1;
  MuDbscanStats seq_st;
  const auto seq = mu_dbscan(ds, prm, &seq_st, seq_cfg);

  for (const unsigned nt : {2u, 4u, 8u}) {
    // Repeat: thread interleavings differ run to run, the clustering must
    // not.
    for (int rep = 0; rep < 3; ++rep) {
      MuDbscanConfig cfg;
      cfg.num_threads = nt;
      MuDbscanStats st;
      const auto got = mu_dbscan(ds, prm, &st, cfg);
      const auto rep_cmp = compare_exact(seq, got);
      EXPECT_TRUE(rep_cmp.exact())
          << "threads=" << nt << " rep=" << rep << ": " << rep_cmp.detail;
      // Tree phases are deterministic, so the MC census matches exactly.
      EXPECT_EQ(st.num_mcs, seq_st.num_mcs) << nt;
      EXPECT_EQ(st.dmc, seq_st.dmc) << nt;
      EXPECT_EQ(st.cmc, seq_st.cmc) << nt;
      EXPECT_EQ(st.smc, seq_st.smc) << nt;
      // Promotion races can only save queries relative to an adversarial
      // schedule, never exceed one query per point.
      EXPECT_LE(st.queries_performed, ds.size()) << nt;
      // DMC/CMC tags are claimed in Algorithm 4 before any promotion and
      // never overwritten, so their avoidance counts do not depend on the
      // schedule; every point is either queried or skipped exactly once.
      EXPECT_EQ(st.avoided_dmc, seq_st.avoided_dmc) << nt;
      EXPECT_EQ(st.avoided_cmc, seq_st.avoided_cmc) << nt;
      EXPECT_EQ(st.queries_performed + st.avoided_dmc + st.avoided_cmc +
                    st.avoided_promotion,
                ds.size())
          << nt;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelExactness,
    ::testing::Values(ParCase{"blobs", 3000, 2, 2.0, 5, 41},
                      ParCase{"blobs", 2500, 3, 2.5, 5, 42},
                      ParCase{"galaxy", 3000, 3, 1.5, 5, 43},
                      ParCase{"roadnet", 2500, 3, 1.0, 4, 44},
                      ParCase{"uniform", 2000, 2, 1.0, 4, 45}));

TEST(ParallelExactnessExtra, ParallelMatchesBruteForce) {
  // Close the loop once against ground truth, not just against the
  // one-thread run.
  Dataset ds = gen_blobs(1200, 2, 4, 80.0, 3.0, 0.2, 77);
  const DbscanParams prm{2.0, 5};
  const auto truth = brute_dbscan(ds, prm);
  MuDbscanConfig cfg;
  cfg.num_threads = 4;
  const auto got = mu_dbscan(ds, prm, nullptr, cfg);
  const auto rep = compare_exact(truth, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST(ParallelExactnessExtra, TinyAndDegenerateInputs) {
  MuDbscanConfig cfg;
  cfg.num_threads = 8;  // far more threads than points
  const DbscanParams prm{1.0, 3};

  Dataset one = Dataset::empty(2);
  one.push_back(std::vector<double>{0.0, 0.0});
  const auto r1 = mu_dbscan(one, prm, nullptr, cfg);
  EXPECT_EQ(r1.label.size(), 1u);
  EXPECT_EQ(r1.label[0], kNoise);

  Dataset few = gen_uniform(10, 2, 0.0, 100.0, 3);  // all noise, far apart
  const auto r2 = mu_dbscan(few, prm, nullptr, cfg);
  const auto seq2 = mu_dbscan(few, prm);
  EXPECT_TRUE(compare_exact(seq2, r2).exact());

  // Zero noise points: every point core. Exercises the noise CSR invariant
  // (noise_off_ must hold exactly one offset with no noise entries).
  Dataset dense = gen_blobs(200, 2, 1, 5.0, 0.3, 0.0, 9);
  const DbscanParams dense_prm{2.0, 3};
  const auto r3 = mu_dbscan(dense, dense_prm, nullptr, cfg);
  const auto seq3 = mu_dbscan(dense, dense_prm);
  EXPECT_TRUE(compare_exact(seq3, r3).exact());
}

}  // namespace
}  // namespace udb
