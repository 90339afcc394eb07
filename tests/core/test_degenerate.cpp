// Degenerate-dataset robustness (docs/ROBUSTNESS.md): every engine, at every
// thread count we ship, must survive the pathological inputs a production
// caller will eventually feed it — empty input, a single point, all points
// identical, MinPts larger than n, an eps that spans the whole domain, and
// zero-variance dimensions — and must agree exactly with brute-force DBSCAN
// on each of them.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/brute_dbscan.hpp"
#include "baselines/g_dbscan.hpp"
#include "baselines/grid_dbscan.hpp"
#include "baselines/r_dbscan.hpp"
#include "core/incremental.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "dist/mudbscan_d.hpp"
#include "metrics/exactness.hpp"

namespace udb {
namespace {

struct Engine {
  std::string name;
  std::function<ClusteringResult(const Dataset&, const DbscanParams&)> run;
};

std::vector<Engine> all_engines() {
  std::vector<Engine> engines;
  for (unsigned nt : {1u, 2u, 4u}) {
    engines.push_back(
        {"mudbscan/t" + std::to_string(nt),
         [nt](const Dataset& ds, const DbscanParams& p) {
           MuDbscanConfig cfg;
           cfg.num_threads = nt;
           return mu_dbscan(ds, p, nullptr, cfg);
         }});
  }
  engines.push_back({"rdbscan", [](const Dataset& ds, const DbscanParams& p) {
                       return r_dbscan(ds, p);
                     }});
  engines.push_back({"gdbscan", [](const Dataset& ds, const DbscanParams& p) {
                       return g_dbscan(ds, p);
                     }});
  engines.push_back({"griddbscan",
                     [](const Dataset& ds, const DbscanParams& p) {
                       return grid_dbscan(ds, p);
                     }});
  for (int ranks : {1, 3}) {
    engines.push_back({"mudbscan-d/r" + std::to_string(ranks),
                       [ranks](const Dataset& ds, const DbscanParams& p) {
                         return mudbscan_d(ds, p, ranks);
                       }});
  }
  return engines;
}

void expect_all_engines_match_brute(const Dataset& ds,
                                    const DbscanParams& params,
                                    const std::string& which) {
  const ClusteringResult ref = brute_dbscan(ds, params);
  ASSERT_EQ(ref.size(), ds.size());
  for (const Engine& e : all_engines()) {
    SCOPED_TRACE(which + " via " + e.name);
    ClusteringResult got;
    ASSERT_NO_THROW(got = e.run(ds, params));
    ASSERT_EQ(got.size(), ds.size());
    const ExactnessReport rep = compare_exact(ref, got);
    EXPECT_TRUE(rep.exact()) << rep.detail;
  }
}

TEST(Degenerate, EmptyInput) {
  expect_all_engines_match_brute(Dataset::empty(3), DbscanParams{1.0, 5},
                                 "empty");
}

TEST(Degenerate, SinglePoint) {
  Dataset ds(2, {4.0, 2.0});
  expect_all_engines_match_brute(ds, DbscanParams{1.0, 2}, "single point");
  // min_pts = 1: a lone point is its own core cluster.
  expect_all_engines_match_brute(ds, DbscanParams{1.0, 1},
                                 "single point, minpts 1");
}

TEST(Degenerate, AllDuplicates) {
  std::vector<double> coords;
  for (int i = 0; i < 64; ++i) {
    coords.push_back(3.5);
    coords.push_back(-1.0);
  }
  Dataset ds(2, std::move(coords));
  expect_all_engines_match_brute(ds, DbscanParams{0.5, 4}, "all duplicates");
}

TEST(Degenerate, MinPtsLargerThanN) {
  std::vector<double> coords;
  for (int i = 0; i < 10; ++i) {
    coords.push_back(static_cast<double>(i));
    coords.push_back(0.0);
  }
  Dataset ds(2, std::move(coords));
  expect_all_engines_match_brute(ds, DbscanParams{100.0, 50}, "minpts > n");
}

TEST(Degenerate, EpsSpansTheDomain) {
  // Every point within eps of every other: one all-core cluster, and the
  // reach lists degenerate to all-pairs (the charge-accounting worst case).
  std::vector<double> coords;
  for (int i = 0; i < 40; ++i) {
    coords.push_back(static_cast<double>(i % 7));
    coords.push_back(static_cast<double>(i % 5));
    coords.push_back(static_cast<double>(i % 3));
  }
  Dataset ds(3, std::move(coords));
  expect_all_engines_match_brute(ds, DbscanParams{1e6, 4}, "huge eps");
}

TEST(Degenerate, ZeroVarianceDimensions) {
  // Variation only in dimension 0; dims 1 and 2 are constant, so every MBR
  // is flat and every split on those axes is degenerate.
  std::vector<double> coords;
  for (int i = 0; i < 120; ++i) {
    coords.push_back(static_cast<double>(i / 3));
    coords.push_back(7.0);
    coords.push_back(-2.5);
  }
  Dataset ds(3, std::move(coords));
  expect_all_engines_match_brute(ds, DbscanParams{1.5, 4},
                                 "zero-variance dims");
}

TEST(Degenerate, ExtremeMagnitudeCoordinates) {
  // Grid cell indices floor(x / side) leave the int64 range here, so they
  // saturate: far-apart points can share a clamped cell, and only the
  // distance filter may tell them apart. A dense cluster near the origin, a
  // small cluster at x = 1e300 (its y offsets survive; 1e300 + y does not
  // change x), isolated points at +-1e300, and four points that clamp into
  // one cell while lying ~1e300 apart.
  std::vector<double> coords;
  for (int i = 0; i < 30; ++i) {
    coords.push_back(0.1 * static_cast<double>(i % 6));
    coords.push_back(0.1 * static_cast<double>(i / 6));
  }
  for (double y : {0.0, 0.1, 0.2, 0.3, 0.4}) {
    coords.push_back(1e300);
    coords.push_back(5.0 + y);
  }
  for (double x : {1e300, 2e300, 4e300, 8e300}) {
    coords.push_back(x);
    coords.push_back(0.0);
  }
  for (const auto& [x, y] : {std::pair{-1e300, 1.0}, std::pair{1e300, 1e300},
                             std::pair{-1e300, -1e300}, std::pair{0.0, 1e300}}) {
    coords.push_back(x);
    coords.push_back(y);
  }
  Dataset ds(2, std::move(coords));
  expect_all_engines_match_brute(ds, DbscanParams{0.5, 4}, "+-1e300 coords");

  // A tiny eps on unit-scale data: x / eps overflows every cell index, and
  // eps^2 underflows to zero, so no two points (not even duplicates) are
  // neighbours.
  Dataset unit = gen_blobs(120, 3, 3, 1.0, 0.05, 0.1, 17);
  std::vector<double> dup(unit.ptr(0), unit.ptr(0) + unit.size() * 3);
  dup.insert(dup.end(), unit.ptr(0), unit.ptr(0) + 30);
  expect_all_engines_match_brute(Dataset(3, std::move(dup)),
                                 DbscanParams{1e-300, 2}, "eps 1e-300");
}

// The incremental engine gets the same degenerate treatment: feed the points
// one at a time, then erase them all again, checking the maintained state
// against the canonicalized batch answer at every boundary that matters.
void expect_incremental_survives(const Dataset& ds, const DbscanParams& params,
                                 const std::string& which) {
  SCOPED_TRACE(which + " via incremental");
  IncrementalMuDbscan eng(ds.dim(), params);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ASSERT_NO_THROW(eng.insert(ds.point(i)));
  }
  ASSERT_NO_THROW(eng.check_invariants());
  {
    const Dataset surv = eng.survivors();
    const ClusteringResult want =
        canonicalize_clustering(surv, params, mu_dbscan(surv, params));
    EXPECT_EQ(eng.result().label, want.label) << which << ": full set";
  }
  // Tear the set back down (front-to-back, so duplicates keep colliding)
  // and re-check exactness at a few intermediate sizes plus empty.
  for (std::size_t i = 0; i < ds.size(); ++i) {
    ASSERT_TRUE(eng.erase(static_cast<PointId>(i)));
    const std::size_t left = ds.size() - i - 1;
    if (left % 17 == 0 || left <= 1) {
      ASSERT_NO_THROW(eng.check_invariants());
      const Dataset surv = eng.survivors();
      const ClusteringResult want =
          canonicalize_clustering(surv, params, mu_dbscan(surv, params));
      EXPECT_EQ(eng.result().label, want.label)
          << which << ": " << left << " survivors";
    }
  }
  EXPECT_EQ(eng.size(), 0u);
  EXPECT_EQ(eng.num_mcs(), 0u);
  EXPECT_EQ(eng.num_core(), 0u);
}

TEST(DegenerateIncremental, EmptyInput) {
  IncrementalMuDbscan eng(3, DbscanParams{1.0, 5});
  EXPECT_EQ(eng.size(), 0u);
  EXPECT_TRUE(eng.result().label.empty());
  EXPECT_NO_THROW(eng.check_invariants());
  EXPECT_FALSE(eng.erase(0));  // never-allocated id
  const double probe[3] = {0.0, 0.0, 0.0};
  EXPECT_EQ(eng.erase_equal({probe, 3}), kInvalidPoint);
}

TEST(DegenerateIncremental, SinglePointLifecycle) {
  // minpts 1: a lone point is core; erase drains the engine back to empty.
  IncrementalMuDbscan eng(2, DbscanParams{1.0, 1});
  const double pt[2] = {4.0, 2.0};
  const PointId id = eng.insert({pt, 2});
  EXPECT_EQ(eng.result().label, (std::vector<std::int64_t>{0}));
  EXPECT_EQ(eng.num_core(), 1u);
  ASSERT_TRUE(eng.erase(id));
  EXPECT_FALSE(eng.erase(id));  // double erase
  EXPECT_TRUE(eng.result().label.empty());
  EXPECT_NO_THROW(eng.check_invariants());
}

TEST(DegenerateIncremental, AllDuplicates) {
  std::vector<double> coords;
  for (int i = 0; i < 64; ++i) {
    coords.push_back(3.5);
    coords.push_back(-1.0);
  }
  expect_incremental_survives(Dataset(2, std::move(coords)),
                              DbscanParams{0.5, 4}, "all duplicates");
}

TEST(DegenerateIncremental, MinPtsLargerThanN) {
  std::vector<double> coords;
  for (int i = 0; i < 10; ++i) {
    coords.push_back(static_cast<double>(i));
    coords.push_back(0.0);
  }
  expect_incremental_survives(Dataset(2, std::move(coords)),
                              DbscanParams{100.0, 50}, "minpts > n");
}

TEST(DegenerateIncremental, EpsSpansTheDomain) {
  std::vector<double> coords;
  for (int i = 0; i < 40; ++i) {
    coords.push_back(static_cast<double>(i % 7));
    coords.push_back(static_cast<double>(i % 5));
    coords.push_back(static_cast<double>(i % 3));
  }
  expect_incremental_survives(Dataset(3, std::move(coords)),
                              DbscanParams{1e6, 4}, "huge eps");
}

TEST(DegenerateIncremental, ZeroVarianceDimensions) {
  std::vector<double> coords;
  for (int i = 0; i < 120; ++i) {
    coords.push_back(static_cast<double>(i / 3));
    coords.push_back(7.0);
    coords.push_back(-2.5);
  }
  expect_incremental_survives(Dataset(3, std::move(coords)),
                              DbscanParams{1.5, 4}, "zero-variance dims");
}

TEST(DegenerateIncremental, BlastRadiusCapOfOneStaysExact) {
  // The tightest possible cap forces the global-relabel fallback on nearly
  // every update; exactness must not depend on the cap at all.
  IncrementalMuDbscan::Config cfg;
  cfg.max_touched_mcs_per_update = 1;
  const DbscanParams params{1.5, 4};
  IncrementalMuDbscan eng(2, params, cfg);
  std::vector<double> coords;
  for (int i = 0; i < 60; ++i) {
    coords.push_back(static_cast<double>(i % 12));
    coords.push_back(static_cast<double>(i % 4));
  }
  const Dataset ds(2, std::move(coords));
  for (std::size_t i = 0; i < ds.size(); ++i) eng.insert(ds.point(i));
  for (PointId id = 0; id < 30; ++id) ASSERT_TRUE(eng.erase(id));
  ASSERT_NO_THROW(eng.check_invariants());
  const Dataset surv = eng.survivors();
  const ClusteringResult want =
      canonicalize_clustering(surv, params, mu_dbscan(surv, params));
  EXPECT_EQ(eng.result().label, want.label);
  EXPECT_GT(eng.stats().full_fallbacks, 0u);
}

}  // namespace
}  // namespace udb
