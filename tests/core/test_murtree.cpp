#include "core/murtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/distance.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "data/generators.hpp"

namespace udb {
namespace {

TEST(MuRTree, RejectsNonPositiveEps) {
  Dataset ds(2, {0.0, 0.0});
  EXPECT_THROW(MuRTree(ds, 0.0), std::invalid_argument);
}

TEST(MuRTree, EmptyDatasetHasNoMcs) {
  Dataset ds = Dataset::empty(3);
  MuRTree tree(ds, 1.0);
  EXPECT_EQ(tree.num_mcs(), 0u);
}

TEST(MuRTree, SinglePointFormsSingletonMc) {
  Dataset ds(2, {1.0, 2.0});
  MuRTree tree(ds, 1.0);
  ASSERT_EQ(tree.num_mcs(), 1u);
  EXPECT_EQ(tree.mc(0).center, 0u);
  EXPECT_EQ(tree.mc(0).members.size(), 1u);
  EXPECT_EQ(tree.mc_of_point(0), 0u);
}

TEST(MuRTree, MembershipIsStrictlyWithinEpsOfCenter) {
  // Second point exactly eps from the first: cannot join its MC, and (with
  // the 2eps rule) is deferred, then founds its own MC.
  Dataset ds(1, {0.0, 1.0});
  MuRTree tree(ds, 1.0);
  EXPECT_EQ(tree.num_mcs(), 2u);
  // Just inside eps: joins.
  Dataset ds2(1, {0.0, 0.999});
  MuRTree tree2(ds2, 1.0);
  EXPECT_EQ(tree2.num_mcs(), 1u);
  EXPECT_EQ(tree2.mc(0).members.size(), 2u);
}

TEST(MuRTree, InvariantsOnRealisticData) {
  Dataset ds = gen_blobs(2000, 3, 5, 100.0, 3.0, 0.15, 3);
  MuRTree tree(ds, 2.0);
  tree.check_invariants();
  EXPECT_GT(tree.num_mcs(), 0u);
  EXPECT_LT(tree.num_mcs(), ds.size());
}

TEST(MuRTree, TwoEpsRuleLimitsMcCount) {
  Dataset ds = gen_blobs(3000, 3, 5, 100.0, 3.0, 0.15, 4);
  MuRTree with_rule(ds, 2.0);
  MuRTree::Config cfg;
  cfg.two_eps_rule = false;
  MuRTree without(ds, 2.0, cfg);
  with_rule.check_invariants();
  without.check_invariants();
  // The deferral rule exists to limit the MC count (Section IV-B1). It is a
  // heuristic: on some data it wins big, on some it breaks even or loses a
  // percent or two (a deferred point re-inserted later can found an MC that
  // immediate creation would have shared). Assert the weak guarantee.
  EXPECT_LT(static_cast<double>(with_rule.num_mcs()),
            static_cast<double>(without.num_mcs()) * 1.15);
  EXPECT_GT(with_rule.deferred_points(), 0u);
  EXPECT_EQ(without.deferred_points(), 0u);
}

// Algorithm 3 by linear scan over the centres founded so far: the reference
// the grid-probed build must reproduce. Whether a point founds an MC or is
// deferred depends only on whether some centre lies strictly within eps or
// 2*eps, never on which MC a point joins, so the centre list (in founding
// order) and the deferred count are fully determined.
struct Alg3Reference {
  std::vector<PointId> centers;
  std::size_t deferred = 0;
};

Alg3Reference linear_scan_alg3(const Dataset& ds, double eps,
                               bool two_eps_rule) {
  Alg3Reference ref;
  const auto any_center_within = [&](PointId p, double r) {
    for (PointId c : ref.centers)
      if (sq_dist(ds.ptr(p), ds.ptr(c), ds.dim()) < r * r) return true;
    return false;
  };
  std::vector<PointId> unassigned;
  for (PointId p = 0; p < ds.size(); ++p) {
    if (any_center_within(p, eps)) continue;
    if (two_eps_rule && any_center_within(p, 2.0 * eps))
      unassigned.push_back(p);
    else
      ref.centers.push_back(p);
  }
  ref.deferred = unassigned.size();
  for (PointId p : unassigned)
    if (!any_center_within(p, eps)) ref.centers.push_back(p);
  return ref;
}

// Integer-lattice points scaled by `step`, in a seeded order, plus a few
// exact duplicates: with step = eps / m many pairs sit exactly eps or 2*eps
// apart, where only the strict comparison decides.
Dataset shuffled_lattice(std::size_t dim, std::size_t n, int side, double step,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> coords;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < dim; ++k)
      coords.push_back(
          step * static_cast<double>(rng.uniform_index(
                     static_cast<std::uint64_t>(side))));
  for (std::size_t i = 0; i < n / 10; ++i) {
    const std::size_t src = rng.uniform_index(n);
    for (std::size_t k = 0; k < dim; ++k)
      coords.push_back(coords[src * dim + k]);
  }
  return Dataset(dim, std::move(coords));
}

TEST(MuRTree, AssignmentMatchesLinearScanAlgorithm3) {
  for (std::size_t dim : {1u, 2u, 3u, 14u}) {
    // A narrower lattice at d = 14 keeps exact-eps pairs common (squared
    // distances there are Hamming-like counts).
    const int side = dim > 3 ? 3 : 7;
    std::vector<std::pair<Dataset, double>> cases;
    // Lattice spacing eps, eps/2 and eps/2 with eps = 2: neighbours at
    // exactly eps and 2*eps.
    cases.emplace_back(shuffled_lattice(dim, 400, side, 1.0, 11 + dim), 1.0);
    cases.emplace_back(shuffled_lattice(dim, 400, side, 0.5, 12 + dim), 1.0);
    cases.emplace_back(shuffled_lattice(dim, 300, side, 1.0, 13 + dim), 2.0);
    cases.emplace_back(gen_blobs(600, dim, 4, 30.0, 2.0, 0.1, 14 + dim),
                       0.8 * std::sqrt(static_cast<double>(dim)));
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const auto& [ds, eps] = cases[c];
      for (bool rule : {true, false}) {
        SCOPED_TRACE("d=" + std::to_string(dim) + " case " +
                     std::to_string(c) + " two_eps_rule=" +
                     std::to_string(rule));
        MuRTree::Config cfg;
        cfg.two_eps_rule = rule;
        const MuRTree tree(ds, eps, cfg);
        const Alg3Reference ref = linear_scan_alg3(ds, eps, rule);
        std::vector<PointId> centers;
        for (McId z = 0; z < tree.num_mcs(); ++z)
          centers.push_back(tree.mc(z).center);
        EXPECT_EQ(centers, ref.centers);
        EXPECT_EQ(tree.deferred_points(), ref.deferred);
        // Every point in one MC, every member strictly within eps.
        EXPECT_NO_THROW(tree.check_invariants());
        const MuRTree again(ds, eps, cfg);
        for (PointId p = 0; p < ds.size(); ++p)
          ASSERT_EQ(tree.mc_of_point(p), again.mc_of_point(p)) << "point " << p;
      }
    }
  }
}

TEST(MuRTree, InnerCircleCountsAreStrictHalfEps) {
  // Centre at 0; members at 0.49 (inside IC), 0.5 (exactly eps/2 — excluded
  // by the strict rule), 0.9 (outside IC).
  Dataset ds(1, {0.0, 0.49, 0.5, 0.9});
  MuRTree tree(ds, 1.0);
  tree.compute_inner_circles();
  ASSERT_EQ(tree.num_mcs(), 1u);
  EXPECT_EQ(tree.mc(0).ic_count, 1u);
}

TEST(MuRTree, ReachableListsIncludeSelf) {
  Dataset ds = gen_blobs(500, 2, 3, 50.0, 2.0, 0.1, 5);
  MuRTree tree(ds, 2.0);
  tree.compute_reachable();
  for (McId z = 0; z < tree.num_mcs(); ++z) {
    const auto& reach = tree.mc(z).reach;
    EXPECT_NE(std::find(reach.begin(), reach.end(), z), reach.end());
  }
}

TEST(MuRTree, ReachableListsMatchBruteForce3Eps) {
  Dataset ds = gen_blobs(800, 3, 4, 60.0, 3.0, 0.2, 6);
  const double eps = 2.0;
  MuRTree tree(ds, eps);
  tree.compute_reachable();
  const double r2 = 9.0 * eps * eps;
  for (McId z = 0; z < tree.num_mcs(); ++z) {
    std::vector<McId> want;
    const double* cz = ds.ptr(tree.mc(z).center);
    for (McId o = 0; o < tree.num_mcs(); ++o) {
      if (sq_dist(cz, ds.ptr(tree.mc(o).center), ds.dim()) <= r2)
        want.push_back(o);
    }
    std::vector<McId> got = tree.mc(z).reach;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "MC " << z;
  }
}

TEST(MuRTree, NeighborhoodQueryMatchesLinearScan) {
  Dataset ds = gen_galaxy(1500, GalaxyConfig{}, 7);
  const double eps = 1.5;
  MuRTree tree(ds, eps);
  tree.compute_reachable();
  const double eps2 = eps * eps;
  for (PointId p = 0; p < ds.size(); p += 37) {
    std::vector<std::pair<PointId, double>> got;
    tree.query_neighborhood(p, eps, got);
    std::vector<PointId> got_ids;
    for (const auto& [id, d2] : got) {
      got_ids.push_back(id);
      EXPECT_LT(d2, eps2);
      EXPECT_NEAR(d2, sq_dist(ds.ptr(p), ds.ptr(id), ds.dim()), 1e-12);
    }
    std::vector<PointId> want;
    for (PointId q = 0; q < ds.size(); ++q)
      if (sq_dist(ds.ptr(p), ds.ptr(q), ds.dim()) < eps2) want.push_back(q);
    std::sort(got_ids.begin(), got_ids.end());
    EXPECT_EQ(got_ids, want) << "point " << p;
  }
}

TEST(MuRTree, DuplicateHeavyDataset) {
  std::vector<double> coords;
  for (int i = 0; i < 200; ++i) {
    coords.push_back(static_cast<double>(i % 4));
    coords.push_back(0.0);
  }
  Dataset ds(2, std::move(coords));
  MuRTree tree(ds, 0.5);
  tree.check_invariants();
  EXPECT_EQ(tree.num_mcs(), 4u);
}

TEST(MuRTree, MbrFiltrationSkipsUnreachableAuxTrees) {
  // The Section IV-B2 filtration: of an MC's reachable list, only the MCs
  // whose aux MBR intersects the query ball are searched. Querying every
  // point must touch strictly fewer aux trees than the sum of reach-list
  // lengths on spread-out data.
  Dataset ds = gen_blobs(1500, 2, 6, 80.0, 2.0, 0.1, 21);
  MuRTree tree(ds, 1.5);
  tree.compute_reachable();
  std::uint64_t reach_total = 0;
  for (McId z = 0; z < tree.num_mcs(); ++z)
    reach_total += tree.mc(z).reach.size();
  std::vector<std::pair<PointId, double>> out;
  for (PointId p = 0; p < ds.size(); p += 3) {
    out.clear();
    tree.query_neighborhood(p, 1.5, out);
  }
  // Average searched per query must be below the average reach-list length.
  const double queries = static_cast<double>(ds.size()) / 3.0;
  const double avg_searched =
      static_cast<double>(tree.aux_trees_searched()) / queries;
  const double avg_reach =
      static_cast<double>(reach_total) / static_cast<double>(tree.num_mcs());
  EXPECT_LT(avg_searched, avg_reach);
}

TEST(MuRTree, AuxTreesSearchedCounterAdvances) {
  Dataset ds = gen_blobs(600, 2, 3, 40.0, 2.0, 0.1, 8);
  MuRTree tree(ds, 1.5);
  tree.compute_reachable();
  std::vector<std::pair<PointId, double>> out;
  tree.query_neighborhood(0, 1.5, out);
  EXPECT_GT(tree.aux_trees_searched(), 0u);
}

// ---- the flat AuxR-tree member store ------------------------------------

struct TargetGuard {
  SimdTarget prev = active_simd_target();
  ~TargetGuard() { force_simd_target(prev); }
};

using Hits = std::vector<std::pair<PointId, double>>;

// Strict radius scan over every point: the reference for both query forms.
Hits linear_ball(const Dataset& ds, const double* q, double radius) {
  Hits out;
  for (PointId p = 0; p < ds.size(); ++p) {
    const double d2 = sq_dist(q, ds.ptr(p), ds.dim());
    if (d2 < radius * radius) out.emplace_back(p, d2);
  }
  return out;
}

// Sorted by id; the distances must be the scalar sq_dist bit for bit (the
// kernels' exactness contract), and no id may come back twice.
void expect_same_hits(Hits got, const Hits& want) {
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].first, want[i].first) << "hit " << i;
    ASSERT_EQ(got[i].second, want[i].second) << "id " << got[i].first;
  }
}

// Integer lattice of step eps / 2 on the first three axes (so many pairs sit
// exactly eps apart), rarely off zero on the others, plus exact duplicates
// and -0.0 twins of +0.0 coordinates: many MCs hold dozens of members, so
// some span several kernel chunks, at every dimension.
Dataset adversarial_lattice(std::size_t dim, std::size_t n, double eps,
                            std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t side = dim > 3 ? 4 : 6;
  std::vector<double> coords;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < dim; ++k) {
      const double steps =
          k < 3 ? static_cast<double>(rng.uniform_index(side))
                : (rng.uniform_index(64) == 0 ? 1.0 : 0.0);
      coords.push_back(0.5 * eps * steps);
    }
  for (std::size_t i = 0; i < n / 5; ++i) {
    const std::size_t src = rng.uniform_index(n);
    for (std::size_t k = 0; k < dim; ++k) {
      const double v = coords[src * dim + k];
      coords.push_back(v == 0.0 && i % 2 == 0 ? -0.0 : v);
    }
  }
  return Dataset(dim, std::move(coords));
}

TEST(MuRTreeFlatStore, QueriesMatchLinearScanAtEveryDimAndTarget) {
  TargetGuard guard;
  const double eps = 1.0;
  for (std::size_t dim : {1u, 2u, 3u, 14u, 74u}) {
    const Dataset ds = adversarial_lattice(dim, 400, eps, 100 + dim);
    {
      MuRTree tree(ds, eps);
      tree.compute_reachable();
      ASSERT_NO_THROW(tree.check_invariants());
      std::size_t max_members = 0;
      for (McId z = 0; z < tree.num_mcs(); ++z)
        max_members = std::max(max_members, tree.mc(z).members.size());
      ASSERT_GT(max_members, MuRTree::kScanChunk)
          << "no MC larger than one kernel chunk at d=" << dim;

      for (SimdTarget t : runnable_simd_targets()) {
        force_simd_target(t);
        SCOPED_TRACE("d=" + std::to_string(dim) + " target=" +
                     simd_target_name(t));
        // By id: radius eps and below (Lemma 3 covers radius <= eps), with
        // and without the MBR filter.
        for (PointId p = 0; p < ds.size(); p += 7) {
          for (double radius : {eps, 0.5 * eps, 0.3 * eps}) {
            const Hits want = linear_ball(ds, ds.ptr(p), radius);
            for (bool filter : {true, false}) {
              Hits got;
              tree.query_neighborhood(p, radius, got, filter);
              expect_same_hits(got, want);
            }
          }
        }
        // Arbitrary positions: dataset points, lattice midpoints and
        // off-lattice points, at radii other than eps.
        Rng rng(7 + dim);
        for (int i = 0; i < 40; ++i) {
          std::vector<double> q(dim);
          for (std::size_t k = 0; k < dim; ++k)
            q[k] = (i % 3 == 0)   ? ds.ptr(static_cast<PointId>(i))[k]
                   : (i % 3 == 1) ? 0.25 * eps * static_cast<double>(
                                                rng.uniform_index(12))
                                  : rng.uniform(-0.5, 3.0);
          for (double radius : {0.5 * eps, 0.75 * eps, 1.5 * eps, 2.5 * eps}) {
            Hits got;
            tree.query_neighborhood(std::span<const double>(q), radius, got);
            expect_same_hits(got, linear_ball(ds, q.data(), radius));
          }
        }
      }
    }
  }
}

// ---- the centre cell index: reach lists and position queries -----------

// Lattice of step 1.5 * eps on the first three axes (so many centres sit
// exactly 3 * eps apart), rarely off zero on the others, plus copies of
// some points with one coordinate at +-1e300 (saturated cell indices).
Dataset reach_lattice(std::size_t dim, std::size_t n, double eps,
                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> coords;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < dim; ++k) {
      const double steps =
          k < 3 ? static_cast<double>(rng.uniform_index(6))
                : (rng.uniform_index(32) == 0 ? 1.0 : 0.0);
      coords.push_back(1.5 * eps * steps);
    }
  for (std::size_t i = 0; i < n / 10; ++i) {
    const std::size_t src = rng.uniform_index(n);
    for (std::size_t k = 0; k < dim; ++k) {
      double v = coords[src * dim + k];
      if (k == i % std::min<std::size_t>(dim, 4))
        v = i % 2 == 0 ? 1e300 : -1e300;
      coords.push_back(v);
    }
  }
  return Dataset(dim, std::move(coords));
}

TEST(MuRTree, ReachListsMatchLinearScanAtEveryDimAndTarget) {
  TargetGuard guard;
  for (std::size_t dim : {1u, 2u, 3u, 14u, 74u}) {
    for (double eps : {1.0, 0.1}) {
      const Dataset ds = reach_lattice(dim, 400, eps, 40 + dim);
      for (SimdTarget t : runnable_simd_targets()) {
        force_simd_target(t);
        SCOPED_TRACE("d=" + std::to_string(dim) + " eps=" +
                     std::to_string(eps) + " target=" + simd_target_name(t));
        MuRTree tree(ds, eps);
        tree.compute_reachable();
        ASSERT_NO_THROW(tree.check_invariants());
        const double reach2 = (3.0 * eps) * (3.0 * eps);
        std::size_t exact_3eps = 0;
        for (McId z = 0; z < tree.num_mcs(); ++z) {
          const double* cz = ds.ptr(tree.mc(z).center);
          std::vector<McId> want;
          for (McId o = 0; o < tree.num_mcs(); ++o) {
            const double d2 = sq_dist(cz, ds.ptr(tree.mc(o).center), dim);
            if (d2 <= reach2) want.push_back(o);
            exact_3eps += d2 == reach2;
          }
          ASSERT_EQ(tree.mc(z).reach, want) << "MC " << z;
        }
        if (eps == 1.0) {
          EXPECT_GT(exact_3eps, 0u);
        }
      }
    }
  }
}

TEST(MuRTree, PositionQueryMatchesLinearScanPastTheAllCellsFallback) {
  const double eps = 1.0;
  for (std::size_t dim : {1u, 2u, 3u, 14u}) {
    const Dataset ds = reach_lattice(dim, 300, eps, 60 + dim);
    MuRTree tree(ds, eps);
    Rng rng(dim);
    for (int i = 0; i < 20; ++i) {
      std::vector<double> q(dim);
      for (std::size_t k = 0; k < dim; ++k)
        q[k] = i % 2 == 0 ? ds.ptr(static_cast<PointId>(i))[k]
                          : rng.uniform(-1.0, 9.0);
      // From half an eps up to radii that span every cell, where the centre
      // index scans all rows instead of looking each one up.
      for (double radius : {0.5, 1.0, 1.5, 3.0, 7.0, 30.0, 1e6}) {
        SCOPED_TRACE("d=" + std::to_string(dim) + " radius=" +
                     std::to_string(radius));
        Hits got;
        tree.query_neighborhood(std::span<const double>(q), radius * eps, got);
        expect_same_hits(got, linear_ball(ds, q.data(), radius * eps));
      }
    }
  }
}

TEST(MuRTreeFlatStore, UnfilteredQuerySearchesEveryReachableMc) {
  Dataset ds = gen_blobs(1200, 2, 5, 60.0, 2.0, 0.1, 31);
  MuRTree tree(ds, 1.5);
  tree.compute_reachable();
  std::uint64_t reach_total = 0;
  for (PointId p = 0; p < ds.size(); p += 5)
    reach_total += tree.mc(tree.mc_of_point(p)).reach.size();
  const std::uint64_t before = tree.aux_trees_searched();
  Hits out;
  for (PointId p = 0; p < ds.size(); p += 5) {
    out.clear();
    tree.query_neighborhood(p, 1.5, out, /*mbr_filter=*/false);
  }
  EXPECT_EQ(tree.aux_trees_searched() - before, reach_total);
}

TEST(MuRTreeFlatStore, McOverlapTestNeverRejectsAMemberInRange) {
  const Dataset ds = adversarial_lattice(3, 400, 1.0, 9);
  MuRTree tree(ds, 1.0);
  for (PointId p = 0; p < ds.size(); p += 3) {
    for (PointId q = 0; q < ds.size(); ++q) {
      if (sq_dist(ds.ptr(p), ds.ptr(q), 3) >= 1.0) continue;
      ASSERT_TRUE(tree.mc_overlaps_ball(tree.mc_of_point(q), ds.ptr(p), 1.0))
          << p << " -> " << q;
    }
  }
}

// The kernel counters are counted per scan chunk from the active target's
// lanes: one MC of 2 * kScanChunk + 5 points, all inside the query ball, is
// one root MBR test and three kernel blocks.
TEST(MuRTreeFlatStore, KernelBlockAndTailCountsArePerChunk) {
  TargetGuard guard;
  const std::size_t chunk = MuRTree::kScanChunk, size = 2 * chunk + 5;
  std::vector<double> coords;
  for (std::size_t i = 0; i < size; ++i)
    coords.push_back(0.9 * static_cast<double>(i) / static_cast<double>(size));
  Dataset ds(1, std::move(coords));
  MuRTree tree(ds, 1.0);
  tree.compute_reachable();
  ASSERT_EQ(tree.num_mcs(), 1u);
  for (SimdTarget t : runnable_simd_targets()) {
    force_simd_target(t);
    const std::uint64_t lanes = simd_lanes(t);
    SCOPED_TRACE(simd_target_name(t));
    const MuRTree::IndexCounters before = tree.index_counters();
    const std::uint64_t searched = tree.aux_trees_searched();
    Hits out;
    tree.query_neighborhood(0, 1.0, out);
    EXPECT_EQ(out.size(), size);
    const MuRTree::IndexCounters after = tree.index_counters();
    EXPECT_EQ(tree.aux_trees_searched() - searched, 1u);
    EXPECT_EQ(after.node_visits - before.node_visits, 1u);
    EXPECT_EQ(after.distance_evals - before.distance_evals, size);
    EXPECT_EQ(after.kernel_blocks - before.kernel_blocks, 3u);
    EXPECT_EQ(after.kernel_tail_points - before.kernel_tail_points,
              2 * (chunk % lanes) + 5 % lanes);
  }
}

}  // namespace
}  // namespace udb
