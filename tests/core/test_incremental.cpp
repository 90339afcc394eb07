// Incremental µDBSCAN differential suite: after ANY interleaved insert/erase
// sequence the engine's canonical result() must equal the batch algorithm
// fit from scratch on the surviving points (canonicalized the same way), at
// every oracle thread count — plus the structural invariants the maintenance
// relies on (counts, core flags, border caches, label partition).

#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <vector>

#include "baselines/brute_dbscan.hpp"
#include "common/rng.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "metrics/exactness.hpp"
#include "obs/metrics.hpp"

namespace udb {
namespace {

// The headline oracle: fit-from-scratch on the survivors, canonicalized, must
// equal result() as plain vectors (labels AND core flags).
void expect_matches_batch(const IncrementalMuDbscan& eng, unsigned threads,
                          const std::string& ctx) {
  const Dataset ds = eng.survivors();
  MuDbscanConfig cfg;
  cfg.num_threads = threads;
  const ClusteringResult want = canonicalize_clustering(
      ds, eng.params(), mu_dbscan(ds, eng.params(), nullptr, cfg));
  const ClusteringResult got = eng.result();
  ASSERT_EQ(got.label.size(), want.label.size()) << ctx;
  EXPECT_EQ(got.label, want.label) << ctx << " (threads=" << threads << ")";
  EXPECT_EQ(got.is_core, want.is_core) << ctx << " (threads=" << threads << ")";
  EXPECT_EQ(eng.num_core(), want.num_core()) << ctx;
}

// Clustered 2-D churn around a few attractors so inserts keep hitting dense
// regions (promotions, merges) and erasures keep hitting cluster interiors
// (demotions, splits).
double attractor_coord(Rng& rng) {
  static constexpr double kCenters[] = {-4.0, 0.0, 4.0};
  return kCenters[rng.uniform_index(3)] + rng.normal() * 0.9;
}

TEST(Incremental, MatchesBatchUnderRandomChurn) {
  const DbscanParams prm{1.2, 4};
  const unsigned kThreads[] = {1, 2, 4};
  for (const std::uint64_t seed : {1ULL, 7ULL, 23ULL}) {
    Rng rng(seed);
    IncrementalMuDbscan eng(2, prm);
    std::vector<PointId> ids;
    std::size_t tsel = 0;
    for (int op = 0; op < 420; ++op) {
      const bool do_erase = !ids.empty() && rng.next_double() < 0.35;
      if (do_erase) {
        const std::size_t k = rng.uniform_index(ids.size());
        ASSERT_TRUE(eng.erase(ids[k]));
        ids[k] = ids.back();
        ids.pop_back();
      } else {
        const double pt[2] = {attractor_coord(rng), attractor_coord(rng)};
        ids.push_back(eng.insert(pt));
      }
      if (op % 60 == 59) {
        expect_matches_batch(eng, kThreads[tsel++ % 3],
                             "seed " + std::to_string(seed) + " op " +
                                 std::to_string(op));
      }
    }
    ASSERT_NO_THROW(eng.check_invariants()) << "seed " << seed;
    expect_matches_batch(eng, kThreads[tsel % 3],
                         "seed " + std::to_string(seed) + " final");
    EXPECT_EQ(eng.stats().inserts + eng.stats().deletes, 420u);
  }
}

TEST(Incremental, MatchesBatchAcrossChunkBoundaryWithErasures) {
  // More ids than one 4096-point storage chunk, then a heavy erase wave:
  // pointers into earlier chunks and the id<->survivor-position mapping must
  // both survive.
  Dataset ds = gen_blobs(5000, 2, 3, 40.0, 2.0, 0.1, 29);
  const DbscanParams prm{1.5, 5};
  IncrementalMuDbscan eng(2, prm);
  std::vector<PointId> ids;
  ids.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i)
    ids.push_back(eng.insert(ds.point(static_cast<PointId>(i))));
  Rng rng(31);
  for (int k = 0; k < 1200; ++k) {
    const std::size_t j = rng.uniform_index(ids.size());
    ASSERT_TRUE(eng.erase(ids[j]));
    ids[j] = ids.back();
    ids.pop_back();
  }
  EXPECT_EQ(eng.size(), 3800u);
  EXPECT_EQ(eng.total(), 5000u);
  expect_matches_batch(eng, 2, "chunk-boundary churn");
}

TEST(Incremental, DeleteSplitsBridgedCluster) {
  // A 1-D chain 0,1,2,3,4 with eps=1.1, MinPts=2: one cluster bridged by the
  // middle point. Erasing it must split the cluster in two — the scoped BFS
  // has to detect the disconnection, not just demote.
  const DbscanParams prm{1.1, 2};
  IncrementalMuDbscan eng(1, prm);
  std::vector<PointId> ids;
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    const double pt[1] = {x};
    ids.push_back(eng.insert(pt));
  }
  EXPECT_EQ(eng.result().num_clusters(), 1u);
  const std::uint64_t repairs_before = eng.stats().graph_edges_repaired;
  ASSERT_TRUE(eng.erase(ids[2]));
  const ClusteringResult got = eng.result();
  EXPECT_EQ(got.num_clusters(), 2u);
  const std::vector<std::int64_t> want_labels = {0, 0, 1, 1};
  EXPECT_EQ(got.label, want_labels);
  // The split relabeled one surviving component.
  EXPECT_GT(eng.stats().graph_edges_repaired, repairs_before);
  expect_matches_batch(eng, 1, "post-split");
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, DuplicatesAndSignedZeroEraseByEquality) {
  const DbscanParams prm{0.5, 3};
  IncrementalMuDbscan eng(1, prm);
  const double zero[1] = {0.0};
  const double neg_zero[1] = {-0.0};
  const double far[1] = {10.0};
  for (int i = 0; i < 3; ++i) eng.insert(zero);      // ids 0,1,2
  for (int i = 0; i < 2; ++i) eng.insert(neg_zero);  // ids 3,4
  eng.insert(far);                                   // id 5
  expect_matches_batch(eng, 1, "dup ingest");
  // erase_equal is bitwise: -0.0 must match only the -0.0 insertions, lowest
  // alive id first.
  EXPECT_EQ(eng.erase_equal(neg_zero), PointId{3});
  EXPECT_EQ(eng.erase_equal(neg_zero), PointId{4});
  EXPECT_EQ(eng.erase_equal(neg_zero), kInvalidPoint);
  EXPECT_EQ(eng.erase_equal(zero), PointId{0});
  const double absent[1] = {5.0};
  EXPECT_EQ(eng.erase_equal(absent), kInvalidPoint);
  EXPECT_EQ(eng.size(), 3u);
  expect_matches_batch(eng, 1, "after bitwise erasures");
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, EraseEqualMatchesLinearScan) {
  // erase_equal finds its candidates through the centre index; a linear scan
  // over every id ever inserted is the reference. Coordinates come from a
  // small lattice with signed zeros, so histories are full of bitwise
  // duplicates and of -0.0/+0.0 twins that sit at the same place but must
  // not match each other; probes include absent and non-finite points.
  const DbscanParams prm{0.8, 3};
  constexpr std::size_t kDim = 2;
  const double kValues[] = {-0.0, 0.0, 0.5, -1.0, 2.0, 0.3};
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::uint64_t seed : {3ULL, 11ULL, 42ULL}) {
    Rng rng(seed);
    IncrementalMuDbscan eng(kDim, prm);
    std::vector<std::array<double, kDim>> coords;  // by id
    std::vector<bool> alive;
    auto lattice_point = [&] {
      std::array<double, kDim> p{};
      for (double& v : p) v = kValues[rng.uniform_index(std::size(kValues))];
      return p;
    };
    auto linear_scan = [&](const std::array<double, kDim>& p) {
      for (std::size_t id = 0; id < coords.size(); ++id)
        if (alive[id] && std::memcmp(coords[id].data(), p.data(),
                                     sizeof p) == 0)
          return static_cast<PointId>(id);
      return kInvalidPoint;
    };
    for (int op = 0; op < 600; ++op) {
      const double roll = rng.next_double();
      if (roll < 0.5) {
        const std::array<double, kDim> p = lattice_point();
        ASSERT_EQ(eng.insert(p), static_cast<PointId>(coords.size()));
        coords.push_back(p);
        alive.push_back(true);
      } else if (roll < 0.6) {
        std::array<double, kDim> p = lattice_point();
        p[rng.uniform_index(kDim)] = rng.next_double() < 0.5 ? inf : nan;
        ASSERT_EQ(eng.erase_equal(p), kInvalidPoint) << "seed " << seed;
      } else {
        const std::array<double, kDim> p = lattice_point();
        const PointId want = linear_scan(p);
        ASSERT_EQ(eng.erase_equal(p), want)
            << "seed " << seed << " op " << op;
        if (want != kInvalidPoint) alive[want] = false;
      }
    }
    for (std::size_t id = 0; id < coords.size(); ++id)
      ASSERT_EQ(eng.alive(static_cast<PointId>(id)), alive[id]) << id;
    ASSERT_NO_THROW(eng.check_invariants());
    expect_matches_batch(eng, 1, "after erase_equal history");
  }
}

TEST(Incremental, DegenerateAllCoincidentPoints) {
  // n identical points: all core while n >= MinPts; erasing below the
  // threshold demotes the whole cluster to noise at once (the failed set is
  // the entire cluster).
  const DbscanParams prm{1.0, 5};
  IncrementalMuDbscan eng(3, prm);
  const double pt[3] = {2.0, -1.0, 0.5};
  std::vector<PointId> ids;
  for (int i = 0; i < 7; ++i) ids.push_back(eng.insert(pt));
  EXPECT_EQ(eng.num_core(), 7u);
  EXPECT_EQ(eng.num_mcs(), 1u);
  ASSERT_TRUE(eng.erase(ids[0]));
  ASSERT_TRUE(eng.erase(ids[3]));
  EXPECT_EQ(eng.num_core(), 5u);
  expect_matches_batch(eng, 2, "coincident at MinPts");
  ASSERT_TRUE(eng.erase(ids[6]));  // 4 < MinPts: everything demotes
  EXPECT_EQ(eng.num_core(), 0u);
  EXPECT_EQ(eng.result().num_noise(), 4u);
  expect_matches_batch(eng, 1, "coincident below MinPts");
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, EraseSemantics) {
  const DbscanParams prm{1.0, 2};
  IncrementalMuDbscan eng(1, prm);
  const double pt[1] = {0.0};
  const PointId id = eng.insert(pt);
  EXPECT_FALSE(eng.erase(999));  // never allocated
  EXPECT_TRUE(eng.erase(id));
  EXPECT_FALSE(eng.erase(id));  // already erased
  EXPECT_EQ(eng.size(), 0u);
  EXPECT_EQ(eng.total(), 1u);
  EXPECT_FALSE(eng.alive(id));
  EXPECT_TRUE(eng.result().label.empty());
  // The structure stays usable after draining to empty.
  const PointId id2 = eng.insert(pt);
  EXPECT_TRUE(eng.alive(id2));
  EXPECT_EQ(eng.size(), 1u);
}

TEST(Incremental, EmptyEngine) {
  IncrementalMuDbscan eng(2, {1.0, 5});
  EXPECT_EQ(eng.size(), 0u);
  EXPECT_EQ(eng.num_mcs(), 0u);
  EXPECT_EQ(eng.num_core(), 0u);
  EXPECT_TRUE(eng.result().label.empty());
  EXPECT_TRUE(eng.survivors().empty_points());
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, RejectsBadParametersAndDimensions) {
  EXPECT_THROW(IncrementalMuDbscan(0, {1.0, 5}), std::invalid_argument);
  EXPECT_THROW(IncrementalMuDbscan(2, {0.0, 5}), std::invalid_argument);
  EXPECT_THROW(IncrementalMuDbscan(2, {1.0, 0}), std::invalid_argument);
  IncrementalMuDbscan eng(2, {1.0, 5});
  EXPECT_THROW(eng.insert(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW(eng.erase_equal(std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(Incremental, RejectsNonFiniteCoordinates) {
  // A NaN or infinite coordinate is within eps of nothing, and admitting it
  // leaves the neighbour counts inconsistent; it is refused up front and the
  // engine stays exact for the points that follow.
  const DbscanParams prm{1.2, 4};
  IncrementalMuDbscan eng(2, prm);
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double pt[2] = {attractor_coord(rng), attractor_coord(rng)};
    eng.insert(pt);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(eng.insert(std::vector<double>{nan, 5.0}),
               std::invalid_argument);
  EXPECT_THROW(eng.insert(std::vector<double>{inf, 5.0}),
               std::invalid_argument);
  EXPECT_THROW(eng.insert(std::vector<double>{5.0, -inf}),
               std::invalid_argument);
  EXPECT_EQ(eng.total(), 200u);
  for (int i = 0; i < 400; ++i) {
    const double pt[2] = {attractor_coord(rng), attractor_coord(rng)};
    eng.insert(pt);
  }
  EXPECT_EQ(eng.size(), 600u);
  ASSERT_NO_THROW(eng.check_invariants());
  expect_matches_batch(eng, 1, "after refused non-finite inserts");
}

TEST(Incremental, BlastRadiusCapFallsBackAndStaysExact) {
  // A cap of 1 candidate MC per update is below what any interesting update
  // needs, so the engine must fall back to the global relabel — and remain
  // exact while doing so.
  IncrementalMuDbscan::Config cfg;
  cfg.max_touched_mcs_per_update = 1;
  const DbscanParams prm{1.2, 4};
  IncrementalMuDbscan eng(2, prm, cfg);
  Rng rng(47);
  std::vector<PointId> ids;
  for (int op = 0; op < 160; ++op) {
    const bool do_erase = !ids.empty() && rng.next_double() < 0.3;
    if (do_erase) {
      const std::size_t k = rng.uniform_index(ids.size());
      ASSERT_TRUE(eng.erase(ids[k]));
      ids[k] = ids.back();
      ids.pop_back();
    } else {
      const double pt[2] = {attractor_coord(rng), attractor_coord(rng)};
      ids.push_back(eng.insert(pt));
    }
  }
  EXPECT_GT(eng.stats().full_fallbacks, 0u);
  expect_matches_batch(eng, 2, "capped churn");
  ASSERT_NO_THROW(eng.check_invariants());
}

TEST(Incremental, MetricsFlowToRegistry) {
  obs::MetricsRegistry reg;
  IncrementalMuDbscan::Config cfg;
  cfg.metrics = &reg;
  const DbscanParams prm{1.0, 3};
  IncrementalMuDbscan eng(2, prm, cfg);
  Rng rng(5);
  std::vector<PointId> ids;
  for (int i = 0; i < 40; ++i) {
    const double pt[2] = {rng.normal(), rng.normal()};
    ids.push_back(eng.insert(pt));
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(eng.erase(ids.back()));
    ids.pop_back();
  }
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kIncMcsTouched),
            eng.stats().mcs_touched);
  EXPECT_EQ(snap.counter(obs::Counter::kIncGraphEdgesRepaired),
            eng.stats().graph_edges_repaired);
  EXPECT_EQ(snap.counter(obs::Counter::kIncFullFallbacks),
            eng.stats().full_fallbacks);
  EXPECT_GT(snap.counter(obs::Counter::kIncMcsTouched), 0u);
  EXPECT_GT(snap.counter(obs::Counter::kIncGraphEdgesRepaired), 0u);
  // One blast-radius observation per update.
  EXPECT_EQ(snap.hist(obs::Hist::kIncBlastRadius).count, 50u);
}

// Past three axes the centre index grids only the first three, so the other
// eleven are left to the distance filter. Erases empty whole MCs (they leave
// the centre index, and their ids are reused), and inserts re-found them.
TEST(Incremental, MatchesBatchUnderChurnInHighDimensions) {
  const Dataset pool = gen_blobs(900, 14, 3, 12.0, 1.0, 0.1, 5);
  const DbscanParams prm{4.0, 4};
  for (const std::uint64_t seed : {3ULL, 11ULL}) {
    Rng rng(seed);
    IncrementalMuDbscan eng(14, prm);
    std::vector<PointId> ids;
    for (int op = 0; op < 700; ++op) {
      if (!ids.empty() && rng.next_double() < 0.4) {
        const std::size_t k = rng.uniform_index(ids.size());
        ASSERT_TRUE(eng.erase(ids[k]));
        ids[k] = ids.back();
        ids.pop_back();
      } else {
        ids.push_back(eng.insert(
            pool.point(static_cast<PointId>(rng.uniform_index(pool.size())))));
      }
      if (op % 100 == 99) {
        ASSERT_NO_THROW(eng.check_invariants()) << "op " << op;
        expect_matches_batch(eng, 1,
                             "seed " + std::to_string(seed) + " op " +
                                 std::to_string(op));
      }
    }
    EXPECT_GT(eng.num_core(), 0u);
    EXPECT_LT(eng.num_core(), eng.size());
  }
}

// ---------------------------------------------------------------------------
// The engine as the streaming API: ingest in waves, read the exact result at
// any point, and result() always reflects the last mutation.
// ---------------------------------------------------------------------------

TEST(Streaming, OfflineResultMatchesBatch) {
  Dataset ds = gen_blobs(1500, 3, 4, 80.0, 3.0, 0.15, 3);
  const DbscanParams prm{2.0, 5};
  IncrementalMuDbscan eng(3, prm);
  for (std::size_t i = 0; i < ds.size(); ++i)
    eng.insert(ds.point(static_cast<PointId>(i)));
  const auto rep = compare_exact(mu_dbscan(ds, prm), eng.result());
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST(Streaming, ExactAfterEveryCheckpoint) {
  // Insert in waves; after each wave the result must equal the brute-force
  // run over the prefix ingested so far.
  Dataset ds = gen_galaxy(1200, GalaxyConfig{}, 7);
  const DbscanParams prm{1.5, 5};
  IncrementalMuDbscan eng(3, prm);
  const std::size_t wave = 400;
  for (std::size_t start = 0; start < ds.size(); start += wave) {
    const std::size_t end = std::min(ds.size(), start + wave);
    for (std::size_t i = start; i < end; ++i)
      eng.insert(ds.point(static_cast<PointId>(i)));
    std::vector<PointId> prefix_ids(end);
    for (std::size_t i = 0; i < end; ++i)
      prefix_ids[i] = static_cast<PointId>(i);
    const auto rep =
        compare_exact(brute_dbscan(ds.select(prefix_ids), prm), eng.result());
    EXPECT_TRUE(rep.exact()) << "after " << end << ": " << rep.detail;
  }
}

TEST(Streaming, CrossesChunkBoundaries) {
  // More points than one storage chunk (4096) — pointers into earlier chunks
  // must stay valid.
  Dataset ds = gen_blobs(9000, 2, 3, 50.0, 2.0, 0.1, 17);
  const DbscanParams prm{1.5, 5};
  IncrementalMuDbscan eng(2, prm);
  for (std::size_t i = 0; i < ds.size(); ++i)
    eng.insert(ds.point(static_cast<PointId>(i)));
  EXPECT_EQ(eng.size(), 9000u);
  const auto rep = compare_exact(mu_dbscan(ds, prm), eng.result());
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST(Streaming, McCountTracksStructure) {
  IncrementalMuDbscan eng(1, {1.0, 3});
  eng.insert(std::vector<double>{0.0});
  EXPECT_EQ(eng.num_mcs(), 1u);
  eng.insert(std::vector<double>{0.5});  // joins MC(0)
  EXPECT_EQ(eng.num_mcs(), 1u);
  eng.insert(std::vector<double>{5.0});  // founds a new MC
  EXPECT_EQ(eng.num_mcs(), 2u);
}

TEST(Streaming, RejectsBadParameters) {
  EXPECT_THROW(IncrementalMuDbscan(0, {1.0, 5}), std::invalid_argument);
  EXPECT_THROW(IncrementalMuDbscan(2, {-1.0, 5}), std::invalid_argument);
  EXPECT_THROW(IncrementalMuDbscan(
                   2, {std::numeric_limits<double>::quiet_NaN(), 5}),
               std::invalid_argument);
  EXPECT_THROW(IncrementalMuDbscan(2, {1.0, 0}), std::invalid_argument);
}

TEST(Streaming, RejectsWrongDimension) {
  IncrementalMuDbscan eng(3, {1.0, 5});
  EXPECT_THROW(eng.insert(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(eng.insert(std::vector<double>{1.0, 2.0, 3.0, 4.0}),
               std::invalid_argument);
  // A refused point leaves no trace; the next well-formed one is admitted.
  EXPECT_EQ(eng.total(), 0u);
  (void)eng.insert(std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(eng.size(), 1u);
}

TEST(Streaming, EmptyStreamYieldsEmptyResult) {
  IncrementalMuDbscan eng(2, {1.0, 5});
  EXPECT_EQ(eng.size(), 0u);
  EXPECT_EQ(eng.result().size(), 0u);
  EXPECT_EQ(eng.result().num_clusters(), 0u);
  EXPECT_EQ(eng.num_core(), 0u);
}

TEST(Streaming, LowerBoundMonotoneInIngestion) {
  // Under insert-only ingestion the core count read mid-stream is a lower
  // bound on every later one: adding points only grows neighbour counts, so
  // no core is ever revoked.
  Dataset ds = gen_blobs(2000, 2, 2, 20.0, 0.6, 0.05, 13);
  IncrementalMuDbscan eng(2, {1.0, 5});
  std::size_t prev = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    eng.insert(ds.point(static_cast<PointId>(i)));
    if (i % 250 == 0) {
      const std::size_t cores = eng.num_core();
      EXPECT_GE(cores, prev) << "after " << i + 1;
      prev = cores;
    }
  }
  EXPECT_GT(prev, 0u);
}

TEST(Streaming, CacheInvalidatedByInsert) {
  IncrementalMuDbscan eng(1, {1.0, 2});
  (void)eng.insert(std::vector<double>{0.0});
  EXPECT_EQ(eng.result().num_noise(), 1u);
  (void)eng.insert(std::vector<double>{0.5});
  // Both points now core (each has 2 neighbors incl. itself).
  EXPECT_EQ(eng.result().num_core(), 2u);
  EXPECT_EQ(eng.result().num_clusters(), 1u);
  EXPECT_EQ(eng.survivors().size(), 2u);
}

TEST(StreamingIncremental, EraseInvalidatesCaches) {
  IncrementalMuDbscan eng(1, {1.0, 2});
  const double a[1] = {0.0};
  const double b[1] = {0.5};
  const PointId ia = eng.insert(a);
  (void)eng.insert(b);
  EXPECT_EQ(eng.result().num_core(), 2u);
  ASSERT_TRUE(eng.erase(ia));
  EXPECT_FALSE(eng.erase(ia));
  EXPECT_EQ(eng.size(), 1u);
  EXPECT_EQ(eng.result().num_noise(), 1u);
  ASSERT_EQ(eng.survivors().size(), 1u);
  EXPECT_EQ(eng.survivors().coord(0, 0), 0.5);
  EXPECT_EQ(eng.erase_equal(b), PointId{1});
  EXPECT_EQ(eng.survivors().size(), 0u);
  EXPECT_TRUE(eng.result().label.empty());
}

}  // namespace
}  // namespace udb
