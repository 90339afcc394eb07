// ClusterModel exactness (serve/model.*): every serving answer is checked
// against brute force over the raw dataset — self-classification must
// reproduce the batch clustering verbatim, novel points must follow the
// documented border-candidate rule, and neighbors() must return the exact
// strict-radius set (this also exercises the µR-tree coordinate-query
// overloads against a reference scan). Plus the refresh seam, the streaming
// producer, and the classify ledger invariant.

#include "serve/model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include "core/incremental.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "metrics/exactness.hpp"
#include "obs/metrics.hpp"
#include "serve/classify_csv.hpp"
#include "serve/snapshot.hpp"

namespace udb {
namespace {

constexpr double kEps = 1.2;
constexpr std::uint32_t kMinPts = 5;

serve::ModelSnapshot fitted_snapshot(std::size_t n, std::uint64_t seed) {
  serve::ModelSnapshot snap;
  snap.data = gen_blobs(n, 2, 6, 30.0, 1.0, 0.1, seed);
  snap.params = {kEps, kMinPts};
  snap.result = mu_dbscan(snap.data, snap.params);
  return snap;
}

double dist2(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double d = a[k] - b[k];
    s += d * d;
  }
  return s;
}

// Reference implementation of the documented classify semantics, by linear
// scan: distance-0 twin -> stored answer; else nearest core strictly within
// eps -> Border in its cluster; else Noise.
serve::Classify brute_classify(const Dataset& ds, const ClusteringResult& res,
                               const DbscanParams& p,
                               std::span<const double> q) {
  const double eps2 = p.eps * p.eps;
  std::uint32_t count = 0;
  PointId zero = kInvalidPoint, best_core = kInvalidPoint;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto id = static_cast<PointId>(i);
    const double d2 = dist2(ds.point(id), q);
    if (d2 >= eps2) continue;
    ++count;
    if (d2 == 0.0 && id < zero) zero = id;
    if (res.is_core[id] != 0 &&
        (d2 < best_d2 || (d2 == best_d2 && id < best_core))) {
      best_d2 = d2;
      best_core = id;
    }
  }
  if (zero != kInvalidPoint)
    return {res.label[zero], res.kind(zero), true, res.is_core[zero] != 0,
            count};
  serve::Classify out;
  out.neighbors = count;
  out.would_be_core = count + 1 >= p.min_pts;
  if (best_core != kInvalidPoint) {
    out.label = res.label[best_core];
    out.kind = PointKind::Border;
  }
  return out;
}

class ClusterModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    snap_ = fitted_snapshot(800, 7);
    auto m = serve::ClusterModel::build(snap_);
    ASSERT_TRUE(m.ok()) << m.status().to_string();
    model_ = *m;
  }

  serve::ModelSnapshot snap_;  // kept as the brute-force reference
  std::shared_ptr<const serve::ClusterModel> model_;
};

TEST_F(ClusterModelTest, SelfClassificationReproducesBatchClustering) {
  obs::MetricsRegistry ms;
  for (std::size_t i = 0; i < snap_.data.size(); ++i) {
    const auto id = static_cast<PointId>(i);
    auto c = model_->classify(snap_.data.point(id), &ms);
    ASSERT_TRUE(c.ok()) << c.status().to_string();
    EXPECT_TRUE(c->exact_match) << "point " << i;
    EXPECT_EQ(c->label, snap_.result.label[id]) << "point " << i;
    EXPECT_EQ(c->kind, snap_.result.kind(id)) << "point " << i;
    EXPECT_EQ(c->would_be_core, snap_.result.is_core[id] != 0) << "point " << i;
  }
  // All dataset points ride the exact-match fast path: zero searches.
  const auto snap = ms.snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kServeClassifyPoints),
            snap_.data.size());
  EXPECT_EQ(snap.counter(obs::Counter::kServeClassifyAvoidedExact),
            snap_.data.size());
  EXPECT_EQ(snap.counter(obs::Counter::kServeClassifyPerformed), 0u);
}

TEST_F(ClusterModelTest, NovelPointsMatchBruteForce) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> box(-2.0, 32.0);
  std::normal_distribution<double> jitter(0.0, kEps);
  std::vector<std::vector<double>> queries;
  for (int i = 0; i < 200; ++i) queries.push_back({box(rng), box(rng)});
  for (int i = 0; i < 200; ++i) {
    const auto id = static_cast<PointId>(rng() % snap_.data.size());
    const auto p = snap_.data.point(id);
    queries.push_back({p[0] + jitter(rng), p[1] + jitter(rng)});
  }

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto& q = queries[qi];
    const auto want = brute_classify(snap_.data, snap_.result, snap_.params, q);
    auto got = model_->classify(q);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got->label, want.label) << "query " << qi;
    EXPECT_EQ(got->kind, want.kind) << "query " << qi;
    EXPECT_EQ(got->exact_match, want.exact_match) << "query " << qi;
    EXPECT_EQ(got->would_be_core, want.would_be_core) << "query " << qi;
    EXPECT_EQ(got->neighbors, want.neighbors) << "query " << qi;
  }
}

TEST_F(ClusterModelTest, NegativeZeroCoordinateIsStillAnExactMatch) {
  // -0.0 and +0.0 differ bitwise, so the hash fast path misses — the
  // distance-0 rule in the search path must still answer "exact".
  serve::ModelSnapshot snap;
  std::vector<double> coords;
  for (int i = 0; i < 8; ++i) {
    coords.push_back(0.0);
    coords.push_back(0.1 * i);
  }
  snap.data = Dataset(2, std::move(coords));
  snap.params = {1.0, 3};
  snap.result = mu_dbscan(snap.data, snap.params);
  auto m = serve::ClusterModel::build(std::move(snap));
  ASSERT_TRUE(m.ok());

  const double q[2] = {-0.0, 0.1};
  auto c = (*m)->classify(q);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->exact_match);
  EXPECT_EQ(c->label, (*m)->result().label[1]);
}

TEST_F(ClusterModelTest, BatchMatchesSinglePointAndLedgerHolds) {
  // Half verbatim dataset points (avoided), half jittered (performed).
  std::mt19937_64 rng(3);
  std::normal_distribution<double> jitter(0.0, 0.5 * kEps);
  std::vector<double> coords;
  const std::size_t count = 400;
  for (std::size_t i = 0; i < count; ++i) {
    const auto p = snap_.data.point(static_cast<PointId>(i));
    if (i % 2 == 0) {
      coords.insert(coords.end(), p.begin(), p.end());
    } else {
      coords.push_back(p[0] + jitter(rng));
      coords.push_back(p[1] + jitter(rng));
    }
  }

  obs::MetricsRegistry ms;
  ThreadPool pool(4);
  auto batch = model_->classify_batch(coords, count, &ms, &pool);
  ASSERT_TRUE(batch.ok()) << batch.status().to_string();
  ASSERT_EQ(batch->size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    auto single =
        model_->classify({coords.data() + i * 2, 2});
    ASSERT_TRUE(single.ok());
    EXPECT_EQ((*batch)[i].label, single->label) << i;
    EXPECT_EQ((*batch)[i].kind, single->kind) << i;
    EXPECT_EQ((*batch)[i].exact_match, single->exact_match) << i;
    EXPECT_EQ((*batch)[i].neighbors, single->neighbors) << i;
  }

  const auto snap = ms.snapshot();
  const auto points = snap.counter(obs::Counter::kServeClassifyPoints);
  EXPECT_EQ(points, count);
  EXPECT_EQ(snap.counter(obs::Counter::kServeClassifyPerformed) +
                snap.counter(obs::Counter::kServeClassifyAvoidedExact),
            points);
  // Bitwise-identical halves must ride the fast path.
  EXPECT_GE(snap.counter(obs::Counter::kServeClassifyAvoidedExact), count / 2);
}

TEST_F(ClusterModelTest, BatchDeadlineTripsCleanly) {
  std::vector<double> coords(2 * 2000, 1.0);
  RunGuard guard(RunLimits{1e-9, 0});
  auto r = model_->classify_batch(coords, 2000, nullptr, nullptr, &guard);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ClusterModelTest, NeighborsMatchesBruteForceAtArbitraryRadii) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> box(-2.0, 32.0);
  for (double radius : {0.4, kEps, 2.7}) {
    const double r2 = radius * radius;
    for (int t = 0; t < 60; ++t) {
      const std::vector<double> q = {box(rng), box(rng)};
      std::vector<std::pair<PointId, double>> want;
      for (std::size_t i = 0; i < snap_.data.size(); ++i) {
        const auto id = static_cast<PointId>(i);
        const double d2 = dist2(snap_.data.point(id), q);
        if (d2 < r2) want.emplace_back(id, d2);
      }
      std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
        return a.second != b.second ? a.second < b.second : a.first < b.first;
      });
      auto got = model_->neighbors(q, radius);
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      EXPECT_EQ(*got, want) << "radius " << radius << " query " << t;
    }
  }
}

TEST_F(ClusterModelTest, InvalidQueriesAreRejectedCleanly) {
  const double q3[3] = {1.0, 2.0, 3.0};
  EXPECT_EQ(model_->classify(q3).status().code(),
            StatusCode::kInvalidArgument);
  const double q2[2] = {1.0, 2.0};
  EXPECT_EQ(model_->neighbors(q2, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model_->neighbors(q2, std::numeric_limits<double>::infinity())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(model_->neighbors(q3, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      model_->classify_batch(std::span<const double>(q3, 3), 2).status().code(),
      StatusCode::kInvalidArgument);
}

TEST_F(ClusterModelTest, PointInfoMirrorsResultAndRejectsOutOfRange) {
  obs::MetricsRegistry ms;
  for (std::size_t i = 0; i < snap_.data.size(); i += 97) {
    auto info = model_->point_info(i, &ms);
    ASSERT_TRUE(info.ok());
    const auto id = static_cast<PointId>(i);
    EXPECT_EQ(info->label, snap_.result.label[id]);
    EXPECT_EQ(info->kind, snap_.result.kind(id));
    EXPECT_EQ(info->is_core, snap_.result.is_core[id] != 0);
  }
  auto bad = model_->point_info(snap_.data.size());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST_F(ClusterModelTest, SaveModelRoundtripsThroughDisk) {
  const std::string p = ::testing::TempDir() + "udb_model_roundtrip.udbm";
  ASSERT_TRUE(serve::save_model(*model_, p).ok());
  auto loaded = serve::load_model(p);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->result.label, snap_.result.label);
  EXPECT_EQ(loaded->result.is_core, snap_.result.is_core);
  EXPECT_EQ(loaded->data.raw(), snap_.data.raw());
}

TEST(ServedModelTest, RefreshSwapsAtomicallyUnderConcurrentReaders) {
  auto m1 = serve::ClusterModel::build(fitted_snapshot(400, 1));
  auto m2 = serve::ClusterModel::build(fitted_snapshot(500, 2));
  ASSERT_TRUE(m1.ok() && m2.ok());

  serve::ServedModel served(*m1);
  EXPECT_EQ(served.get()->size(), 400u);

  // Readers hammer get()+classify while the writer flips between the two
  // models; every observed model must be internally consistent (a classify
  // on the loaded snapshot always succeeds on that snapshot's own points).
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto m = served.get();
        auto c = m->classify(m->dataset().point(0));
        if (!c.ok() || !c->exact_match) failed.store(true);
      }
    });
  }
  obs::MetricsRegistry ms;
  for (int i = 0; i < 200; ++i) served.refresh(i % 2 == 0 ? *m2 : *m1, &ms);
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(ms.snapshot().counter(obs::Counter::kServeModelRefreshes), 200u);
}

TEST(ModelFromStreamTest, ClassifyAgreesWithOfflineModelAfterDeletes) {
  // The end-to-end online-update story: ingest, interleave erases and fresh
  // inserts through the incremental engine, serve — and every classify
  // answer (rendered through the shared CSV formatter, so label, kind,
  // would_be_core, and neighbor count all participate) must be
  // byte-identical to a model fit offline on the surviving points.
  const Dataset all = gen_blobs(700, 2, 4, 20.0, 1.0, 0.1, 33);
  IncrementalMuDbscan engine(2, DbscanParams{kEps, kMinPts});
  for (std::size_t i = 0; i < all.size(); ++i)
    engine.insert(all.point(static_cast<PointId>(i)));
  for (PointId id = 0; id < 700; id += 7) ASSERT_TRUE(engine.erase(id));
  const Dataset extra = gen_blobs(60, 2, 2, 20.0, 1.0, 0.1, 34);
  for (std::size_t i = 0; i < extra.size(); ++i)
    engine.insert(extra.point(static_cast<PointId>(i)));

  auto online = serve::model_from_stream(engine);
  ASSERT_TRUE(online.ok()) << online.status().to_string();

  serve::ModelSnapshot snap;
  snap.data = engine.survivors();
  snap.params = engine.params();
  snap.result = canonicalize_clustering(snap.data, snap.params,
                                        mu_dbscan(snap.data, snap.params));
  auto offline = serve::ClusterModel::build(std::move(snap));
  ASSERT_TRUE(offline.ok()) << offline.status().to_string();
  ASSERT_EQ((*online)->size(), (*offline)->size());

  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> jitter(-0.3, 0.3);
  for (std::size_t i = 0; i < (*online)->size(); ++i) {
    const auto q = (*online)->dataset().point(static_cast<PointId>(i));
    auto a = (*online)->classify(q);
    auto b = (*offline)->classify(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(a->exact_match);
    ASSERT_EQ(serve::classify_csv_row(*a), serve::classify_csv_row(*b))
        << "survivor " << i;
    // A jittered novel query must agree too (border-candidate rule over the
    // same dataset), not just the stored labels.
    if (i % 17 == 0) {
      const std::vector<double> nq = {q[0] + jitter(rng), q[1] + jitter(rng)};
      auto an = (*online)->classify(nq);
      auto bn = (*offline)->classify(nq);
      ASSERT_TRUE(an.ok() && bn.ok());
      ASSERT_EQ(serve::classify_csv_row(*an), serve::classify_csv_row(*bn))
          << "novel query near survivor " << i;
    }
  }
}

TEST(ModelFromStreamTest, EmptyStreamRefusesToServe) {
  IncrementalMuDbscan engine(2, DbscanParams{1.0, 5});
  auto m = serve::model_from_stream(engine);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelFromStreamTest, SnapshotsMatchBatchAfterEveryIngestRound) {
  // Three ingest rounds with a model snapshot after each: the streaming
  // producer must hand out exactly the batch clustering of everything
  // ingested so far, and the served dataset must be the points in insertion
  // order.
  const Dataset all = gen_blobs(900, 2, 5, 25.0, 1.0, 0.1, 21);
  IncrementalMuDbscan engine(2, DbscanParams{kEps, kMinPts});

  std::size_t ingested = 0;
  for (std::size_t round = 0; round < 3; ++round) {
    const std::size_t until = all.size() * (round + 1) / 3;
    for (; ingested < until; ++ingested)
      engine.insert(all.point(static_cast<PointId>(ingested)));

    auto m = serve::model_from_stream(engine);
    ASSERT_TRUE(m.ok()) << m.status().to_string();
    EXPECT_EQ((*m)->size(), until);

    // Prefix dataset + batch reference over the same points.
    std::vector<double> prefix(all.raw().begin(),
                               all.raw().begin() + static_cast<long>(2 * until));
    const Dataset ref_ds(2, std::move(prefix));
    EXPECT_EQ((*m)->dataset().raw(), ref_ds.raw()) << "round " << round;
    const ClusteringResult ref = mu_dbscan(ref_ds, DbscanParams{kEps, kMinPts});
    EXPECT_EQ((*m)->result().label, ref.label) << "round " << round;
    EXPECT_EQ((*m)->result().is_core, ref.is_core) << "round " << round;
  }
}

}  // namespace
}  // namespace udb
