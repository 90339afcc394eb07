// SnapshotStore + recover_stream (serve/snapstore.*): generation numbering,
// manifest fallback, retention, and — the reason the store exists — the
// guarantee that a *failed* save (injected ENOSPC, fsync failure) surfaces
// the right Status and never damages the previously published generation,
// so a server keeps serving the old model. The recovery half is pinned
// against its alignment cases: WAL records the snapshot already covers are
// skipped, a gap ends the replay, and the result always matches
// fit-from-scratch exactly.

#include "serve/snapstore.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/vfs.hpp"
#include "core/incremental.hpp"
#include "core/mudbscan.hpp"
#include "core/wal.hpp"
#include "data/generators.hpp"
#include "metrics/exactness.hpp"
#include "serve/model.hpp"

namespace udb {
namespace {

using serve::ModelSnapshot;
using serve::SnapshotStore;
using serve::SnapshotStoreConfig;

class SnapstoreTest : public ::testing::Test {
 protected:
  // Wiped on first use: stores and WALs persist across ctest runs, and a
  // leftover log would break the append-contiguity assertions.
  std::string dir(const char* name) {
    const std::string d = ::testing::TempDir() + "udb_store_" + name;
    if (wiped_.insert(d).second) std::filesystem::remove_all(d);
    return d;
  }

  std::set<std::string> wiped_;

  void TearDown() override {
    vfs::install_io_fault_plan(nullptr);
    vfs::reset_io_fault_state();
  }

  // A small fitted model; `n` varies content across generations.
  ModelSnapshot make_snapshot(std::size_t n) {
    ModelSnapshot snap;
    snap.data = gen_blobs(n, 2, 3, 15.0, 1.0, 0.1, 77);
    snap.params = {1.0, 5};
    snap.result = mu_dbscan(snap.data, snap.params);
    return snap;
  }

  vfs::IoFaultPlan plan_;
};

TEST_F(SnapstoreTest, SaveLoadRoundtrip) {
  auto store = SnapshotStore::open(dir("roundtrip"));
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const auto snap = make_snapshot(200);
  auto gen = store->save(snap);
  ASSERT_TRUE(gen.ok()) << gen.status().to_string();
  EXPECT_EQ(*gen, 1u);

  std::uint64_t served = 0;
  auto loaded = store->load_latest(&served);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(loaded->data.raw(), snap.data.raw());
  EXPECT_EQ(loaded->result.label, snap.result.label);
  EXPECT_EQ(loaded->result.is_core, snap.result.is_core);
}

TEST_F(SnapstoreTest, EmptyStoreIsNotFound) {
  auto store = SnapshotStore::open(dir("empty"));
  ASSERT_TRUE(store.ok());
  auto loaded = store->load_latest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapstoreTest, RetentionKeepsTheNewestGenerations) {
  SnapshotStoreConfig cfg;
  cfg.keep = 2;
  auto store = SnapshotStore::open(dir("retention"), cfg);
  ASSERT_TRUE(store.ok());
  for (std::size_t n : {100u, 150u, 200u, 250u})
    ASSERT_TRUE(store->save(make_snapshot(n)).ok());
  auto gens = store->generations();
  ASSERT_TRUE(gens.ok());
  EXPECT_EQ(*gens, (std::vector<std::uint64_t>{3, 4}));
  std::uint64_t served = 0;
  auto loaded = store->load_latest(&served);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(served, 4u);
  EXPECT_EQ(loaded->data.size(), 250u);
}

TEST_F(SnapstoreTest, FailedSaveEnospcKeepsPreviousGeneration) {
  auto store = SnapshotStore::open(dir("enospc"));
  ASSERT_TRUE(store.ok());
  const auto old_snap = make_snapshot(120);
  ASSERT_TRUE(store->save(old_snap).ok());

  plan_.enospc_rate = 1.0;
  vfs::reset_io_fault_state();
  vfs::install_io_fault_plan(&plan_);
  auto gen = store->save(make_snapshot(400));
  vfs::install_io_fault_plan(nullptr);
  ASSERT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kResourceExhausted);

  // A server that hits this keeps serving what it was serving: the published
  // generation is intact and still the one the manifest names.
  std::uint64_t served = 0;
  auto loaded = store->load_latest(&served);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(loaded->data.raw(), old_snap.data.raw());
  EXPECT_EQ(loaded->result.label, old_snap.result.label);
  // And the serving index still builds off the old model.
  auto model = serve::ClusterModel::build(*loaded);
  ASSERT_TRUE(model.ok()) << model.status().to_string();
  EXPECT_EQ((*model)->size(), old_snap.data.size());
}

TEST_F(SnapstoreTest, FailedSaveFsyncFailureKeepsPreviousGeneration) {
  auto store = SnapshotStore::open(dir("fsyncfail"));
  ASSERT_TRUE(store.ok());
  const auto old_snap = make_snapshot(120);
  ASSERT_TRUE(store->save(old_snap).ok());

  plan_.fsync_fail_rate = 1.0;
  vfs::reset_io_fault_state();
  vfs::install_io_fault_plan(&plan_);
  auto gen = store->save(make_snapshot(400));
  vfs::install_io_fault_plan(nullptr);
  ASSERT_FALSE(gen.ok());
  EXPECT_EQ(gen.status().code(), StatusCode::kDataLoss);

  std::uint64_t served = 0;
  auto loaded = store->load_latest(&served);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(loaded->data.raw(), old_snap.data.raw());
}

TEST_F(SnapstoreTest, CorruptManifestFallsBackToNewestIntactGeneration) {
  auto store = SnapshotStore::open(dir("manifest"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->save(make_snapshot(100)).ok());
  ASSERT_TRUE(store->save(make_snapshot(160)).ok());

  const std::string manifest = store->dir() + "/MANIFEST";
  auto bytes = vfs::read_file(manifest);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[10] ^= 0xFF;
  ASSERT_TRUE(vfs::write_file(manifest, bytes->data(), bytes->size()).ok());

  std::uint64_t served = 0;
  auto loaded = store->load_latest(&served);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(loaded->data.size(), 160u);
}

TEST_F(SnapstoreTest, CorruptNewestGenerationFallsBackToOlder) {
  auto store = SnapshotStore::open(dir("genrot"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->save(make_snapshot(100)).ok());
  ASSERT_TRUE(store->save(make_snapshot(160)).ok());

  const std::string victim = store->generation_path(2);
  auto bytes = vfs::read_file(victim);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0x01;
  ASSERT_TRUE(vfs::write_file(victim, bytes->data(), bytes->size()).ok());

  std::uint64_t served = 0;
  auto loaded = store->load_latest(&served);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(served, 1u);
  EXPECT_EQ(loaded->data.size(), 100u);
}

TEST_F(SnapstoreTest, OrphanGenerationIsNeverOverwritten) {
  // A gen file that landed whose manifest publish failed must not be reused:
  // numbering always moves past everything on disk.
  auto store = SnapshotStore::open(dir("orphan"));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->save(make_snapshot(100)).ok());
  auto bytes = vfs::read_file(store->generation_path(1));
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(vfs::write_file_atomic(store->generation_path(5), bytes->data(),
                                     bytes->size())
                  .ok());
  auto gen = store->save(make_snapshot(140));
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(*gen, 6u);
}

// ---- recover_stream -------------------------------------------------------

class RecoverTest : public SnapstoreTest {
 protected:
  static constexpr std::size_t kDim = 2;
  const DbscanParams params_{1.0, 5};

  Dataset script_ = gen_blobs(240, kDim, 3, 15.0, 1.0, 0.1, 31);

  Dataset slice(std::size_t lo, std::size_t hi) {
    std::vector<double> c(script_.raw().begin() + lo * kDim,
                          script_.raw().begin() + hi * kDim);
    return Dataset(kDim, std::move(c));
  }

  std::span<const double> coords(std::size_t lo, std::size_t hi) {
    return std::span<const double>(script_.raw().data() + lo * kDim,
                                   (hi - lo) * kDim);
  }

  void publish(SnapshotStore& store, std::size_t upto) {
    IncrementalMuDbscan engine(kDim, params_);
    for (std::size_t i = 0; i < upto; ++i)
      engine.insert(script_.point(static_cast<PointId>(i)));
    ModelSnapshot snap;
    snap.result = engine.result();
    snap.data = engine.survivors();
    snap.params = params_;
    ASSERT_TRUE(store.save(snap).ok());
  }

  void expect_exact_prefix(const serve::RecoveredStream& rec,
                           std::size_t expect_points) {
    ASSERT_EQ(rec.engine->size(), expect_points);
    if (expect_points == 0) return;
    EXPECT_EQ(rec.engine->survivors().raw(),
              slice(0, expect_points).raw());
    const ClusteringResult fresh =
        mu_dbscan(slice(0, expect_points), params_);
    EXPECT_EQ(rec.engine->result().label, fresh.label);
    EXPECT_EQ(rec.engine->result().is_core, fresh.is_core);
  }
};

TEST_F(RecoverTest, NothingOnDiskRecoversAnEmptyStream) {
  auto store = SnapshotStore::open(dir("rec_empty"));
  ASSERT_TRUE(store.ok());
  auto rec = serve::recover_stream(*store, dir("rec_empty") + "/wal", kDim,
                                   params_);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec->engine->size(), 0u);
  EXPECT_EQ(rec->generation, 0u);
}

TEST_F(RecoverTest, SnapshotPlusWalRebuildsTheExactModel) {
  const std::string d = dir("rec_both");
  auto store = SnapshotStore::open(d + "/store");
  ASSERT_TRUE(store.ok());
  publish(*store, 150);
  {
    auto wal = WalWriter::open(d + "/wal", kDim);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->append(150, coords(150, 200)).ok());
    ASSERT_TRUE(wal->append(200, coords(200, 240)).ok());
    ASSERT_TRUE(wal->close().ok());
  }
  auto rec = serve::recover_stream(*store, d + "/wal", kDim, params_);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec->snapshot_points, 150u);
  EXPECT_EQ(rec->wal_records, 2u);
  EXPECT_EQ(rec->wal_points, 90u);
  expect_exact_prefix(*rec, 240);
}

TEST_F(RecoverTest, RecordsCoveredByTheSnapshotAreNotReplayedTwice) {
  // The publish/reset crash window: the generation landed, the WAL reset did
  // not. Every WAL record is already inside the snapshot — replay must skip
  // them all, including the half of a straddling record.
  const std::string d = dir("rec_covered");
  auto store = SnapshotStore::open(d + "/store");
  ASSERT_TRUE(store.ok());
  {
    auto wal = WalWriter::open(d + "/wal", kDim);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->append(100, coords(100, 150)).ok());
    ASSERT_TRUE(wal->append(150, coords(150, 180)).ok());
    ASSERT_TRUE(wal->close().ok());
  }
  publish(*store, 160);  // covers record 1 fully, record 2 partially

  auto rec = serve::recover_stream(*store, d + "/wal", kDim, params_);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec->snapshot_points, 160u);
  EXPECT_EQ(rec->wal_points, 20u);  // only the uncovered half of record 2
  expect_exact_prefix(*rec, 180);
}

TEST_F(RecoverTest, GapAfterGenerationFallbackEndsTheReplay) {
  // Newest generation corrupt -> fallback serves an older one; the WAL then
  // starts *after* the fallback's coverage. Ingesting across the hole would
  // break exactness, so the replay must stop at the gap.
  const std::string d = dir("rec_gap");
  auto store = SnapshotStore::open(d + "/store");
  ASSERT_TRUE(store.ok());
  publish(*store, 100);
  {
    auto wal = WalWriter::open(d + "/wal", kDim);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->append(180, coords(180, 220)).ok());
    ASSERT_TRUE(wal->close().ok());
  }
  auto rec = serve::recover_stream(*store, d + "/wal", kDim, params_);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec->wal_points, 0u);
  expect_exact_prefix(*rec, 100);
}

TEST_F(RecoverTest, TornWalTailIsDroppedNotIngested) {
  const std::string d = dir("rec_torn");
  auto store = SnapshotStore::open(d + "/store");
  ASSERT_TRUE(store.ok());
  {
    auto wal = WalWriter::open(d + "/wal", kDim);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->append(0, coords(0, 60)).ok());
    ASSERT_TRUE(wal->close().ok());
  }
  {
    auto f = vfs::File::open_append(d + "/wal");
    ASSERT_TRUE(f.ok());
    const char junk[] = {0x7F, 0x00, 0x11, 0x22, 0x33};
    ASSERT_TRUE(f->write(junk, sizeof junk).ok());
    ASSERT_TRUE(f->close().ok());
  }
  auto rec = serve::recover_stream(*store, d + "/wal", kDim, params_);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_GT(rec->wal_torn_bytes, 0u);
  expect_exact_prefix(*rec, 60);
}

TEST_F(RecoverTest, EpochMatchedLogReplaysInsertsAndTombstonesInOrder) {
  // The online-delete restart path: publish a generation, stamp the WAL with
  // it, log more ingest plus tombstones, crash. Recovery must replay the log
  // in record order and land on the exact pre-crash survivor set.
  const std::string d = dir("rec_tomb");
  auto store = SnapshotStore::open(d + "/store");
  ASSERT_TRUE(store.ok());
  publish(*store, 150);  // generation 1
  {
    auto wal = WalWriter::open(d + "/wal", kDim);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->reset(1).ok());
    ASSERT_TRUE(wal->append(150, coords(150, 200)).ok());
    ASSERT_TRUE(wal->append_delete(coords(10, 11)).ok());   // snapshot point
    ASSERT_TRUE(wal->append_delete(coords(170, 171)).ok()); // WAL point
    ASSERT_TRUE(wal->close().ok());
  }
  auto rec = serve::recover_stream(*store, d + "/wal", kDim, params_);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_FALSE(rec->wal_epoch_mismatch);
  EXPECT_EQ(rec->wal_records, 3u);
  EXPECT_EQ(rec->wal_points, 50u);
  EXPECT_EQ(rec->wal_deletes, 2u);
  ASSERT_EQ(rec->engine->size(), 198u);

  std::vector<double> surv;
  for (std::size_t i = 0; i < 200; ++i) {
    if (i == 10 || i == 170) continue;
    surv.insert(surv.end(), script_.raw().begin() + i * kDim,
                script_.raw().begin() + (i + 1) * kDim);
  }
  Dataset survivors(kDim, std::move(surv));
  EXPECT_EQ(rec->engine->survivors().raw(), survivors.raw());
  const ClusteringResult fresh = canonicalize_clustering(
      survivors, params_, mu_dbscan(survivors, params_));
  EXPECT_EQ(rec->engine->result().label, fresh.label);
  EXPECT_EQ(rec->engine->result().is_core, fresh.is_core);
}

TEST_F(RecoverTest, EpochMismatchSkipsTombstoneLogWholesale) {
  // The log extends generation 1; a second publish landed but its reset never
  // ran (or the manifest fell back). Tombstones cannot be realigned against a
  // different state, so the whole log is dropped and the snapshot serves
  // as-is.
  const std::string d = dir("rec_epoch_skip");
  auto store = SnapshotStore::open(d + "/store");
  ASSERT_TRUE(store.ok());
  publish(*store, 100);  // generation 1
  {
    auto wal = WalWriter::open(d + "/wal", kDim);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->reset(1).ok());
    ASSERT_TRUE(wal->append(100, coords(100, 140)).ok());
    ASSERT_TRUE(wal->append_delete(coords(5, 6)).ok());
    ASSERT_TRUE(wal->close().ok());
  }
  publish(*store, 160);  // generation 2: covers the log's ingest, crash
                         // before reset(2)
  auto rec = serve::recover_stream(*store, d + "/wal", kDim, params_);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_TRUE(rec->wal_epoch_mismatch);
  EXPECT_EQ(rec->wal_records, 0u);
  EXPECT_EQ(rec->wal_deletes, 0u);
  // Served state is exactly generation 2 — no double-ingest, no misapplied
  // tombstone. (The delete logged against gen 1 is lost; the recovery
  // contract is an exact op-boundary prefix, and gen 2 is one.)
  expect_exact_prefix(*rec, 160);
}

TEST_F(RecoverTest, ParameterMismatchIsRejected) {
  const std::string d = dir("rec_params");
  auto store = SnapshotStore::open(d + "/store");
  ASSERT_TRUE(store.ok());
  publish(*store, 100);
  const DbscanParams other{2.5, 9};
  auto rec = serve::recover_stream(*store, d + "/wal", kDim, other);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace udb
