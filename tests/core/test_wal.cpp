// Write-ahead log (core/wal.*): append/replay roundtrip, torn-tail trimming,
// record validation, the contiguity contract, and RunGuard budget accounting.
// The crash matrix itself lives in tools/crashharness; these tests pin the
// format and the writer's failure semantics deterministically.

#include "core/wal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/runguard.hpp"
#include "common/vfs.hpp"

namespace udb {
namespace {

class WalTest : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return ::testing::TempDir() + "udb_wal_" + name;
  }

  void TearDown() override {
    vfs::install_io_fault_plan(nullptr);
    vfs::reset_io_fault_state();
  }

  std::vector<double> points(std::size_t n, double base) {
    std::vector<double> v;
    for (std::size_t i = 0; i < n * 2; ++i)
      v.push_back(base + static_cast<double>(i));
    return v;
  }
};

TEST_F(WalTest, OpenCreatesHeaderOnlyLog) {
  const std::string p = path("fresh.wal");
  (void)vfs::remove_file(p);
  auto w = WalWriter::open(p, 2);
  ASSERT_TRUE(w.ok()) << w.status().to_string();
  EXPECT_EQ(w->records(), 0u);
  EXPECT_EQ(w->bytes(), kWalHeaderBytes);
  EXPECT_EQ(w->dim(), 2u);
  ASSERT_TRUE(w->close().ok());
  auto size = vfs::file_size(p);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, kWalHeaderBytes);
}

TEST_F(WalTest, AppendReplayRoundtrip) {
  const std::string p = path("roundtrip.wal");
  (void)vfs::remove_file(p);
  const auto a = points(3, 0.0), b = points(2, 100.0), c = points(4, 200.0);
  {
    auto w = WalWriter::open(p, 2);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append(0, a).ok());
    ASSERT_TRUE(w->append(3, b).ok());
    ASSERT_TRUE(w->append(5, c).ok());
    EXPECT_EQ(w->records(), 3u);
    EXPECT_EQ(w->next_start(), 9u);
    ASSERT_TRUE(w->close().ok());
  }
  auto rep = replay_wal(p, 2);
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  EXPECT_EQ(rep->records, 3u);
  EXPECT_EQ(rep->points(), 9u);
  EXPECT_EQ(rep->torn_bytes, 0u);
  EXPECT_EQ(rep->starts, (std::vector<std::uint64_t>{0, 3, 5}));
  EXPECT_EQ(rep->counts, (std::vector<std::uint64_t>{3, 2, 4}));
  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());
  EXPECT_EQ(rep->coords, all);
}

TEST_F(WalTest, ReplayMissingIsNotFound) {
  auto rep = replay_wal(path("missing.wal"));
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kNotFound);
}

TEST_F(WalTest, GarbageHeaderIsDataLoss) {
  const std::string p = path("garbage.wal");
  const char junk[] = "this is not a WAL at all, not even close";
  ASSERT_TRUE(vfs::write_file(p, junk, sizeof junk).ok());
  auto rep = replay_wal(p);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kDataLoss);
  auto w = WalWriter::open(p, 2);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kDataLoss);
}

TEST_F(WalTest, DimMismatchIsDataLoss) {
  const std::string p = path("dim.wal");
  (void)vfs::remove_file(p);
  {
    auto w = WalWriter::open(p, 2);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->close().ok());
  }
  auto rep = replay_wal(p, 3);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(replay_wal(p, 0).ok());  // 0 accepts any dim
}

TEST_F(WalTest, TornTailIsDroppedAndTrimmedOnReopen) {
  const std::string p = path("torn.wal");
  (void)vfs::remove_file(p);
  const auto a = points(3, 0.0);
  std::uint64_t committed = 0;
  {
    auto w = WalWriter::open(p, 2);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append(0, a).ok());
    committed = w->bytes();
    ASSERT_TRUE(w->close().ok());
  }
  // A crash mid-append leaves a partial frame; simulate with raw junk.
  {
    auto f = vfs::File::open_append(p);
    ASSERT_TRUE(f.ok());
    const char junk[] = {0x10, 0x20, 0x30, 0x40, 0x55, 0x66};
    ASSERT_TRUE(f->write(junk, sizeof junk).ok());
    ASSERT_TRUE(f->close().ok());
  }
  auto rep = replay_wal(p, 2);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->records, 1u);
  EXPECT_EQ(rep->coords, a);
  EXPECT_EQ(rep->torn_bytes, 6u);

  // Reopening trims the torn tail and appending resumes on valid records.
  auto w = WalWriter::open(p, 2);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->bytes(), committed);
  EXPECT_EQ(w->next_start(), 3u);
  const auto b = points(2, 50.0);
  ASSERT_TRUE(w->append(3, b).ok());
  ASSERT_TRUE(w->close().ok());
  auto rep2 = replay_wal(p, 2);
  ASSERT_TRUE(rep2.ok());
  EXPECT_EQ(rep2->records, 2u);
  EXPECT_EQ(rep2->points(), 5u);
  EXPECT_EQ(rep2->torn_bytes, 0u);
}

TEST_F(WalTest, CorruptRecordEndsThePrefix) {
  const std::string p = path("rot.wal");
  (void)vfs::remove_file(p);
  const auto a = points(3, 0.0), b = points(3, 100.0);
  std::uint64_t first_record_end = 0;
  {
    auto w = WalWriter::open(p, 2);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append(0, a).ok());
    first_record_end = w->bytes();
    ASSERT_TRUE(w->append(3, b).ok());
    ASSERT_TRUE(w->close().ok());
  }
  auto bytes = vfs::read_file(p);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[first_record_end + 12] ^= 0x01;  // one bit inside record 2
  ASSERT_TRUE(vfs::write_file(p, bytes->data(), bytes->size()).ok());

  auto rep = replay_wal(p, 2);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->records, 1u);  // the CRC catches the flip, prefix survives
  EXPECT_EQ(rep->coords, a);
  EXPECT_GT(rep->torn_bytes, 0u);
}

TEST_F(WalTest, NonFiniteInsertRecordEndsThePrefix) {
  // A CRC-valid insert record holding a NaN cannot have come from
  // WalWriter::append (which refuses it), so replay stops there — before a
  // point IncrementalMuDbscan::insert would refuse with an exception.
  const std::string p = path("nan_insert.wal");
  (void)vfs::remove_file(p);
  const auto a = points(3, 0.0), c = points(2, 50.0);
  {
    auto w = WalWriter::open(p, 2);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append(0, a).ok());
    ASSERT_TRUE(w->close().ok());
  }
  auto bytes = vfs::read_file(p);
  ASSERT_TRUE(bytes.ok());
  ByteWriter file;
  file.raw(bytes->data(), bytes->size());
  const auto append_record = [&](std::uint64_t start,
                                 const std::vector<double>& coords) {
    ByteWriter payload;
    payload.u8(static_cast<std::uint8_t>(WalRecordType::kInsert));
    payload.u64(start);
    payload.u64(coords.size() / 2);
    payload.raw(coords.data(), coords.size() * sizeof(double));
    file.u32(static_cast<std::uint32_t>(payload.size()));
    file.u32(crc32(payload.data().data(), payload.size()));
    file.raw(payload.data().data(), payload.size());
  };
  append_record(3, {1.0, std::numeric_limits<double>::quiet_NaN()});
  append_record(4, c);
  ASSERT_TRUE(
      vfs::write_file_atomic(p, file.data().data(), file.size()).ok());

  auto rep = replay_wal(p, 2);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->records, 1u);
  EXPECT_EQ(rep->coords, a);
  EXPECT_GT(rep->torn_bytes, 0u);
}

TEST_F(WalTest, AppendValidatesItsInput) {
  const std::string p = path("validate.wal");
  (void)vfs::remove_file(p);
  auto w = WalWriter::open(p, 2);
  ASSERT_TRUE(w.ok());

  const Status empty = w->append(0, std::vector<double>{});
  EXPECT_EQ(empty.code(), StatusCode::kInvalidArgument);
  const Status odd = w->append(0, std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(odd.code(), StatusCode::kInvalidArgument);
  const double inf = std::numeric_limits<double>::infinity();
  const Status nonfinite = w->append(0, std::vector<double>{1.0, inf});
  EXPECT_EQ(nonfinite.code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(w->append(0, points(2, 0.0)).ok());
  // Contiguity: the log is a dense suffix of the stream, gaps are caller bugs.
  const Status gap = w->append(7, points(1, 0.0));
  EXPECT_EQ(gap.code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(w->append(2, points(1, 0.0)).ok());
  ASSERT_TRUE(w->close().ok());
}

TEST_F(WalTest, ResetTruncatesToHeader) {
  const std::string p = path("reset.wal");
  (void)vfs::remove_file(p);
  auto w = WalWriter::open(p, 2);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->append(0, points(5, 0.0)).ok());
  ASSERT_TRUE(w->reset().ok());
  EXPECT_EQ(w->records(), 0u);
  EXPECT_EQ(w->bytes(), kWalHeaderBytes);
  // The stream restarts from the snapshot's floor; start over at any index.
  ASSERT_TRUE(w->append(5, points(2, 10.0)).ok());
  ASSERT_TRUE(w->close().ok());
  auto rep = replay_wal(p, 2);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->records, 1u);
  EXPECT_EQ(rep->starts, (std::vector<std::uint64_t>{5}));
}

TEST_F(WalTest, BudgetIsChargedAndReleased) {
  const std::string p = path("budget.wal");
  (void)vfs::remove_file(p);
  RunGuard guard;
  RunLimits limits;
  limits.memory_budget_bytes = std::size_t{1} << 20;
  guard.arm(limits);

  WalConfig cfg;
  cfg.guard = &guard;
  {
    auto w = WalWriter::open(p, 2, cfg);
    ASSERT_TRUE(w.ok());
    const std::size_t after_open = guard.bytes_in_use();
    EXPECT_GE(after_open, kWalHeaderBytes);
    ASSERT_TRUE(w->append(0, points(10, 0.0)).ok());
    EXPECT_GT(guard.bytes_in_use(), after_open);
    ASSERT_TRUE(w->reset().ok());
    EXPECT_EQ(guard.bytes_in_use(), kWalHeaderBytes);
    ASSERT_TRUE(w->close().ok());
  }
  EXPECT_EQ(guard.bytes_in_use(), 0u);
}

TEST_F(WalTest, BudgetRefusalLeavesTheLogUntouched) {
  const std::string p = path("budget_refuse.wal");
  (void)vfs::remove_file(p);
  RunGuard guard;
  RunLimits limits;
  limits.memory_budget_bytes = kWalHeaderBytes + 64;  // room for ~no records
  guard.arm(limits);

  WalConfig cfg;
  cfg.guard = &guard;
  auto w = WalWriter::open(p, 2, cfg);
  ASSERT_TRUE(w.ok());
  const std::uint64_t before = w->bytes();
  const Status s = w->append(0, points(64, 0.0));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(w->bytes(), before);
  EXPECT_EQ(w->records(), 0u);
  auto size = vfs::file_size(p);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, before);  // nothing hit the disk
  ASSERT_TRUE(w->close().ok());
}

TEST_F(WalTest, InjectedFsyncFailureFailsTheWriterHard) {
  const std::string p = path("fsync.wal");
  (void)vfs::remove_file(p);
  auto w = WalWriter::open(p, 2);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w->append(0, points(2, 0.0)).ok());

  vfs::IoFaultPlan plan;
  plan.fsync_fail_rate = 1.0;
  vfs::reset_io_fault_state();
  vfs::install_io_fault_plan(&plan);
  const Status s = w->append(2, points(2, 10.0));
  vfs::install_io_fault_plan(nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  // The writer refuses further appends: the on-disk tail is suspect.
  EXPECT_EQ(w->append(4, points(1, 0.0)).code(), StatusCode::kInternal);

  // The record's bytes did land (only the fsync failed — durability was
  // unknown, not the data absent), so reopening finds both records valid.
  // The point of failing hard is that the *writer* never builds on a tail it
  // cannot vouch for; reopen re-scans and vouches from the file itself.
  auto w2 = WalWriter::open(p, 2);
  ASSERT_TRUE(w2.ok()) << w2.status().to_string();
  EXPECT_EQ(w2->records(), 2u);
  EXPECT_EQ(w2->next_start(), 4u);
  ASSERT_TRUE(w2->close().ok());
}

TEST_F(WalTest, TombstoneRoundtripAndContiguityExemption) {
  const std::string p = path("tomb.wal");
  (void)vfs::remove_file(p);
  const auto a = points(3, 0.0);
  const std::vector<double> dead = {0.0, 1.0, 4.0, 5.0};  // two dim-2 points
  {
    auto w = WalWriter::open(p, 2);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->append(0, a).ok());
    ASSERT_TRUE(w->append_delete(dead).ok());
    // Tombstones sit outside the insert chain: next_start is unchanged and
    // the next insert must still be contiguous with the last insert.
    EXPECT_EQ(w->next_start(), 3u);
    EXPECT_EQ(w->append(9, points(1, 0.0)).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(w->append(3, points(2, 50.0)).ok());
    EXPECT_EQ(w->records(), 3u);
    ASSERT_TRUE(w->close().ok());
  }
  auto rep = replay_wal(p, 2);
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  EXPECT_EQ(rep->records, 3u);
  EXPECT_TRUE(rep->has_tombstones());
  EXPECT_EQ(rep->types,
            (std::vector<std::uint8_t>{
                static_cast<std::uint8_t>(WalRecordType::kInsert),
                static_cast<std::uint8_t>(WalRecordType::kTombstone),
                static_cast<std::uint8_t>(WalRecordType::kInsert)}));
  EXPECT_EQ(rep->counts, (std::vector<std::uint64_t>{3, 2, 2}));
  EXPECT_EQ(rep->starts[0], 0u);
  EXPECT_EQ(rep->starts[2], 3u);
  // Replay keeps all rows in append order; records 0..2 partition them.
  ASSERT_EQ(rep->points(), 7u);
  EXPECT_EQ(std::vector<double>(rep->coords.begin() + 6,
                                rep->coords.begin() + 10),
            dead);
}

TEST_F(WalTest, TombstoneAcceptsNonFiniteCoordinates) {
  const std::string p = path("tomb_nan.wal");
  (void)vfs::remove_file(p);
  auto w = WalWriter::open(p, 2);
  ASSERT_TRUE(w.ok());
  const std::vector<double> dead = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity()};
  ASSERT_TRUE(w->append_delete(dead).ok());
  EXPECT_EQ(w->append_delete({}).code(), StatusCode::kInvalidArgument);
  // A tombstone-only log never started the insert chain, so the first insert
  // may begin at any stream index (recovery after a crash mid-stream).
  ASSERT_TRUE(w->append(42, points(1, 0.0)).ok());
  EXPECT_EQ(w->next_start(), 43u);
  ASSERT_TRUE(w->close().ok());
}

TEST_F(WalTest, ResetStampsEpochAndReopenRestoresIt) {
  const std::string p = path("epoch.wal");
  (void)vfs::remove_file(p);
  {
    auto w = WalWriter::open(p, 2);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w->epoch(), 0u);
    ASSERT_TRUE(w->append(0, points(2, 0.0)).ok());
    ASSERT_TRUE(w->reset(7).ok());
    EXPECT_EQ(w->epoch(), 7u);
    EXPECT_EQ(w->records(), 0u);
    ASSERT_TRUE(w->append(100, points(1, 5.0)).ok());
    ASSERT_TRUE(w->append_delete(points(1, 5.0)).ok());
    ASSERT_TRUE(w->close().ok());
  }
  auto w2 = WalWriter::open(p, 2);
  ASSERT_TRUE(w2.ok()) << w2.status().to_string();
  EXPECT_EQ(w2->epoch(), 7u);
  EXPECT_EQ(w2->records(), 2u);
  EXPECT_EQ(w2->next_start(), 101u);
  ASSERT_TRUE(w2->close().ok());
  auto rep = replay_wal(p, 2);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep->epoch, 7u);
  EXPECT_TRUE(rep->has_tombstones());
}

TEST_F(WalTest, Version1HeaderIsDataLoss) {
  const std::string p = path("v1.wal");
  (void)vfs::remove_file(p);
  // A version-1 log: 16-byte header (no epoch) and one untyped record
  // (u64 start | u64 count | coords). Neither the reader nor the writer
  // accepts it.
  ByteWriter file;
  file.raw(kWalMagic, sizeof kWalMagic);
  file.u32(1);
  file.u64(2);  // dim
  const auto pts = points(2, 7.0);
  ByteWriter payload;
  payload.u64(5);  // start_index
  payload.u64(2);  // count
  payload.raw(pts.data(), pts.size() * sizeof(double));
  file.u32(static_cast<std::uint32_t>(payload.size()));
  file.u32(crc32(payload.data().data(), payload.size()));
  file.raw(payload.data().data(), payload.size());
  ASSERT_TRUE(
      vfs::write_file_atomic(p, file.data().data(), file.size()).ok());

  auto rep = replay_wal(p, 2);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.status().code(), StatusCode::kDataLoss);
  auto w = WalWriter::open(p, 2);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace udb
