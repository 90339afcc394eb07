// Snapshot persistence (serve/snapshot.*): roundtrip fidelity and the
// quarantine-loader contract — every malformed file (truncated, bit-flipped,
// wrong magic/version, padded, semantically invalid) must come back as a
// clean Status, never a crash or a partially constructed model.

#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"

namespace udb {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return ::testing::TempDir() + "udb_snap_" + name;
  }

  // A small fitted model shared by the corruption tests.
  serve::ModelSnapshot make_snapshot() {
    serve::ModelSnapshot snap;
    snap.data = gen_blobs(300, 2, 4, 20.0, 1.0, 0.1, 99);
    snap.params = {1.0, 5};
    snap.result = mu_dbscan(snap.data, snap.params);
    snap.report_json = "{\"tool\":\"test\"}";
    return snap;
  }

  std::vector<std::uint8_t> read_file(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void write_file(const std::string& p, const std::vector<std::uint8_t>& b) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
  }

  // Rewrites the footer checksum so content mutations exercise the semantic
  // validators rather than tripping the checksum first.
  void fix_checksum(std::vector<std::uint8_t>& bytes) {
    ASSERT_GE(bytes.size(), 20u);
    const std::size_t payload_end = bytes.size() - 4;
    const std::uint32_t sum = crc32(bytes.data() + 16, payload_end - 16);
    std::memcpy(bytes.data() + payload_end, &sum, 4);
  }
};

TEST_F(SnapshotTest, RoundtripIsIdentical) {
  const auto snap = make_snapshot();
  const std::string p = path("roundtrip.udbm");
  ASSERT_TRUE(serve::save_model(snap, p).ok());

  auto loaded = serve::load_model(p);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->data.raw(), snap.data.raw());
  EXPECT_EQ(loaded->data.dim(), snap.data.dim());
  EXPECT_EQ(loaded->result.label, snap.result.label);
  EXPECT_EQ(loaded->result.is_core, snap.result.is_core);
  EXPECT_EQ(loaded->result.num_clusters(), snap.result.num_clusters());
  EXPECT_EQ(loaded->params.eps, snap.params.eps);
  EXPECT_EQ(loaded->params.min_pts, snap.params.min_pts);
  EXPECT_EQ(loaded->two_eps_rule, snap.two_eps_rule);
  EXPECT_EQ(loaded->report_json, snap.report_json);
}

// Flag bit 1 once chose how AuxR-trees were built. It is no longer written,
// and a file with it set loads to the same snapshot.
TEST_F(SnapshotTest, RetiredAuxBuildFlagIsNotWrittenAndIgnoredOnRead) {
  constexpr std::size_t kFlagsAt = 16 + 8 + 8 + 8 + 4;  // header, dim, n, eps, min_pts
  const auto snap = make_snapshot();
  const std::string p = path("retired_flag.udbm");
  ASSERT_TRUE(serve::save_model(snap, p).ok());
  auto bytes = read_file(p);
  ASSERT_GT(bytes.size(), kFlagsAt + 4);
  std::uint32_t flags = 0;
  std::memcpy(&flags, bytes.data() + kFlagsAt, 4);
  EXPECT_EQ(flags, 1u);  // two_eps_rule only

  flags |= 2u;
  std::memcpy(bytes.data() + kFlagsAt, &flags, 4);
  fix_checksum(bytes);
  write_file(p, bytes);
  auto loaded = serve::load_model(p);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded->data.raw(), snap.data.raw());
  EXPECT_EQ(loaded->result.label, snap.result.label);
  EXPECT_TRUE(loaded->two_eps_rule);
}

TEST_F(SnapshotTest, SaveIsDeterministic) {
  const auto snap = make_snapshot();
  const std::string p1 = path("det1.udbm"), p2 = path("det2.udbm");
  ASSERT_TRUE(serve::save_model(snap, p1).ok());
  ASSERT_TRUE(serve::save_model(snap, p2).ok());
  EXPECT_EQ(read_file(p1), read_file(p2));
}

TEST_F(SnapshotTest, MissingFileIsNotFound) {
  auto r = serve::load_model(path("nope.udbm"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(SnapshotTest, EveryTruncationIsRejectedCleanly) {
  const std::string p = path("trunc_src.udbm");
  ASSERT_TRUE(serve::save_model(make_snapshot(), p).ok());
  const auto full = read_file(p);
  ASSERT_GT(full.size(), 64u);

  // Cut inside the header, the fixed payload prefix, the coordinate block,
  // the trailing arrays, and the checksum footer.
  const std::size_t cuts[] = {0,  3,  15, 16,
                              40, full.size() / 2, full.size() - 5,
                              full.size() - 4, full.size() - 1};
  const std::string tp = path("trunc.udbm");
  for (std::size_t cut : cuts) {
    write_file(tp, {full.begin(), full.begin() + static_cast<long>(cut)});
    auto r = serve::load_model(tp);
    ASSERT_FALSE(r.ok()) << "truncation at " << cut << " was accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "cut " << cut;
  }
}

TEST_F(SnapshotTest, TrailingBytesAreRejected) {
  const std::string p = path("padded.udbm");
  ASSERT_TRUE(serve::save_model(make_snapshot(), p).ok());
  auto bytes = read_file(p);
  bytes.push_back(0x00);
  write_file(p, bytes);
  auto r = serve::load_model(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotTest, BitFlipInPayloadIsRejected) {
  const std::string p = path("flip.udbm");
  ASSERT_TRUE(serve::save_model(make_snapshot(), p).ok());
  const auto clean = read_file(p);
  // Flip one bit at several positions across the payload and in the CRC
  // footer; the checksum must catch every one of them.
  for (std::size_t pos : {std::size_t{16}, std::size_t{24},
                          clean.size() / 3, clean.size() / 2,
                          clean.size() - 5, clean.size() - 1}) {
    auto bytes = clean;
    bytes[pos] ^= 0x10;
    write_file(p, bytes);
    auto r = serve::load_model(p);
    ASSERT_FALSE(r.ok()) << "bit flip at " << pos << " was accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << "pos " << pos;
  }
}

TEST_F(SnapshotTest, WrongMagicIsRejected) {
  const std::string p = path("magic.udbm");
  ASSERT_TRUE(serve::save_model(make_snapshot(), p).ok());
  auto bytes = read_file(p);
  bytes[0] = 'X';
  write_file(p, bytes);
  auto r = serve::load_model(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
}

TEST_F(SnapshotTest, UnsupportedVersionIsRejected) {
  // Version 1 (the FNV-1a trailer) is retired like any future version.
  const std::string p = path("version.udbm");
  ASSERT_TRUE(serve::save_model(make_snapshot(), p).ok());
  const auto good = read_file(p);
  for (const std::uint32_t version : {1u, serve::kSnapshotVersion + 1}) {
    auto bytes = good;
    std::memcpy(bytes.data() + 4, &version, 4);
    write_file(p, bytes);
    auto r = serve::load_model(p);
    ASSERT_FALSE(r.ok()) << version;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << version;
    EXPECT_NE(r.status().message().find("version"), std::string::npos)
        << version;
  }
}

TEST_F(SnapshotTest, OutOfRangeLabelIsRejectedEvenWithValidChecksum) {
  const auto snap = make_snapshot();
  const std::string p = path("badlabel.udbm");
  ASSERT_TRUE(serve::save_model(snap, p).ok());
  auto bytes = read_file(p);

  // Payload layout: u64 dim | u64 n | f64 eps | u32 min_pts | u32 flags |
  // u64 num_clusters | f64 coords[n*dim] | i64 labels[n] | ...
  const std::size_t n = snap.data.size(), d = snap.data.dim();
  const std::size_t labels_off = 16 + 8 + 8 + 8 + 4 + 4 + 8 + n * d * 8;
  ASSERT_LT(labels_off + 8, bytes.size());
  const std::int64_t bogus = 1'000'000;
  std::memcpy(bytes.data() + labels_off, &bogus, 8);
  fix_checksum(bytes);
  write_file(p, bytes);

  auto r = serve::load_model(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotTest, BadCoreFlagIsRejectedEvenWithValidChecksum) {
  const auto snap = make_snapshot();
  const std::string p = path("badcore.udbm");
  ASSERT_TRUE(serve::save_model(snap, p).ok());
  auto bytes = read_file(p);

  const std::size_t n = snap.data.size(), d = snap.data.dim();
  const std::size_t core_off =
      16 + 8 + 8 + 8 + 4 + 4 + 8 + n * d * 8 + n * 8;
  ASSERT_LT(core_off, bytes.size());
  bytes[core_off] = 7;  // core flags must be exactly 0 or 1
  fix_checksum(bytes);
  write_file(p, bytes);

  auto r = serve::load_model(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(SnapshotTest, InconsistentSnapshotRefusesToSave) {
  auto snap = make_snapshot();
  snap.result.label.pop_back();  // label array no longer sized to the data
  auto st = serve::save_model(snap, path("inconsistent.udbm"));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, FailedSaveLeavesExistingFileIntact) {
  const auto snap = make_snapshot();
  const std::string p = path("keep.udbm");
  ASSERT_TRUE(serve::save_model(snap, p).ok());
  const auto before = read_file(p);

  auto bad = snap;
  bad.result.is_core.pop_back();
  ASSERT_FALSE(serve::save_model(bad, p).ok());
  EXPECT_EQ(read_file(p), before);  // atomic tmp+rename: no partial overwrite
}

TEST_F(SnapshotTest, UnwritablePathFailsCleanly) {
  auto st = serve::save_model(make_snapshot(),
                              "/nonexistent_dir_udb/model.udbm");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST_F(SnapshotTest, StaleTmpFromACrashedSaveIsOverwritten) {
  // A process that died between write and rename leaves `<path>.tmp` behind.
  // The next save must clobber it, succeed, and leave no tmp residue.
  const auto snap = make_snapshot();
  const std::string p = path("staletmp.udbm");
  write_file(p + ".tmp", {0xDE, 0xAD, 0xBE, 0xEF});

  ASSERT_TRUE(serve::save_model(snap, p).ok());
  auto loaded = serve::load_model(p);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  std::ifstream residue(p + ".tmp", std::ios::binary);
  EXPECT_FALSE(residue.good());  // consumed by the rename
}

TEST_F(SnapshotTest, BlockedTmpWriteLeavesPreviousModelServing) {
  // Force the tmp-file write itself to fail (its path is a directory): the
  // save reports INTERNAL and the previously saved model under the final
  // name is untouched and still loads.
  const auto snap = make_snapshot();
  const std::string p = path("blockedtmp.udbm");
  ASSERT_TRUE(serve::save_model(snap, p).ok());
  const auto before = read_file(p);

  ASSERT_TRUE(std::filesystem::create_directory(p + ".tmp"));
  auto st = serve::save_model(snap, p);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(read_file(p), before);
  EXPECT_TRUE(serve::load_model(p).ok());
  std::filesystem::remove(p + ".tmp");
}

TEST_F(SnapshotTest, ShortWriteNeverSurfacesUnderTheFinalName) {
  // Simulated crash mid-write: only a prefix of the snapshot made it to the
  // tmp file before the process died. The final name still serves the old
  // model; the short tmp is itself rejected cleanly if someone loads it.
  const auto snap = make_snapshot();
  const std::string p = path("shortwrite.udbm");
  ASSERT_TRUE(serve::save_model(snap, p).ok());
  const auto good = read_file(p);

  std::vector<std::uint8_t> prefix(good.begin(),
                                   good.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           good.size() / 3));
  write_file(p + ".tmp", prefix);

  EXPECT_EQ(read_file(p), good);
  ASSERT_TRUE(serve::load_model(p).ok());
  auto short_load = serve::load_model(p + ".tmp");
  ASSERT_FALSE(short_load.ok());
  EXPECT_EQ(short_load.status().code(), StatusCode::kDataLoss);
  std::remove((p + ".tmp").c_str());
}

}  // namespace
}  // namespace udb
