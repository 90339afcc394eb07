// Byte-format pins: each persisted format is written from fixed content and
// its size and CRC-32 are compared with the values the formats had when they
// were frozen (UDB1 dataset in both encodings, UDBM snapshot, UDBC spill,
// MANIFEST, WAL). A codec refactor that moves a single byte fails here, which
// is what keeps files written by older builds loadable.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/io.hpp"
#include "common/vfs.hpp"
#include "core/wal.hpp"
#include "dist/checkpoint.hpp"
#include "serve/snapshot.hpp"
#include "serve/snapstore.hpp"

namespace udb {
namespace {

class FormatBytesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("udb_format_bytes_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  // Size and CRC-32 of the file at `name` must match the frozen values.
  void expect_pinned(const std::string& name, std::size_t size,
                     std::uint32_t crc) const {
    auto bytes = vfs::read_file(path(name));
    ASSERT_TRUE(bytes.ok()) << name << ": " << bytes.status().to_string();
    EXPECT_EQ(bytes->size(), size) << name;
    EXPECT_EQ(crc32(bytes->data(), bytes->size()), crc) << name;
  }

  static Dataset fixed_dataset() {
    return Dataset(2, {1.5, -0.0, 3.25, 1e-300, -7.0, 42.0, 0.1, -2.5});
  }

  static serve::ModelSnapshot fixed_snapshot() {
    serve::ModelSnapshot snap;
    snap.data = fixed_dataset();
    snap.params = DbscanParams{2.0, 2};
    snap.result.label = {0, 0, -1, 1};
    snap.result.is_core = {1, 0, 0, 1};
    snap.two_eps_rule = true;
    snap.report_json = "{\"tool\":\"golden\"}";
    return snap;
  }

  std::filesystem::path dir_;
};

TEST_F(FormatBytesTest, DatasetEncodingsArePinned) {
  ASSERT_TRUE(write_binary(fixed_dataset(), path("data.bin")).ok());
  ASSERT_TRUE(write_csv(fixed_dataset(), path("data.csv")).ok());
  expect_pinned("data.bin", 84, 0xD993BFA2u);
  expect_pinned("data.csv", 50, 0x63D93B6Fu);
}

TEST_F(FormatBytesTest, ModelSnapshotIsPinned) {
  ASSERT_TRUE(serve::save_model(fixed_snapshot(), path("model.udbm")).ok());
  expect_pinned("model.udbm", 181, 0x79A28E84u);
}

TEST_F(FormatBytesTest, CheckpointSpillIsPinned) {
  CheckpointStore store(2);
  store.partition(0) = PartitionCkpt{true, {1.0, 2.0, 3.0, 4.0}, {7, 9}};
  store.halo(0) = HaloCkpt{true, {5.0, 6.0}, {11}, {1}};
  store.local(1) = LocalCkpt{true, {0, 0, 2}, {1, 0, 1}, {1, 1, 0}};
  ASSERT_TRUE(store.save_to(path("spill.udbc")).ok());
  expect_pinned("spill.udbc", 252, 0x91C4AAD0u);
}

TEST_F(FormatBytesTest, ManifestIsPinned) {
  auto store = serve::SnapshotStore::open(path("store"));
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  ASSERT_TRUE(store->save(fixed_snapshot()).ok());
  expect_pinned("store/MANIFEST", 20, 0x2144DF1Cu);
}

TEST_F(FormatBytesTest, WalIsPinned) {
  WalConfig cfg;
  cfg.sync_each_append = false;
  auto w = WalWriter::open(path("log.wal"), 2, cfg);
  ASSERT_TRUE(w.ok()) << w.status().to_string();
  const std::vector<double> inserts = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> tombstone = {-0.0, 2.0};
  const std::vector<double> more = {5.5, -6.5};
  ASSERT_TRUE(w->reset(7).ok());
  ASSERT_TRUE(w->append(0, inserts).ok());
  ASSERT_TRUE(w->append_delete(tombstone).ok());
  ASSERT_TRUE(w->append(2, more).ok());
  ASSERT_TRUE(w->close().ok());
  expect_pinned("log.wal", 163, 0xA6DF8252u);
}

}  // namespace
}  // namespace udb
