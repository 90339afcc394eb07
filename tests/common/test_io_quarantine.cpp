// Status-based loaders (load_csv / load_binary) and their quarantine mode:
// bad rows are skipped and counted rather than fatal, and the load fails via
// Status — never an exception — once too large a fraction of the file is bad.

#include "common/io.hpp"

#include <gtest/gtest.h>

#include "common/vfs.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

namespace udb {
namespace {

class IoQuarantineTest : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    return ::testing::TempDir() + "udb_ioq_" + name;
  }
  void write_file(const std::string& p, const std::string& content) {
    std::ofstream out(p, std::ios::binary);
    out << content;
  }
};

TEST_F(IoQuarantineTest, MissingFileIsNotFound) {
  auto r = load_csv(path("nope.csv"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  auto rb = load_binary(path("nope.bin"));
  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kNotFound);
}

TEST_F(IoQuarantineTest, CleanCsvLoads) {
  const std::string p = path("clean.csv");
  write_file(p, "# header\n1,2\n3,4\n5,6\n");
  ReadReport rep;
  auto r = load_csv(p, {}, &rep);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->size(), 3u);
  EXPECT_EQ(r->dim(), 2u);
  EXPECT_EQ(rep.rows_read, 3u);
  EXPECT_EQ(rep.rows_skipped, 0u);
}

TEST_F(IoQuarantineTest, BadRowWithoutQuarantineIsDataLoss) {
  const std::string p = path("bad.csv");
  write_file(p, "1,2\nnan,4\n5,6\n");
  auto r = load_csv(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST_F(IoQuarantineTest, QuarantineSkipsAndReports) {
  const std::string p = path("mixed.csv");
  std::string content;
  for (int i = 0; i < 100; ++i)
    content += std::to_string(i) + "," + std::to_string(i) + "\n";
  content += "nan,1\n";     // non-finite
  content += "1\n";          // short row
  content += "1,2,3\n";      // long row
  write_file(p, content);
  ReadOptions opts;
  opts.quarantine = true;
  opts.max_skip_fraction = 0.05;
  ReadReport rep;
  auto r = load_csv(p, opts, &rep);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->size(), 100u);
  EXPECT_EQ(rep.rows_read, 100u);
  EXPECT_EQ(rep.rows_skipped, 3u);
}

TEST_F(IoQuarantineTest, QuarantineFailsAboveSkipFraction) {
  const std::string p = path("mostly_bad.csv");
  write_file(p, "1,2\nnan,1\nnan,2\nnan,3\n");
  ReadOptions opts;
  opts.quarantine = true;
  opts.max_skip_fraction = 0.5;
  auto r = load_csv(p, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("quarantined"), std::string::npos);
}

TEST_F(IoQuarantineTest, AllRowsBadIsDataLossEvenInQuarantine) {
  const std::string p = path("all_bad.csv");
  write_file(p, "nan,1\nx,y\n");
  ReadOptions opts;
  opts.quarantine = true;
  opts.max_skip_fraction = 1.0;
  auto r = load_csv(p, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(IoQuarantineTest, BinaryRoundTripsThroughLoader) {
  const std::string p = path("round.bin");
  Dataset ds(2, {1.0, 2.0, 3.0, 4.0});
  ASSERT_TRUE(write_binary(ds, p).ok());
  ReadReport rep;
  auto r = load_binary(p, {}, &rep);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(r->raw(), ds.raw());
  EXPECT_EQ(rep.rows_read, 2u);
}

TEST_F(IoQuarantineTest, BinaryBadMagicIsDataLoss) {
  const std::string p = path("magic.bin");
  write_file(p, "XXXXGARBAGE");
  auto r = load_binary(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST_F(IoQuarantineTest, BinaryTruncatedTailQuarantines) {
  const std::string p = path("trunc.bin");
  Dataset ds(2, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  ASSERT_TRUE(write_binary(ds, p).ok());
  // Chop the last row in half: 3 rows promised, 2.5 present.
  std::string bytes;
  {
    std::ifstream in(p, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes.resize(bytes.size() - sizeof(double));
  write_file(p, bytes);

  auto strict = load_binary(p);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);

  ReadOptions opts;
  opts.quarantine = true;
  opts.max_skip_fraction = 0.5;
  ReadReport rep;
  auto r = load_binary(p, opts, &rep);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->size(), 2u);
  EXPECT_EQ(rep.rows_skipped, 1u);
}

TEST_F(IoQuarantineTest, BinaryNonFiniteRowQuarantines) {
  const std::string p = path("nonfinite.bin");
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> coords;
  for (int i = 0; i < 50; ++i) {
    coords.push_back(static_cast<double>(i));
    coords.push_back(1.0);
  }
  coords[21] = inf;  // poison row 10
  ASSERT_TRUE(write_binary(Dataset(2, std::move(coords)), p).ok());

  auto strict = load_binary(p);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);

  ReadOptions opts;
  opts.quarantine = true;
  opts.max_skip_fraction = 0.05;
  ReadReport rep;
  auto r = load_binary(p, opts, &rep);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r->size(), 49u);
  EXPECT_EQ(rep.rows_skipped, 1u);
}

TEST_F(IoQuarantineTest, InjectedShortReadIsInvisibleToTheLoaders) {
  // The loaders go through the VFS, which retries short reads — a flaky disk
  // that returns partial chunks must not change what gets loaded.
  const std::string pb = path("shortread.bin");
  const std::string pc = path("shortread.csv");
  Dataset ds(2, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  ASSERT_TRUE(write_binary(ds, pb).ok());
  write_file(pc, "1,2\n3,4\n5,6\n");

  vfs::IoFaultPlan plan;
  plan.short_read_rate = 1.0;
  plan.seed = 5;
  vfs::reset_io_fault_state();
  vfs::install_io_fault_plan(&plan);
  auto rb = load_binary(pb);
  auto rc = load_csv(pc);
  vfs::install_io_fault_plan(nullptr);
  vfs::reset_io_fault_state();

  ASSERT_TRUE(rb.ok()) << rb.status().to_string();
  EXPECT_EQ(rb->raw(), ds.raw());
  ASSERT_TRUE(rc.ok()) << rc.status().to_string();
  EXPECT_EQ(rc->raw(), ds.raw());
}

TEST_F(IoQuarantineTest, InjectedHardTruncationIsCleanDataLoss) {
  // A hard truncation (the file "ends" mid-read) must come back as a clean
  // Status from both loaders — the short-file regression the quarantine
  // discipline exists for. Binary promises a row count up front, so a
  // shortened image is DATA_LOSS; it must never crash or return bogus rows.
  const std::string pb = path("hardtrunc.bin");
  Dataset ds(2, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  ASSERT_TRUE(write_binary(ds, pb).ok());

  vfs::IoFaultPlan plan;
  plan.read_truncate_rate = 1.0;
  vfs::reset_io_fault_state();
  vfs::install_io_fault_plan(&plan);
  auto rb = load_binary(pb);
  vfs::install_io_fault_plan(nullptr);
  vfs::reset_io_fault_state();

  ASSERT_FALSE(rb.ok());
  EXPECT_EQ(rb.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace udb
