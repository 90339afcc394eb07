#include "common/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "data/generators.hpp"

namespace udb {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("udb_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, CsvRoundTrip) {
  Dataset ds = gen_uniform(50, 3, -10.0, 10.0, 1);
  ASSERT_TRUE(write_csv(ds, path("a.csv")).ok());
  auto back = load_csv(path("a.csv"));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  ASSERT_EQ(back->size(), ds.size());
  ASSERT_EQ(back->dim(), ds.dim());
  // 17 significant digits: the text round trip is bit-exact.
  EXPECT_EQ(back->raw(), ds.raw());
}

TEST_F(IoTest, CsvAcceptsWhitespaceAndComments) {
  std::ofstream out(path("b.csv"));
  out << "# header comment\n1.0 2.0\n\n3.0,4.0\n";
  out.close();
  auto ds = load_csv(path("b.csv"));
  ASSERT_TRUE(ds.ok()) << ds.status().to_string();
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->dim(), 2u);
  EXPECT_EQ(ds->coord(1, 1), 4.0);
}

TEST_F(IoTest, CsvRejectsInconsistentDim) {
  std::ofstream out(path("c.csv"));
  out << "1,2\n3,4,5\n";
  out.close();
  EXPECT_EQ(load_csv(path("c.csv")).status().code(), StatusCode::kDataLoss);
}

TEST_F(IoTest, CsvRejectsMissingFile) {
  EXPECT_EQ(load_csv(path("nope.csv")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(IoTest, CsvRejectsEmptyFile) {
  std::ofstream(path("empty.csv")).close();
  EXPECT_EQ(load_csv(path("empty.csv")).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(IoTest, BinaryRoundTripBitExact) {
  Dataset ds = gen_blobs(200, 5, 3, 100.0, 2.0, 0.1, 7);
  ASSERT_TRUE(write_binary(ds, path("a.bin")).ok());
  auto back = load_binary(path("a.bin"));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->dim(), ds.dim());
  EXPECT_EQ(back->raw(), ds.raw());
}

TEST_F(IoTest, BinaryRejectsBadMagic) {
  std::ofstream out(path("bad.bin"), std::ios::binary);
  out << "XXXXGARBAGE";
  out.close();
  EXPECT_EQ(load_binary(path("bad.bin")).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(IoTest, BinaryRejectsTruncation) {
  Dataset ds = gen_uniform(100, 2, 0.0, 1.0, 3);
  ASSERT_TRUE(write_binary(ds, path("t.bin")).ok());
  std::filesystem::resize_file(path("t.bin"), 64);
  EXPECT_EQ(load_binary(path("t.bin")).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(IoTest, CsvRejectsNonFiniteValues) {
  std::ofstream out(path("nf.csv"));
  out << "1.0,2.0\nnan,4.0\n";
  out.close();
  EXPECT_EQ(load_csv(path("nf.csv")).status().code(), StatusCode::kDataLoss);
  std::ofstream out2(path("inf.csv"));
  out2 << "1.0,inf\n";
  out2.close();
  EXPECT_EQ(load_csv(path("inf.csv")).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(IoTest, BinaryRejectsOverflowingHeader) {
  // dim * count * sizeof(double) overflows size_t: DATA_LOSS, not an
  // allocation.
  std::ofstream out(path("ovf.bin"), std::ios::binary);
  out.write("UDB1", 4);
  const std::uint64_t dim = std::uint64_t{1} << 62;
  const std::uint64_t count = 16;
  out.write(reinterpret_cast<const char*>(&dim), sizeof dim);
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  out.close();
  EXPECT_EQ(load_binary(path("ovf.bin")).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(IoTest, BinaryRejectsHeaderLargerThanFile) {
  // Plausible (non-overflowing) header advertising far more payload than the
  // file holds: rejected against the actual file size, before allocation.
  std::ofstream out(path("big.bin"), std::ios::binary);
  out.write("UDB1", 4);
  const std::uint64_t dim = 3;
  const std::uint64_t count = 1000000;
  out.write(reinterpret_cast<const char*>(&dim), sizeof dim);
  out.write(reinterpret_cast<const char*>(&count), sizeof count);
  const double few[6] = {1, 2, 3, 4, 5, 6};
  out.write(reinterpret_cast<const char*>(few), sizeof few);
  out.close();
  EXPECT_EQ(load_binary(path("big.bin")).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(IoTest, BinaryEmptyDatasetRoundTrip) {
  Dataset ds = Dataset::empty(4);
  ASSERT_TRUE(write_binary(ds, path("e.bin")).ok());
  auto back = load_binary(path("e.bin"));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back->size(), 0u);
  EXPECT_EQ(back->dim(), 4u);
}

}  // namespace
}  // namespace udb
