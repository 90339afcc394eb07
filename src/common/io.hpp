// Dataset serialization: a simple whitespace/comma CSV reader-writer for
// interoperability, and a compact binary format (magic, dim, count, raw
// doubles) for large benchmark inputs.

#pragma once

#include <string>

#include "common/dataset.hpp"
#include "common/status.hpp"

namespace udb {

// Writers go through vfs::write_file_atomic (tmp, fsync, rename, fsync dir):
// a crash or full disk mid-write never leaves a torn file under `path`.
// Failures come back as the VFS's Status (RESOURCE_EXHAUSTED on ENOSPC,
// DATA_LOSS on fsync failure, INTERNAL otherwise).
//
// CSV: one point per line, coordinates separated by ',' (17 significant
// digits, so a round trip is bit-exact).
[[nodiscard]] Status write_csv(const Dataset& ds, const std::string& path);

// Binary: little-endian, header "UDB1" + u64 dim + u64 count + doubles.
[[nodiscard]] Status write_binary(const Dataset& ds, const std::string& path);

// ---- Status-based loaders with quarantine (docs/ROBUSTNESS.md) -----------
//
// load_csv/load_binary are the one reader of each format: every failure
// comes back as a Status (NOT_FOUND for a missing file, DATA_LOSS for
// malformed content), never an exception. CSV lines starting with '#' are
// skipped, and coordinates may be separated by ',' or whitespace. With
// `quarantine` set, a bad row — non-finite coordinate, unparseable token,
// wrong arity, or a truncated binary tail — is skipped and counted rather
// than fatal; the load still fails (DATA_LOSS) when more than
// `max_skip_fraction` of the rows had to be dropped, because at that point
// the file is garbage, not a file with a few bad rows.

struct ReadOptions {
  bool quarantine = false;
  double max_skip_fraction = 0.01;  // of total rows seen; only in quarantine
};

struct ReadReport {
  std::size_t rows_read = 0;     // rows accepted into the dataset
  std::size_t rows_skipped = 0;  // rows quarantined (0 unless quarantine)
};

[[nodiscard]] StatusOr<Dataset> load_csv(const std::string& path,
                                         const ReadOptions& opts = {},
                                         ReadReport* report = nullptr);
[[nodiscard]] StatusOr<Dataset> load_binary(const std::string& path,
                                            const ReadOptions& opts = {},
                                            ReadReport* report = nullptr);

}  // namespace udb
