// Write-ahead log for streaming ingest (docs/ROBUSTNESS.md §Durability).
//
// IncrementalMuDbscan keeps everything in memory; a crash between snapshot
// publishes loses every chunk ingested since the last one. The WAL closes
// that hole with the classic discipline:
//
//   ingest chunk  ->  append CRC-framed record (+ fsync)  ->  insert in RAM
//   publish snapshot generation  ->  reset() the WAL to empty
//   restart  ->  load newest intact generation, replay the WAL on top
//                (serve::recover_stream)
//
// Format (little-endian, all through common/vfs.* so fault injection and
// crash points cover every byte):
//
//   header   magic "UDBW" | u32 version | u64 dim | u64 epoch   (24 bytes)
//   record   u32 payload_len | u32 crc32(payload) | payload
//   payload  u8 type | u64 start_index | u64 count | count*dim f64 coords
//
// Record types: 0 = insert (count ingested points starting at start_index),
// 1 = tombstone (count deleted points, matched during replay by bitwise
// coordinate equality — see IncrementalMuDbscan::erase_equal; start_index is
// written as 0 and ignored). The header epoch ties a log to the snapshot
// generation it extends: reset(generation) stamps it, and recovery replays
// tombstone-bearing logs only when the epoch matches the loaded generation
// (docs/ROBUSTNESS.md §Deletes). Any other header version (the untyped v1
// format included) is DATA_LOSS for both the reader and the writer.
//
// start_index is the stream insertion index of an insert record's first
// point.
// It makes recovery self-aligning across the publish/reset race: a crash
// after the snapshot generation publishes but before reset() leaves records
// the snapshot already covers — replay skips any point below the snapshot's
// count instead of double-ingesting it, and stops cleanly at a gap (which
// appears when a corrupt newest generation forces fallback to an older one).
//
// A record is *committed* once fully on disk (the append fsyncs by default).
// Replay accepts the longest valid prefix and reports the torn tail a crash
// mid-append leaves behind — those points were never acknowledged as durable,
// so dropping them keeps recovery an exact prefix of the ingestion sequence.
// Appended bytes are charged to the RunGuard memory budget (the WAL is part
// of the run's footprint; an unbounded log would defeat the budget's point).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/runguard.hpp"
#include "common/status.hpp"
#include "common/vfs.hpp"

namespace udb {

inline constexpr char kWalMagic[4] = {'U', 'D', 'B', 'W'};
inline constexpr std::uint32_t kWalVersion = 2;
inline constexpr std::size_t kWalHeaderBytes = 4 + 4 + 8 + 8;

enum class WalRecordType : std::uint8_t { kInsert = 0, kTombstone = 1 };

struct WalConfig {
  RunGuard* guard = nullptr;  // not owned; charged for appended bytes
};

class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&&) noexcept;
  WalWriter& operator=(WalWriter&&) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  // Creates the log (header only) if missing. An existing log must carry a
  // matching header (DATA_LOSS otherwise); a torn tail from a previous crash
  // is cut back to the committed prefix (atomic rewrite) before appending
  // resumes, so new records always extend valid ones.
  [[nodiscard]] static StatusOr<WalWriter> open(const std::string& path,
                                                std::size_t dim,
                                                WalConfig cfg = {});

  // Appends one record of coords.size()/dim points starting at stream index
  // `start_index` (coords.size() must be a non-zero multiple of dim; all
  // values finite; within one log the records must be contiguous —
  // start_index == previous start + previous count). RESOURCE_EXHAUSTED if
  // the RunGuard budget cannot absorb the record *before* anything is
  // written.
  [[nodiscard]] Status append(std::uint64_t start_index,
                              std::span<const double> coords);

  // Appends one tombstone record of coords.size()/dim deleted points
  // (bitwise coordinates of the points to erase on replay; non-finite values
  // allowed — a tombstone must be able to name whatever was ingested).
  // Tombstones sit outside the insert contiguity chain: next_start() does
  // not advance.
  [[nodiscard]] Status append_delete(std::span<const double> coords);

  [[nodiscard]] Status sync();

  // Truncates the log to header-only (atomic rewrite + fsync) — called right
  // after a snapshot generation publishes, making the snapshot the new
  // durability floor — and stamps the header with that generation's epoch.
  // Releases the records' budget charge.
  [[nodiscard]] Status reset(std::uint64_t epoch = 0);

  [[nodiscard]] Status close();

  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  // Stream index the next record must start at (meaningful once the log
  // holds at least one record).
  [[nodiscard]] std::uint64_t next_start() const noexcept {
    return next_start_;
  }
  // Snapshot generation this log extends (0 until reset() stamps one).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  void release_charge() noexcept;
  [[nodiscard]] Status emit_record(WalRecordType type,
                                   std::uint64_t start_index,
                                   std::span<const double> coords);

  std::string path_;
  std::size_t dim_ = 0;
  WalConfig cfg_;
  vfs::File file_;  // owned append handle
  std::uint64_t records_ = 0;
  std::uint64_t insert_records_ = 0;  // records of type kInsert
  std::uint64_t bytes_ = 0;          // total file bytes incl. header
  std::uint64_t next_start_ = 0;     // contiguity check for append
  std::uint64_t epoch_ = 0;          // header epoch (snapshot generation)
  std::size_t charged_bytes_ = 0;    // currently charged to cfg_.guard
  bool open_ = false;
};

struct WalReplay {
  std::size_t dim = 0;
  std::vector<double> coords;           // committed points, append order
  std::vector<std::uint64_t> starts;    // per-record stream start index
  std::vector<std::uint64_t> counts;    // per-record point count
  std::vector<std::uint8_t> types;      // per-record WalRecordType
  std::uint64_t epoch = 0;              // header epoch
  std::uint64_t records = 0;            // committed records accepted
  std::uint64_t torn_bytes = 0;  // uncommitted tail dropped (crash artifact)

  // All committed coordinate rows, insert and tombstone records combined.
  [[nodiscard]] std::size_t points() const noexcept {
    return dim == 0 ? 0 : coords.size() / dim;
  }
  [[nodiscard]] bool has_tombstones() const noexcept {
    for (const std::uint8_t t : types)
      if (t == static_cast<std::uint8_t>(WalRecordType::kTombstone))
        return true;
    return false;
  }
};

// Reads the longest committed prefix. NOT_FOUND if the file does not exist
// (callers treat that as an empty log); DATA_LOSS if the header itself is
// unreadable or disagrees with `expected_dim` (0 accepts any dim). A torn or
// corrupt record, or one WalWriter could not have written (bad framing, an
// insert with a non-finite coordinate), ends the replay cleanly — everything
// before it is returned, the tail is counted in torn_bytes.
[[nodiscard]] StatusOr<WalReplay> replay_wal(const std::string& path,
                                             std::size_t expected_dim = 0);

}  // namespace udb
