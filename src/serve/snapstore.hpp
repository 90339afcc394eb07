// SnapshotStore — a crash-safe, generation-based home for served models
// (docs/ROBUSTNESS.md §Durability, docs/SERVING.md).
//
// A single snapshot file with tmp+rename is atomic but has one generation of
// history: a save that succeeds durably and is then bit-rotted (or a torn
// rename on a non-atomic filesystem) leaves nothing to serve. The store keeps
// a bounded window of *generations*:
//
//   <dir>/gen-000001.udbm      numbered UDBM snapshots (serve/snapshot.*)
//   <dir>/gen-000002.udbm
//   <dir>/MANIFEST             current generation, CRC-framed, replaced last
//
// Save discipline (every step through common/vfs.*, so injected faults and
// crash points exercise it):
//   1. serialize; write gen-N.udbm.tmp, fsync, rename, fsync dir
//   2. write MANIFEST.tmp naming N, fsync, rename, fsync dir
//   3. prune generations older than the newest `keep` (best effort)
// A failure at any step leaves every previous generation intact — the store
// never opens an existing generation file for writing, ever.
//
// Load discipline: the MANIFEST names the generation to serve; if the
// manifest or its generation is missing/corrupt (CRC or codec rejection),
// load_latest falls back to the newest *intact* numbered generation on disk.
// Every outcome is a clean Status: serving only fails when no intact
// generation exists at all.
//
// recover_stream composes the store with the write-ahead log (core/wal.*):
// newest intact generation seeds an IncrementalMuDbscan, the WAL's committed
// records replay on top — the restart path that makes streaming ingest
// durable (tools/crashharness asserts the result is bit-identical to
// fit-from-scratch over the recovered prefix).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "serve/snapshot.hpp"

namespace udb {
class IncrementalMuDbscan;
class RunGuard;
}  // namespace udb

namespace udb::serve {

struct SnapshotStoreConfig {
  std::size_t keep = 3;  // newest generations retained (>= 1)
};

class SnapshotStore {
 public:
  // Creates `dir` (mkdir -p) if needed and validates the config.
  [[nodiscard]] static StatusOr<SnapshotStore> open(
      const std::string& dir, SnapshotStoreConfig cfg = {});

  // Persists `snap` as the next generation and points the manifest at it.
  // Returns the new generation number. On failure (ENOSPC ->
  // RESOURCE_EXHAUSTED, fsync -> DATA_LOSS, else INTERNAL/INVALID_ARGUMENT)
  // no previous generation is damaged and the manifest still names the last
  // successfully published one.
  [[nodiscard]] StatusOr<std::uint64_t> save(const ModelSnapshot& snap);

  // Loads the manifest's generation, falling back to the newest intact
  // numbered generation when the manifest or its file is missing or corrupt.
  // NOT_FOUND only when no intact generation exists. `gen_out` (optional)
  // receives the generation that was served.
  [[nodiscard]] StatusOr<ModelSnapshot> load_latest(
      std::uint64_t* gen_out = nullptr) const;

  // Numbered generations present on disk, ascending (intact or not).
  [[nodiscard]] StatusOr<std::vector<std::uint64_t>> generations() const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::string generation_path(std::uint64_t gen) const;

 private:
  SnapshotStore(std::string dir, SnapshotStoreConfig cfg)
      : dir_(std::move(dir)), cfg_(cfg) {}

  std::string dir_;
  SnapshotStoreConfig cfg_;
};

// ---- WAL-backed streaming recovery ----------------------------------------

struct RecoveredStream {
  std::unique_ptr<IncrementalMuDbscan> engine;
  std::uint64_t generation = 0;    // 0: no snapshot generation found
  std::size_t snapshot_points = 0; // points seeded from the snapshot
  std::uint64_t wal_records = 0;   // committed WAL records replayed
  std::size_t wal_points = 0;      // points inserted from the WAL
  std::size_t wal_deletes = 0;     // points erased by WAL tombstones
  std::uint64_t wal_torn_bytes = 0;  // uncommitted tail dropped by replay
  // The log's header epoch named a different snapshot generation than the one
  // that loaded, so its records (which include deletes or an epoch stamp)
  // could not be aligned and were skipped wholesale.
  bool wal_epoch_mismatch = false;
};

// Rebuilds the pre-crash streaming state: newest intact snapshot generation
// (if any) re-ingested in insertion order, then the WAL's committed records
// replayed on top. A missing store/WAL is not an error — recovery from
// nothing is an empty stream. Snapshot params/dim must match `params`/`dim`
// (INVALID_ARGUMENT otherwise: the WAL and store describe one model).
//
// Insert-only epoch-0 logs self-align against the snapshot by stream start
// index (skip covered records, stop at a gap). Logs carrying tombstones or a
// non-zero epoch stamp cannot be realigned that way — a delete only makes
// sense against the exact state it was logged on — so they replay in full,
// in record order, iff the log's epoch equals the loaded generation, and are
// skipped wholesale otherwise (wal_epoch_mismatch; see
// docs/ROBUSTNESS.md §Deletes).
[[nodiscard]] StatusOr<RecoveredStream> recover_stream(
    const SnapshotStore& store, const std::string& wal_path, std::size_t dim,
    const DbscanParams& params, RunGuard* guard = nullptr);

}  // namespace udb::serve
