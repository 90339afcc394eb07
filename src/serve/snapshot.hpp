// Model snapshot persistence (docs/SERVING.md): a versioned, checksummed
// binary format that captures everything needed to serve a fitted µDBSCAN
// model — the dataset, the density parameters, the exact clustering (labels +
// core flags), the engine knobs that make the µR-tree rebuild deterministic,
// and optionally the run's obs report JSON for provenance.
//
// The µR-tree itself is NOT serialized: its construction (Algorithm 3) is a
// deterministic function of (dataset order, eps, two_eps_rule), so
// load_model + ClusterModel reproduce the exact same index the fitting run
// used, at a fraction of the format complexity and with no cross-version
// pointer-layout hazards.
//
// Loading follows the quarantine-loader discipline (common/io.*): every
// failure — missing file, wrong magic, unsupported version, truncation, bit
// flips (payload checksum), or semantically invalid content — comes back as a
// clean Status (NOT_FOUND / DATA_LOSS), never a crash and never a partially
// constructed model.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/dataset.hpp"
#include "common/status.hpp"
#include "metrics/clustering.hpp"

namespace udb::serve {

// Format constants (layout table in docs/SERVING.md).
inline constexpr char kSnapshotMagic[4] = {'U', 'D', 'B', 'M'};
inline constexpr std::uint32_t kSnapshotVersion = 2;

struct ModelSnapshot {
  Dataset data;
  DbscanParams params;
  ClusteringResult result;

  // Engine knob that shapes the µR-tree; persisted so the serving index is
  // bit-identical to the fitting run's (exactness does not depend on them,
  // query cost does).
  bool two_eps_rule = true;

  // Optional provenance: the obs run report of the fitting run, embedded
  // verbatim (empty = none).
  std::string report_json;
};

// In-memory codec halves, shared by save/load and by the generation store
// (serve/snapstore.*) which owns its own file naming and fsync discipline.
// serialize_model fails with INVALID_ARGUMENT on an inconsistent snapshot
// (label/core arrays not sized to the dataset); parse_model fails with
// DATA_LOSS for anything malformed (`origin` names the source in messages).
[[nodiscard]] StatusOr<std::vector<std::uint8_t>> serialize_model(
    const ModelSnapshot& snap);
[[nodiscard]] StatusOr<ModelSnapshot> parse_model(
    std::span<const std::uint8_t> bytes, const std::string& origin);

// Serializes and writes the snapshot through the VFS with the full crash-safe
// discipline: write `path`.tmp, fsync, rename over `path`, fsync the parent
// directory (common/vfs.*). Fails with INVALID_ARGUMENT on an inconsistent
// snapshot, RESOURCE_EXHAUSTED on ENOSPC, DATA_LOSS on fsync failure and
// INTERNAL on other I/O errors; a failed save never leaves a half-written
// file at `path` and never damages a previous snapshot there.
[[nodiscard]] Status save_model(const ModelSnapshot& snap,
                                const std::string& path);

// Reads and validates a snapshot. NOT_FOUND if the file cannot be opened;
// DATA_LOSS for anything malformed: bad magic, unsupported version, size
// mismatch (truncated or padded), checksum mismatch, or content that fails
// validation (non-finite coordinates, out-of-range labels, core flags other
// than 0/1, core points labeled noise).
[[nodiscard]] StatusOr<ModelSnapshot> load_model(const std::string& path);

}  // namespace udb::serve
