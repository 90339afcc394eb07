#include "serve/snapstore.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "common/crc32.hpp"
#include "common/runguard.hpp"
#include "common/vfs.hpp"
#include "core/incremental.hpp"
#include "core/wal.hpp"

namespace udb::serve {

namespace {

// MANIFEST: magic "UDBG" | u32 version | u64 generation | u32 crc32(first 16
// bytes). Tiny on purpose — it fits one sector, so its tmp+rename replace is
// atomic on anything resembling a real filesystem.
constexpr char kManifestMagic[4] = {'U', 'D', 'B', 'G'};
constexpr std::uint32_t kManifestVersion = 1;
constexpr const char* kManifestName = "MANIFEST";
constexpr std::size_t kManifestBytes = 4 + 4 + 8 + 4;

std::string gen_name(std::uint64_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "gen-%06llu.udbm",
                static_cast<unsigned long long>(gen));
  return buf;
}

bool parse_gen_name(const std::string& name, std::uint64_t* gen) {
  constexpr const char* kPrefix = "gen-";
  constexpr const char* kSuffix = ".udbm";
  if (name.size() <= 4 + 5 || name.compare(0, 4, kPrefix) != 0 ||
      name.compare(name.size() - 5, 5, kSuffix) != 0)
    return false;
  std::uint64_t g = 0;
  for (std::size_t i = 4; i < name.size() - 5; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    if (g > (std::uint64_t{0} - 1) / 10) return false;
    g = g * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *gen = g;
  return g != 0;
}

std::vector<std::uint8_t> encode_manifest(std::uint64_t gen) {
  ByteWriter w;
  w.raw(kManifestMagic, sizeof kManifestMagic);
  w.u32(kManifestVersion);
  w.u64(gen);
  w.u32(crc32(w.data().data(), w.size()));
  return w.take();
}

StatusOr<std::uint64_t> read_manifest(const std::string& path) {
  auto bytes = vfs::read_file(path);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() != kManifestBytes)
    return DataLossError("snapstore: manifest " + path + " has " +
                         std::to_string(bytes->size()) + " bytes, expected " +
                         std::to_string(kManifestBytes));
  ByteReader r{std::span<const std::uint8_t>(*bytes)};
  if (Status s = read_magic_version(r, kManifestMagic, kManifestVersion,
                                    "snapstore: manifest " + path);
      !s.ok())
    return s;
  std::uint32_t stored_crc = 0;
  std::uint64_t gen = 0;
  (void)r.u64(gen);  // in range: the size was checked above
  (void)r.u32(stored_crc);
  if (crc32(bytes->data(), kManifestBytes - 4) != stored_crc)
    return DataLossError("snapstore: manifest " + path +
                         " fails its checksum — corrupted");
  if (gen == 0)
    return DataLossError("snapstore: manifest " + path +
                         " names generation 0");
  return gen;
}

}  // namespace

StatusOr<SnapshotStore> SnapshotStore::open(const std::string& dir,
                                            SnapshotStoreConfig cfg) {
  if (dir.empty())
    return InvalidArgumentError("snapstore: empty directory path");
  if (cfg.keep == 0)
    return InvalidArgumentError("snapstore: keep must be >= 1");
  Status s = vfs::make_dirs(dir);
  if (!s.ok()) return s;
  return SnapshotStore(dir, cfg);
}

std::string SnapshotStore::generation_path(std::uint64_t gen) const {
  return dir_ + "/" + gen_name(gen);
}

StatusOr<std::vector<std::uint64_t>> SnapshotStore::generations() const {
  auto entries = vfs::list_dir(dir_);
  if (!entries.ok()) return entries.status();
  std::vector<std::uint64_t> gens;
  for (const std::string& name : *entries) {
    std::uint64_t g = 0;
    if (parse_gen_name(name, &g)) gens.push_back(g);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

StatusOr<std::uint64_t> SnapshotStore::save(const ModelSnapshot& snap) {
  auto bytes = serialize_model(snap);
  if (!bytes.ok()) return bytes.status();

  auto gens = generations();
  if (!gens.ok()) return gens.status();
  std::uint64_t next = gens->empty() ? 0 : gens->back();
  // An orphaned newer file (gen landed, manifest publish failed) must not be
  // overwritten either — numbering always moves past everything on disk.
  auto published = read_manifest(dir_ + "/" + kManifestName);
  if (published.ok()) next = std::max(next, *published);
  next += 1;

  Status s = vfs::write_file_atomic(generation_path(next), bytes->data(),
                                    bytes->size());
  if (!s.ok()) return s;

  const std::vector<std::uint8_t> manifest = encode_manifest(next);
  s = vfs::write_file_atomic(dir_ + "/" + kManifestName, manifest.data(),
                             manifest.size());
  if (!s.ok()) return s;  // unpublished: the old manifest still governs

  // Retention, best effort: a failed unlink costs disk, never correctness.
  gens->push_back(next);
  if (gens->size() > cfg_.keep)
    for (std::size_t i = 0; i + cfg_.keep < gens->size(); ++i)
      (void)vfs::remove_file(generation_path((*gens)[i]));
  return next;
}

StatusOr<ModelSnapshot> SnapshotStore::load_latest(
    std::uint64_t* gen_out) const {
  // The manifest names the published generation; trust it while it (and its
  // file) verify. Any failure from here on falls through to the scan — the
  // whole point of keeping more than one generation.
  auto published = read_manifest(dir_ + "/" + kManifestName);
  if (published.ok()) {
    auto bytes = vfs::read_file(generation_path(*published));
    if (bytes.ok()) {
      auto snap = parse_model(std::span<const std::uint8_t>(*bytes),
                              generation_path(*published));
      if (snap.ok()) {
        if (gen_out != nullptr) *gen_out = *published;
        return snap;
      }
    }
  }

  auto gens = generations();
  if (!gens.ok()) return gens.status();
  for (auto it = gens->rbegin(); it != gens->rend(); ++it) {
    auto bytes = vfs::read_file(generation_path(*it));
    if (!bytes.ok()) continue;
    auto snap = parse_model(std::span<const std::uint8_t>(*bytes),
                            generation_path(*it));
    if (!snap.ok()) continue;
    if (gen_out != nullptr) *gen_out = *it;
    return snap;
  }
  return NotFoundError("snapstore: no intact generation in " + dir_);
}

StatusOr<RecoveredStream> recover_stream(const SnapshotStore& store,
                                         const std::string& wal_path,
                                         std::size_t dim,
                                         const DbscanParams& params,
                                         RunGuard* guard) {
  if (dim == 0) return InvalidArgumentError("recover_stream: dim must be > 0");

  RecoveredStream out;
  out.engine = std::make_unique<IncrementalMuDbscan>(dim, params);
  IncrementalMuDbscan& engine = *out.engine;
  const auto insert_rows = [&](std::span<const double> rows) {
    for (std::size_t r = 0; r < rows.size(); r += dim)
      engine.insert(rows.subspan(r, dim));
  };

  std::uint64_t gen = 0;
  auto snap = store.load_latest(&gen);
  if (snap.ok()) {
    if (snap->data.dim() != dim)
      return InvalidArgumentError(
          "recover_stream: snapshot generation " + std::to_string(gen) +
          " holds dim-" + std::to_string(snap->data.dim()) +
          " points, expected dim " + std::to_string(dim));
    if (snap->params.eps != params.eps ||
        snap->params.min_pts != params.min_pts)
      return InvalidArgumentError(
          "recover_stream: snapshot generation " + std::to_string(gen) +
          " was fit with (eps " + std::to_string(snap->params.eps) +
          ", minpts " + std::to_string(snap->params.min_pts) +
          "), recovery asked for (eps " + std::to_string(params.eps) +
          ", minpts " + std::to_string(params.min_pts) +
          ") — the store and WAL describe one model");
    ScopedCharge charge;
    Status s = charge.acquire(
        guard, snap->data.raw().size() * sizeof(double), "recover_snapshot");
    if (!s.ok()) return s;
    insert_rows(snap->data.raw());
    out.generation = gen;
    out.snapshot_points = snap->data.size();
  } else if (snap.status().code() != StatusCode::kNotFound) {
    return snap.status();
  }

  auto rep = replay_wal(wal_path, dim);
  if (rep.ok()) {
    out.wal_torn_bytes = rep->torn_bytes;
    ScopedCharge charge;
    Status s = charge.acquire(guard, rep->coords.size() * sizeof(double),
                              "recover_wal");
    if (!s.ok()) return s;
    if (rep->epoch != 0 || rep->has_tombstones()) {
      // Epoch-gated replay (docs/ROBUSTNESS.md §Deletes). A tombstone erases
      // by bitwise coordinates, which is only meaningful against the exact
      // state it was logged on top of — start-index realignment cannot
      // reconcile it with a different generation. reset(generation) stamps
      // the log with the generation it extends; replay everything in record
      // order when that generation is the one that loaded, drop the log
      // wholesale otherwise (a mismatch means the manifest's generation was
      // lost and an older one answered — replaying would corrupt it).
      if (rep->epoch != out.generation) {
        out.wal_epoch_mismatch = true;
        return out;
      }
      std::size_t coff = 0;
      for (std::size_t i = 0; i < rep->starts.size(); ++i) {
        const std::size_t record_doubles =
            static_cast<std::size_t>(rep->counts[i]) * dim;
        const std::span<const double> rows{rep->coords.data() + coff,
                                           record_doubles};
        if (rep->types[i] ==
            static_cast<std::uint8_t>(WalRecordType::kTombstone)) {
          for (std::size_t r = 0; r < record_doubles; r += dim)
            if (engine.erase_equal(rows.subspan(r, dim)) != kInvalidPoint)
              ++out.wal_deletes;
        } else {
          insert_rows(rows);
          out.wal_points += rep->counts[i];
        }
        coff += record_doubles;
        ++out.wal_records;
      }
      return out;
    }
    // Align the committed records against the snapshot via their stream
    // start indices: skip what the snapshot already covers (the
    // publish-before-reset crash window), stop at a gap (older-generation
    // fallback after corruption) — either way the result is an exact prefix
    // of the original ingestion sequence.
    std::uint64_t base = out.snapshot_points;
    std::size_t coff = 0;
    for (std::size_t i = 0; i < rep->starts.size(); ++i) {
      const std::uint64_t start = rep->starts[i];
      const std::uint64_t count = rep->counts[i];
      const std::size_t record_doubles = static_cast<std::size_t>(count) * dim;
      if (start + count <= base) {  // fully covered by the snapshot
        coff += record_doubles;
        continue;
      }
      if (start > base) break;  // gap: nothing after it can be ingested
      const std::size_t skip = static_cast<std::size_t>(base - start) * dim;
      insert_rows({rep->coords.data() + coff + skip, record_doubles - skip});
      out.wal_points += static_cast<std::size_t>(count - (base - start));
      base += count - (base - start);
      coff += record_doubles;
      ++out.wal_records;
    }
  } else if (rep.status().code() != StatusCode::kNotFound) {
    return rep.status();
  }
  return out;
}

}  // namespace udb::serve
