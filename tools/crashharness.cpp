// crashharness: kill-and-recover matrix for the durable storage tier
// (docs/ROBUSTNESS.md §Durability). The workload is a scripted streaming
// ingest — WAL append, micro-cluster insert, periodic snapshot-generation
// publish + WAL reset — and the harness attacks it from every angle the VFS
// fault layer (common/vfs.*) can model:
//
//   * crash sweep    — forked children run the workload with a crash point
//                      set at a sampled VFS operation ordinal and die there
//                      with _Exit (no destructors, nothing flushed), like
//                      power loss between syscalls;
//   * ENOSPC sweep   — injected mid-write disk-full across seeds (the
//                      workload must stop cleanly with RESOURCE_EXHAUSTED);
//   * fsync sweep    — injected fsync failures (clean DATA_LOSS);
//   * flaky-io run   — EINTR + short reads/writes at high rate (all retried:
//                      the workload must complete and lose nothing);
//   * read-side rot  — bit flips and hard truncations injected while
//                      *recovering* (CRCs must catch every flip);
//   * on-disk rot    — a byte of the newest generation flipped for real
//                      (load must fall back to the previous generation).
//
// After every scenario the harness recovers (serve::recover_stream) and
// asserts the durability invariants:
//   1. every non-tmp generation file on disk parses — a failed or killed
//      save never damages a previously published generation;
//   2. the recovered points are byte-for-byte a prefix of the scripted
//      ingestion sequence — never reordered, duplicated, or invented;
//   3. the recovered model's clustering (labels + core flags) is
//      byte-identical to fitting from scratch on that prefix — the paper's
//      exactness bar survives recovery;
//   4. the recovered stream keeps working: ingesting the remaining points
//      yields a clustering byte-identical to a never-crashed run.
// Exit status is non-zero if any scenario violates any invariant.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/vfs.hpp"
#include "core/incremental.hpp"
#include "core/mudbscan.hpp"
#include "core/wal.hpp"
#include "metrics/exactness.hpp"
#include "serve/snapstore.hpp"

using namespace udb;

namespace {

struct Workload {
  std::size_t dim = 2;
  DbscanParams params{0.35, 4};
  std::size_t batches = 24;
  std::size_t batch_points = 25;
  std::size_t publish_every = 5;
  std::vector<double> coords;  // the scripted sequence, batches*batch_points

  [[nodiscard]] std::size_t total_points() const noexcept {
    return batches * batch_points;
  }
};

Workload make_workload(std::uint64_t seed, bool quick) {
  Workload w;
  if (quick) w.batches = 12;
  Rng rng(seed);
  w.coords.reserve(w.total_points() * w.dim);
  // Blobs around a handful of centres plus background noise — enough
  // structure that clusters form and labels are non-trivial.
  const double centres[][2] = {{0, 0}, {3, 1}, {-2, 4}, {1, -3}, {5, 5}};
  for (std::size_t i = 0; i < w.total_points(); ++i) {
    if (rng.next_double() < 0.15) {
      w.coords.push_back(rng.uniform(-8.0, 8.0));
      w.coords.push_back(rng.uniform(-8.0, 8.0));
    } else {
      const auto& c = centres[rng.uniform_index(5)];
      w.coords.push_back(c[0] + 0.25 * rng.normal());
      w.coords.push_back(c[1] + 0.25 * rng.normal());
    }
  }
  return w;
}

using ModelSnapshot = serve::ModelSnapshot;
using serve::SnapshotStore;
using serve::SnapshotStoreConfig;

ModelSnapshot snapshot_of(const IncrementalMuDbscan& engine) {
  ModelSnapshot snap;
  snap.result = engine.result();
  snap.data = engine.survivors();
  snap.params = engine.params();
  return snap;
}

void insert_rows(IncrementalMuDbscan& engine, std::span<const double> rows) {
  for (std::size_t r = 0; r < rows.size(); r += engine.dim())
    engine.insert(rows.subspan(r, engine.dim()));
}

// The scripted run. Stops (cleanly, Status) at the first I/O failure: every
// acknowledged point stays a prefix of the script, which is what recovery
// is then checked against.
Status run_workload(const Workload& w, const std::string& dir) {
  Status s = vfs::make_dirs(dir);
  if (!s.ok()) return s;
  auto store = SnapshotStore::open(dir + "/store", SnapshotStoreConfig{});
  if (!store.ok()) return store.status();
  auto wal = WalWriter::open(dir + "/wal", w.dim);
  if (!wal.ok()) return wal.status();
  IncrementalMuDbscan engine(w.dim, w.params);
  for (std::size_t b = 0; b < w.batches; ++b) {
    const std::span<const double> batch(
        w.coords.data() + b * w.batch_points * w.dim, w.batch_points * w.dim);
    // WAL first: a point is acknowledged only once its record is durable.
    s = wal->append(engine.size(), batch);
    if (!s.ok()) return s;
    insert_rows(engine, batch);
    if ((b + 1) % w.publish_every == 0) {
      const ModelSnapshot snap = snapshot_of(engine);
      auto gen = store->save(snap);
      if (!gen.ok()) return gen.status();
      s = wal->reset();
      if (!s.ok()) return s;
    }
  }
  return wal->close();
}

struct Verify {
  bool ok = true;
  std::string why;
  std::size_t recovered = 0;
  std::uint64_t generation = 0;

  static Verify fail(std::string msg) { return {false, std::move(msg), 0, 0}; }
};

bool labels_equal(const ClusteringResult& a, const ClusteringResult& b) {
  return a.label == b.label && a.is_core == b.is_core;
}

// The streaming engine's labels are canonical (border points attached to
// their nearest core, cluster ids renumbered by first occurrence), so the
// batch reference must be canonicalized before a bitwise comparison — raw
// mu_dbscan output leaves border attachment order-dependent.
ClusteringResult batch_reference(const Dataset& ds, const DbscanParams& prm) {
  return canonicalize_clustering(ds, prm, mu_dbscan(ds, prm));
}

// Checks the four durability invariants against whatever the scenario left
// in `dir`. Runs with no fault plan installed unless the caller says so.
Verify verify_dir(const Workload& w, const std::string& dir,
                  bool allow_corrupt_gens) {
  auto store = SnapshotStore::open(dir + "/store", SnapshotStoreConfig{});
  if (!store.ok())
    return Verify::fail("store open failed: " + store.status().to_string());

  // Invariant 1: every published generation is intact.
  auto gens = store->generations();
  if (!gens.ok())
    return Verify::fail("generation listing failed: " +
                        gens.status().to_string());
  if (!allow_corrupt_gens) {
    for (std::uint64_t g : *gens) {
      auto bytes = vfs::read_file(store->generation_path(g));
      if (!bytes.ok())
        return Verify::fail("generation " + std::to_string(g) +
                            " unreadable: " + bytes.status().to_string());
      auto snap = serve::parse_model(
          std::span<const std::uint8_t>(*bytes), store->generation_path(g));
      if (!snap.ok())
        return Verify::fail("generation " + std::to_string(g) +
                            " corrupt after failed/killed save: " +
                            snap.status().to_string());
    }
  }

  // Invariant 2 + 3: recovery is an exact prefix, clustered exactly.
  auto rec = serve::recover_stream(*store, dir + "/wal", w.dim, w.params);
  if (!rec.ok())
    return Verify::fail("recover_stream failed: " + rec.status().to_string());
  IncrementalMuDbscan& engine = *rec->engine;
  const std::size_t n_rec = engine.size();
  if (n_rec > w.total_points())
    return Verify::fail("recovered " + std::to_string(n_rec) +
                        " points, script only has " +
                        std::to_string(w.total_points()));
  if (n_rec > 0) {
    const Dataset got = engine.survivors();
    if (std::memcmp(got.raw().data(), w.coords.data(),
                    n_rec * w.dim * sizeof(double)) != 0)
      return Verify::fail("recovered points are not a prefix of the script");
    std::vector<double> prefix(w.coords.begin(),
                               w.coords.begin() + n_rec * w.dim);
    const ClusteringResult fresh =
        batch_reference(Dataset(w.dim, std::move(prefix)), w.params);
    if (!labels_equal(engine.result(), fresh))
      return Verify::fail(
          "recovered clustering differs from fit-from-scratch on " +
          std::to_string(n_rec) + " recovered points");
  }

  // Invariant 4: the recovered stream is usable — finish the script and the
  // final clustering matches a run that never crashed.
  for (std::size_t i = n_rec; i < w.total_points(); ++i)
    engine.insert(std::span<const double>(w.coords.data() + i * w.dim, w.dim));
  const ClusteringResult full =
      batch_reference(Dataset(w.dim, std::vector<double>(w.coords)), w.params);
  if (!labels_equal(engine.result(), full))
    return Verify::fail("post-recovery ingest diverges from a clean run");

  Verify v;
  v.recovered = n_rec;
  v.generation = rec->generation;
  return v;
}

// Runs `work` in a forked child that _Exit()s at VFS op `crash_at`.
// Returns false only if the child died in an unexpected way.
bool run_crashing_child(const std::function<Status()>& work,
                        std::uint64_t seed, std::int64_t crash_at,
                        std::string* why) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    *why = "fork failed";
    return false;
  }
  if (pid == 0) {
    // Child: single-threaded by construction (the workload never spawns
    // threads), so fork is safe. No printing, no destructors on the way out.
    vfs::IoFaultPlan plan;
    plan.seed = seed;
    plan.crash_at_op = crash_at;
    vfs::reset_io_fault_state();
    vfs::install_io_fault_plan(&plan);
    const Status s = work();
    vfs::install_io_fault_plan(nullptr);
    std::_Exit(s.ok() ? 0 : 3);
  }
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) {
    *why = "waitpid failed";
    return false;
  }
  if (!WIFEXITED(wstatus)) {
    *why = "child killed by signal " + std::to_string(WTERMSIG(wstatus));
    return false;
  }
  const int code = WEXITSTATUS(wstatus);
  if (code != 0 && code != vfs::kIoCrashExit) {
    *why = "child exited with unexpected code " + std::to_string(code);
    return false;
  }
  return true;
}

// Measures how many faultable VFS operations one clean workload performs —
// the sweep space for crash points.
std::uint64_t measure_ops(const std::function<Status()>& work) {
  vfs::IoFaultPlan plan;  // all rates zero, no crash point: count only
  vfs::reset_io_fault_state();
  vfs::install_io_fault_plan(&plan);
  const Status s = work();
  vfs::install_io_fault_plan(nullptr);
  const std::uint64_t ops = vfs::io_fault_next_op();
  vfs::reset_io_fault_state();
  if (!s.ok()) {
    std::fprintf(stderr, "crashharness: baseline workload failed: %s\n",
                 s.to_string().c_str());
    return 0;
  }
  return ops;
}

// ---- ingest + delete workload (docs/INCREMENTAL.md, WAL v2 tombstones) ----
//
// A scripted stream of record-aligned operations: insert batches interleaved
// with single-point deletes, every publish stamping the WAL with the new
// generation's epoch (reset(gen)). The recovery invariant is stronger than
// "prefix of the insert sequence": the recovered survivor set must equal the
// state at SOME operation boundary of the script, clustered exactly — a
// tombstone is never half-applied, replayed against the wrong generation, or
// reordered against the inserts around it.

struct DeleteOp {
  bool is_delete = false;
  std::vector<double> coords;  // one point (delete) or a whole batch (insert)
  bool publish_after = false;
};

struct DeleteScript {
  std::vector<DeleteOp> ops;
  // Survivor coords after each op boundary: states[k] is the flat survivor
  // sequence once ops[0..k) have been applied (states[0] is empty).
  std::vector<std::vector<double>> states;
};

DeleteScript make_delete_script(const Workload& w, std::uint64_t seed) {
  DeleteScript sc;
  Rng rng(seed ^ 0xDE1E7Eull);
  // Simulated point store: insertion order, erased points flagged dead.
  std::vector<std::vector<double>> pts;
  std::vector<std::size_t> alive;  // indices into pts
  const auto snapshot_state = [&] {
    std::vector<double> flat;
    for (const auto& p : pts)
      if (!p.empty()) flat.insert(flat.end(), p.begin(), p.end());
    sc.states.push_back(std::move(flat));
  };
  snapshot_state();  // boundary 0: empty
  for (std::size_t b = 0; b < w.batches; ++b) {
    DeleteOp ins;
    ins.coords.assign(w.coords.begin() + b * w.batch_points * w.dim,
                      w.coords.begin() + (b + 1) * w.batch_points * w.dim);
    sc.ops.push_back(std::move(ins));
    for (std::size_t i = 0; i < w.batch_points; ++i) {
      alive.push_back(pts.size());
      pts.emplace_back(
          w.coords.begin() + (b * w.batch_points + i) * w.dim,
          w.coords.begin() + (b * w.batch_points + i + 1) * w.dim);
    }
    snapshot_state();
    const std::size_t deletes = w.batch_points / 5;
    for (std::size_t d = 0; d < deletes && alive.size() > 1; ++d) {
      const std::size_t j = rng.uniform_index(alive.size());
      DeleteOp del;
      del.is_delete = true;
      del.coords = pts[alive[j]];
      pts[alive[j]].clear();
      alive[j] = alive.back();
      alive.pop_back();
      sc.ops.push_back(std::move(del));
      snapshot_state();
    }
    if ((b + 1) % w.publish_every == 0) sc.ops.back().publish_after = true;
  }
  return sc;
}

Status run_delete_workload(const Workload& w, const DeleteScript& sc,
                           const std::string& dir) {
  Status s = vfs::make_dirs(dir);
  if (!s.ok()) return s;
  auto store = SnapshotStore::open(dir + "/store", SnapshotStoreConfig{});
  if (!store.ok()) return store.status();
  auto wal = WalWriter::open(dir + "/wal", w.dim);
  if (!wal.ok()) return wal.status();
  IncrementalMuDbscan engine(w.dim, w.params);
  std::uint64_t next_start = 0;
  for (const DeleteOp& op : sc.ops) {
    if (op.is_delete) {
      s = wal->append_delete(op.coords);
      if (!s.ok()) return s;
      if (engine.erase_equal(op.coords) == kInvalidPoint)
        return InternalError("delete workload: scripted erase missed");
    } else {
      s = wal->append(next_start, op.coords);
      if (!s.ok()) return s;
      next_start += op.coords.size() / w.dim;
      insert_rows(engine, op.coords);
    }
    if (op.publish_after) {
      auto gen = store->save(snapshot_of(engine));
      if (!gen.ok()) return gen.status();
      s = wal->reset(*gen);  // stamp the log with the generation it extends
      if (!s.ok()) return s;
    }
  }
  return wal->close();
}

Verify verify_delete_dir(const Workload& w, const DeleteScript& sc,
                         const std::string& dir) {
  auto store = SnapshotStore::open(dir + "/store", SnapshotStoreConfig{});
  if (!store.ok())
    return Verify::fail("store open failed: " + store.status().to_string());
  auto gens = store->generations();
  if (!gens.ok())
    return Verify::fail("generation listing failed: " +
                        gens.status().to_string());
  for (std::uint64_t g : *gens) {
    auto bytes = vfs::read_file(store->generation_path(g));
    if (!bytes.ok())
      return Verify::fail("generation " + std::to_string(g) +
                          " unreadable: " + bytes.status().to_string());
    auto snap = serve::parse_model(std::span<const std::uint8_t>(*bytes),
                                   store->generation_path(g));
    if (!snap.ok())
      return Verify::fail("generation " + std::to_string(g) +
                          " corrupt after failed/killed save: " +
                          snap.status().to_string());
  }

  auto rec = serve::recover_stream(*store, dir + "/wal", w.dim, w.params);
  if (!rec.ok())
    return Verify::fail("recover_stream failed: " + rec.status().to_string());
  IncrementalMuDbscan& engine = *rec->engine;
  const std::size_t n_rec = engine.size();

  // Invariant: the recovered survivors equal SOME op boundary of the script.
  std::size_t k = sc.states.size();
  const std::vector<double> got =
      engine.size() == 0 ? sc.states[0] : engine.survivors().raw();
  for (std::size_t i = 0; i < sc.states.size(); ++i) {
    if (sc.states[i] == got) {
      k = i;
      break;
    }
  }
  if (k == sc.states.size())
    return Verify::fail(
        "recovered survivors (" + std::to_string(engine.size()) +
        " pts) match no operation boundary of the delete script");
  if (engine.size() > 0 &&
      !labels_equal(engine.result(),
                    batch_reference(engine.survivors(), w.params)))
    return Verify::fail("recovered clustering differs from the canonical "
                        "batch refit at op boundary " + std::to_string(k));

  // Usability: finish the script from that boundary; the final state must be
  // byte-identical to a run that never crashed.
  for (std::size_t i = k; i < sc.ops.size(); ++i) {
    const DeleteOp& op = sc.ops[i];
    if (op.is_delete) {
      if (engine.erase_equal(op.coords) == kInvalidPoint)
        return Verify::fail("post-recovery scripted erase missed at op " +
                            std::to_string(i));
    } else {
      insert_rows(engine, op.coords);
    }
  }
  if (engine.survivors().raw() != sc.states.back())
    return Verify::fail("post-recovery replay does not reach the clean-run "
                        "final state");
  if (!labels_equal(engine.result(),
                    batch_reference(engine.survivors(), w.params)))
    return Verify::fail("post-recovery final clustering diverges from the "
                        "canonical batch refit");

  Verify v;
  v.recovered = n_rec;
  v.generation = rec->generation;
  return v;
}

int g_failures = 0;

void report(const std::string& name, const Verify& v) {
  if (v.ok) {
    std::printf("  %-34s ok (recovered %zu pts, gen %llu)\n", name.c_str(),
                v.recovered, static_cast<unsigned long long>(v.generation));
  } else {
    std::printf("  %-34s FAIL: %s\n", name.c_str(), v.why.c_str());
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const bool quick = cli.get_bool("quick", false);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.get_int("seed", 7));
    std::string base = cli.get_string("dir", "");
    const std::int64_t crashes =
        cli.get_int("crashes", quick ? 12 : 40);
    const std::int64_t fault_seeds =
        cli.get_int("fault-seeds", quick ? 4 : 10);
    cli.check_unused();

    if (base.empty()) {
      char tmpl[] = "/tmp/crashharness.XXXXXX";
      if (::mkdtemp(tmpl) == nullptr) {
        std::fprintf(stderr, "crashharness: mkdtemp failed\n");
        return 1;
      }
      base = tmpl;
    }
    const Workload w = make_workload(seed, quick);

    std::printf("crashharness: scripted ingest of %zu points (%zu batches, "
                "publish every %zu), scratch %s\n",
                w.total_points(), w.batches, w.publish_every, base.c_str());

    // ---- crash-point sweep ------------------------------------------------
    const std::uint64_t total_ops =
        measure_ops([&] { return run_workload(w, base + "/baseline"); });
    if (total_ops == 0) return 1;
    {
      const Verify v = verify_dir(w, base + "/baseline", false);
      report("baseline (no faults)", v);
      if (v.ok && v.recovered != w.total_points()) {
        std::printf("  baseline recovered %zu of %zu points\n", v.recovered,
                    w.total_points());
        ++g_failures;
      }
    }

    std::printf("crash sweep: %lld kill points over %llu VFS ops\n",
                static_cast<long long>(crashes),
                static_cast<unsigned long long>(total_ops));
    std::set<std::uint64_t> points = {0, 1, total_ops / 2, total_ops - 1};
    Rng rng(seed ^ 0xC4A54ull);
    while (points.size() < static_cast<std::size_t>(crashes) &&
           points.size() < total_ops)
      points.insert(rng.uniform_index(total_ops));
    for (const std::uint64_t k : points) {
      const std::string dir = base + "/crash_" + std::to_string(k);
      std::string why;
      if (!run_crashing_child([&] { return run_workload(w, dir); }, seed,
                              static_cast<std::int64_t>(k), &why)) {
        std::printf("  crash@%-26llu FAIL: %s\n",
                    static_cast<unsigned long long>(k), why.c_str());
        ++g_failures;
        continue;
      }
      report("crash@" + std::to_string(k), verify_dir(w, dir, false));
    }

    // ---- ingest + delete crash sweep (WAL v2 tombstones, epoch gating) ---
    {
      const DeleteScript sc = make_delete_script(w, seed);
      const std::string bdir = base + "/del_baseline";
      const std::uint64_t del_ops =
          measure_ops([&] { return run_delete_workload(w, sc, bdir); });
      if (del_ops == 0) {
        ++g_failures;
      } else {
        const Verify v = verify_delete_dir(w, sc, bdir);
        report("delete baseline (no faults)", v);
        if (v.ok && v.recovered * w.dim != sc.states.back().size()) {
          std::printf("  delete baseline recovered %zu pts, clean run ends "
                      "with %zu\n",
                      v.recovered, sc.states.back().size() / w.dim);
          ++g_failures;
        }
        const std::size_t del_crashes =
            std::max<std::size_t>(8, static_cast<std::size_t>(crashes) / 2);
        std::printf("delete crash sweep: %zu kill points over %llu VFS ops\n",
                    del_crashes, static_cast<unsigned long long>(del_ops));
        std::set<std::uint64_t> del_points = {0, 1, del_ops / 2, del_ops - 1};
        Rng del_rng(seed ^ 0xDE1ull);
        while (del_points.size() < del_crashes && del_points.size() < del_ops)
          del_points.insert(del_rng.uniform_index(del_ops));
        for (const std::uint64_t k : del_points) {
          const std::string dir = base + "/del_crash_" + std::to_string(k);
          std::string why;
          if (!run_crashing_child(
                  [&] { return run_delete_workload(w, sc, dir); }, seed,
                  static_cast<std::int64_t>(k), &why)) {
            std::printf("  del_crash@%-22llu FAIL: %s\n",
                        static_cast<unsigned long long>(k), why.c_str());
            ++g_failures;
            continue;
          }
          report("del_crash@" + std::to_string(k),
                 verify_delete_dir(w, sc, dir));
        }
      }
    }

    // ---- injected write-side fault sweeps --------------------------------
    struct FaultCase {
      const char* name;
      double vfs::IoFaultPlan::*rate;
      double value;
      StatusCode expect;  // a failing workload must report exactly this
    };
    const FaultCase cases[] = {
        {"enospc", &vfs::IoFaultPlan::enospc_rate, 0.04,
         StatusCode::kResourceExhausted},
        {"fsync-fail", &vfs::IoFaultPlan::fsync_fail_rate, 0.04,
         StatusCode::kDataLoss},
    };
    for (const FaultCase& fc : cases) {
      std::printf("%s sweep: %lld seeds at rate %.2f\n", fc.name,
                  static_cast<long long>(fault_seeds), fc.value);
      for (std::int64_t s = 0; s < fault_seeds; ++s) {
        const std::string dir =
            base + "/" + fc.name + "_" + std::to_string(s);
        vfs::IoFaultPlan plan;
        plan.seed = seed + static_cast<std::uint64_t>(s) * 7919;
        plan.*fc.rate = fc.value;
        vfs::reset_io_fault_state();
        vfs::install_io_fault_plan(&plan);
        const Status st = run_workload(w, dir);
        vfs::install_io_fault_plan(nullptr);
        const std::string name =
            std::string(fc.name) + " seed " + std::to_string(s);
        if (!st.ok() && st.code() != fc.expect) {
          std::printf("  %-34s FAIL: expected %s, got %s\n", name.c_str(),
                      status_code_name(fc.expect), st.to_string().c_str());
          ++g_failures;
          continue;
        }
        report(name, verify_dir(w, dir, false));
      }
    }

    // ---- flaky but recoverable I/O: retries must hide all of it ----------
    {
      const std::string dir = base + "/flaky";
      vfs::IoFaultPlan plan;
      plan.seed = seed + 101;
      plan.eintr_rate = 0.2;
      plan.short_read_rate = 0.2;
      plan.short_write_rate = 0.2;
      vfs::reset_io_fault_state();
      vfs::install_io_fault_plan(&plan);
      const Status st = run_workload(w, dir);
      vfs::install_io_fault_plan(nullptr);
      const vfs::IoFaultCounts c = vfs::io_fault_counts();
      if (!st.ok()) {
        std::printf("  %-34s FAIL: %s\n", "flaky io (retried faults)",
                    st.to_string().c_str());
        ++g_failures;
      } else {
        const Verify v = verify_dir(w, dir, false);
        report("flaky io (retried faults)", v);
        if (v.ok && v.recovered != w.total_points()) {
          std::printf("  flaky io lost points: %zu of %zu\n", v.recovered,
                      w.total_points());
          ++g_failures;
        }
        std::printf("  (injected: %llu eintr, %llu short reads, %llu short "
                    "writes)\n",
                    static_cast<unsigned long long>(c.eintr),
                    static_cast<unsigned long long>(c.short_reads),
                    static_cast<unsigned long long>(c.short_writes));
      }
    }

    // ---- read-side rot injected during recovery itself -------------------
    {
      const std::string dir = base + "/readrot";
      if (Status st = run_workload(w, dir); !st.ok()) {
        std::printf("  %-34s FAIL: clean run failed: %s\n", "read-side rot",
                    st.to_string().c_str());
        ++g_failures;
      } else {
        for (std::int64_t s = 0; s < fault_seeds; ++s) {
          vfs::IoFaultPlan plan;
          plan.seed = seed + 1000 + static_cast<std::uint64_t>(s);
          plan.bitrot_rate = 0.05;
          plan.read_truncate_rate = 0.02;
          vfs::reset_io_fault_state();
          vfs::install_io_fault_plan(&plan);
          // Recovery under fire must fail cleanly or produce an exact
          // prefix; it must never propagate rotted bytes into a model.
          const Verify v = verify_dir(w, dir, true);
          vfs::install_io_fault_plan(nullptr);
          const std::string name = "read rot seed " + std::to_string(s);
          if (!v.ok && v.why.find("recover_stream failed") != 0 &&
              v.why.find("unreadable") == std::string::npos &&
              v.why.find("store open failed") != 0 &&
              v.why.find("generation listing failed") != 0) {
            std::printf("  %-34s FAIL: %s\n", name.c_str(), v.why.c_str());
            ++g_failures;
          } else {
            std::printf("  %-34s ok (%s)\n", name.c_str(),
                        v.ok ? "exact prefix" : "clean error");
          }
        }
      }
    }

    // ---- real on-disk corruption: generation fallback --------------------
    {
      const std::string dir = base + "/diskrot";
      Status st = run_workload(w, dir);
      auto store = SnapshotStore::open(dir + "/store", SnapshotStoreConfig{});
      if (!st.ok() || !store.ok()) {
        std::printf("  %-34s FAIL: setup: %s\n", "on-disk rot fallback",
                    (st.ok() ? store.status() : st).to_string().c_str());
        ++g_failures;
      } else {
        auto gens = store->generations();
        if (!gens.ok() || gens->size() < 2) {
          std::printf("  %-34s FAIL: need >= 2 generations to test fallback\n",
                      "on-disk rot fallback");
          ++g_failures;
        } else {
          const std::uint64_t newest = gens->back();
          const std::string victim = store->generation_path(newest);
          auto bytes = vfs::read_file(victim);
          if (!bytes.ok()) {
            std::printf("  %-34s FAIL: cannot read victim\n",
                        "on-disk rot fallback");
            ++g_failures;
          } else {
            (*bytes)[bytes->size() / 2] ^= 0x20;  // one flipped bit, mid-file
            Status ws = vfs::write_file(victim, bytes->data(), bytes->size());
            const Verify v = verify_dir(w, dir, true);
            if (!ws.ok() || !v.ok) {
              std::printf("  %-34s FAIL: %s\n", "on-disk rot fallback",
                          (!ws.ok() ? ws.to_string() : v.why).c_str());
              ++g_failures;
            } else if (v.generation >= newest) {
              std::printf("  %-34s FAIL: served corrupted generation %llu\n",
                          "on-disk rot fallback",
                          static_cast<unsigned long long>(v.generation));
              ++g_failures;
            } else {
              std::printf("  %-34s ok (fell back gen %llu -> %llu, "
                          "recovered %zu pts)\n",
                          "on-disk rot fallback",
                          static_cast<unsigned long long>(newest),
                          static_cast<unsigned long long>(v.generation),
                          v.recovered);
            }
          }
        }
      }
    }

    std::error_code ec;
    std::filesystem::remove_all(base, ec);  // best effort

    if (g_failures != 0) {
      std::printf("crashharness: %d FAILURE(S)\n", g_failures);
      return 1;
    }
    std::printf("crashharness: all scenarios hold — recovery is an exact "
                "prefix, clustered exactly, and failed saves never damage "
                "published generations\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crashharness: error: %s\n", e.what());
    return 1;
  }
}
