// VFS — the one door to the filesystem (docs/ROBUSTNESS.md §Durability).
//
// Every persistence path in the library (dataset loaders, model snapshots,
// the write-ahead log, checkpoint spills, trace/metrics/bench writers) routes
// its I/O through this Status-returning abstraction instead of raw
// iostream/stdio, for two reasons:
//
//   1. Discipline in one place. Durable writes need the full
//      write → fsync(file) → rename → fsync(parent dir) sequence, short
//      reads/writes and EINTR need retry loops, and close() errors must be
//      propagated, not swallowed by a destructor. Getting that right once
//      beats auditing a dozen ad-hoc ofstream sites.
//
//   2. Fault injection. An installed IoFaultPlan turns every VFS operation
//      into a seeded dice roll — short read/write, EINTR, ENOSPC mid-write,
//      fsync failure, read-side bit rot, and process crash at an exact
//      operation ordinal — the filesystem counterpart of the minimpi fault
//      runtime (mpi/fault.hpp) and the serving NetFaultPlan
//      (serve/netfault.hpp). Decisions depend only on
//      (seed, op kind, file basename, op ordinal), never on wall time, so a
//      fixed seed replays the same fault pattern and tools/crashharness can
//      sweep crash points deterministically.
//
// Without a plan installed the fast path is one relaxed atomic load per
// operation — the same zero-cost-when-unset contract as the other fault
// runtimes.
//
// Error mapping (asserted by tests/common/test_vfs.cpp):
//   open-for-read ENOENT            -> NOT_FOUND
//   write/rename ENOSPC or EDQUOT   -> RESOURCE_EXHAUSTED (incl. injected)
//   fsync failure (real or injected)-> DATA_LOSS (durability unknowable)
//   read-side hard truncation       -> caller sees a short file (quarantine
//                                      loaders / CRC codecs must reject it)
//   anything else                   -> INTERNAL

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace udb::vfs {

// Exit code used when an installed plan's crash point fires: the process is
// killed with std::_Exit mid-I/O, simulating power loss / OOM-kill between
// syscalls. tools/crashharness forks children and recognizes this code.
inline constexpr int kIoCrashExit = 86;

// Writes and reads are split into chunks of this size, and every chunk is one
// faultable operation — so a crash point or injected ENOSPC inside a large
// write leaves a torn prefix on disk, exactly like real power loss.
inline constexpr std::size_t kIoChunk = std::size_t{64} * 1024;

// ---- seeded fault plan ----------------------------------------------------

struct IoFaultPlan {
  std::uint64_t seed = 0;

  double eintr_rate = 0.0;        // read/write chunk: simulated EINTR, retried
  double short_read_rate = 0.0;   // read chunk returns a prefix; loop continues
  double short_write_rate = 0.0;  // write chunk lands a prefix; loop continues
  double read_truncate_rate = 0.0;  // read reports EOF early (hard short file)
  double bitrot_rate = 0.0;         // one bit of the chunk just read flipped
  double enospc_rate = 0.0;       // write chunk lands a prefix, fails ENOSPC
  double fsync_fail_rate = 0.0;   // fsync/dir-fsync reports failure

  // Crash point: the process _Exit(kIoCrashExit)s immediately before the VFS
  // operation with this ordinal (0-based, counted across the process since
  // the last reset_io_fault_state()). -1 disables.
  std::int64_t crash_at_op = -1;
};

// Injected-fault tallies (process-wide, relaxed atomics underneath).
struct IoFaultCounts {
  std::uint64_t ops = 0;  // operations that rolled the dice
  std::uint64_t eintr = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t short_writes = 0;
  std::uint64_t truncated_reads = 0;
  std::uint64_t bitrots = 0;
  std::uint64_t enospc = 0;
  std::uint64_t fsync_failures = 0;
};

// Installs (nullptr uninstalls) the process-wide plan. The plan is not owned
// and must outlive the installation; install before I/O starts and uninstall
// after it drains (tests/harness do exactly that).
void install_io_fault_plan(const IoFaultPlan* plan) noexcept;
[[nodiscard]] const IoFaultPlan* io_fault_plan() noexcept;

[[nodiscard]] IoFaultCounts io_fault_counts() noexcept;
// Zeroes the counters and the operation ordinal, so each harness scenario
// starts from a reproducible state.
void reset_io_fault_state() noexcept;
// The next operation ordinal — with an all-zero-rates plan installed this
// measures how many faultable ops a workload performs, which is how the
// crash harness sizes its crash-point sweep.
[[nodiscard]] std::uint64_t io_fault_next_op() noexcept;

// ---- file handle ----------------------------------------------------------

// Move-only RAII fd wrapper. The destructor closes silently (best effort);
// call close() explicitly wherever its error matters — a durable write path
// must treat a failed close like a failed write.
class File {
 public:
  File() = default;
  ~File();
  File(File&& o) noexcept;
  File& operator=(File&& o) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  // O_WRONLY|O_CREAT|O_TRUNC — a fresh file (parent dir must exist).
  [[nodiscard]] static StatusOr<File> create(const std::string& path);
  // O_WRONLY|O_CREAT|O_APPEND — the WAL's append handle.
  [[nodiscard]] static StatusOr<File> open_append(const std::string& path);
  // O_RDONLY. ENOENT -> NOT_FOUND.
  [[nodiscard]] static StatusOr<File> open_read(const std::string& path);

  // Writes all n bytes (chunked; retries EINTR and short writes). On failure
  // a prefix may have landed — callers follow the tmp+rename discipline.
  [[nodiscard]] Status write(const void* p, std::size_t n);
  // Reads up to n bytes, returning the count actually read (< n only at end
  // of file or under an injected hard truncation).
  [[nodiscard]] StatusOr<std::size_t> read(void* p, std::size_t n);
  // fsync. Failure means durability is unknowable -> DATA_LOSS.
  [[nodiscard]] Status sync();
  [[nodiscard]] Status close();

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  File(int fd, std::string path);
  static StatusOr<File> open_with(const std::string& path, int flags,
                                  bool read_side);

  int fd_ = -1;
  std::string path_;
  std::uint32_t name_hash_ = 0;  // over the basename: stable across tmp dirs
};

// ---- whole-file helpers ---------------------------------------------------

// Reads the entire file. ENOENT -> NOT_FOUND; an injected hard truncation
// returns a prefix (the caller's codec must reject it, which is the point).
[[nodiscard]] StatusOr<std::vector<std::uint8_t>> read_file(
    const std::string& path);

// Plain create+write+close with every error propagated — for artifacts where
// atomicity is not needed (trace/metrics/bench JSON) but silent loss is
// unacceptable.
[[nodiscard]] Status write_file(const std::string& path, const void* data,
                                std::size_t n);
[[nodiscard]] Status write_text_file(const std::string& path,
                                     const std::string& text);

// The full crash-safe discipline: write `path`.tmp, fsync it, close it,
// rename over `path`, fsync the parent directory. Any failure removes the
// tmp file and leaves whatever was at `path` untouched.
[[nodiscard]] Status write_file_atomic(const std::string& path,
                                       const void* data, std::size_t n);

// ---- directory / metadata ops --------------------------------------------

[[nodiscard]] Status rename_file(const std::string& from,
                                 const std::string& to);
[[nodiscard]] Status remove_file(const std::string& path);  // ENOENT is ok
[[nodiscard]] Status fsync_parent_dir(const std::string& path);
[[nodiscard]] Status make_dir(const std::string& path);   // EEXIST is ok
[[nodiscard]] Status make_dirs(const std::string& path);  // mkdir -p
// Entry names (not paths), sorted, "." and ".." excluded.
[[nodiscard]] StatusOr<std::vector<std::string>> list_dir(
    const std::string& dir);
[[nodiscard]] StatusOr<std::uint64_t> file_size(const std::string& path);
[[nodiscard]] bool exists(const std::string& path) noexcept;

// Last path component ("/a/b/c.txt" -> "c.txt") and its complement
// ("/a/b/c.txt" -> "/a/b"; "c.txt" -> ".").
[[nodiscard]] std::string basename(const std::string& path);
[[nodiscard]] std::string dirname(const std::string& path);

}  // namespace udb::vfs
