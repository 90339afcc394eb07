#include "common/vfs.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "mpi/fault.hpp"  // fault_hash / fault_unit: the shared decision stream

namespace udb::vfs {

namespace {

// ---- fault state ----------------------------------------------------------

std::atomic<const IoFaultPlan*> g_plan{nullptr};
std::atomic<std::uint64_t> g_op_seq{0};

struct Counts {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> eintr{0};
  std::atomic<std::uint64_t> short_reads{0};
  std::atomic<std::uint64_t> short_writes{0};
  std::atomic<std::uint64_t> truncated_reads{0};
  std::atomic<std::uint64_t> bitrots{0};
  std::atomic<std::uint64_t> enospc{0};
  std::atomic<std::uint64_t> fsync_failures{0};
};
Counts g_counts;

// Operation kinds feed the decision hash so the same ordinal rolls different
// dice for a read than for an fsync.
enum class IoOp : int {
  kOpen = 1,
  kRead,
  kWrite,
  kFsync,
  kDirFsync,
  kRename,
  kRemove,
  kMkdir,
  kList,
};

// One dice roll per VFS operation. h == 0 means "no plan installed" (the
// hash itself can never be 0 for practical purposes; we carry the plan
// pointer alongside to be precise).
struct OpRoll {
  const IoFaultPlan* plan = nullptr;
  std::uint64_t h = 0;

  [[nodiscard]] bool decide(double IoFaultPlan::*rate,
                            std::uint64_t salt) const noexcept {
    if (plan == nullptr || plan->*rate <= 0.0) return false;
    return mpi::fault_unit(mpi::fault_mix(h + salt)) < plan->*rate;
  }
};

// Counts the op, fires the crash point, and derives the decision hash.
// Decisions depend only on (seed, op kind, basename hash, ordinal) — stable
// across runs that perform the same operation sequence.
OpRoll roll(IoOp op, std::uint32_t name_hash) noexcept {
  const IoFaultPlan* plan = g_plan.load(std::memory_order_relaxed);
  if (plan == nullptr) return {};
  const std::uint64_t seq = g_op_seq.fetch_add(1, std::memory_order_relaxed);
  g_counts.ops.fetch_add(1, std::memory_order_relaxed);
  if (plan->crash_at_op >= 0 &&
      seq == static_cast<std::uint64_t>(plan->crash_at_op)) {
    // Simulated power loss: no destructors, no buffers flushed, the op never
    // executes. Everything already written by *completed* chunk ops is on
    // disk (or in the page cache — the discipline under test must not care).
    std::_Exit(kIoCrashExit);
  }
  OpRoll r;
  r.plan = plan;
  r.h = mpi::fault_hash(plan->seed, static_cast<int>(op), 0, name_hash, seq,
                        /*salt=*/0x10F5);
  return r;
}

std::uint32_t hash_basename(const std::string& path) noexcept {
  const std::size_t slash = path.find_last_of('/');
  const char* p = path.c_str() + (slash == std::string::npos ? 0 : slash + 1);
  std::uint32_t h = 2166136261u;  // FNV-1a 32
  for (; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 16777619u;
  }
  return h;
}

// ---- errno mapping --------------------------------------------------------

Status errno_write_error(const std::string& what, const std::string& path,
                         int err) {
  const std::string msg =
      "vfs: " + what + " failed for " + path + ": " + std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) return ResourceExhaustedError(msg);
  return InternalError(msg);
}

Status errno_read_error(const std::string& what, const std::string& path,
                        int err) {
  const std::string msg =
      "vfs: " + what + " failed for " + path + ": " + std::strerror(err);
  if (err == ENOENT) return NotFoundError(msg);
  return InternalError(msg);
}

}  // namespace

StatusOr<File> File::open_with(const std::string& path, int flags,
                               bool read_side) {
  (void)roll(IoOp::kOpen, hash_basename(path));
  int fd = -1;
  do {
    fd = ::open(path.c_str(), flags, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0)
    return read_side ? errno_read_error("open", path, errno)
                     : errno_write_error("open", path, errno);
  return File(fd, path);
}

void install_io_fault_plan(const IoFaultPlan* plan) noexcept {
  g_plan.store(plan, std::memory_order_release);
}

const IoFaultPlan* io_fault_plan() noexcept {
  return g_plan.load(std::memory_order_acquire);
}

IoFaultCounts io_fault_counts() noexcept {
  IoFaultCounts c;
  c.ops = g_counts.ops.load(std::memory_order_relaxed);
  c.eintr = g_counts.eintr.load(std::memory_order_relaxed);
  c.short_reads = g_counts.short_reads.load(std::memory_order_relaxed);
  c.short_writes = g_counts.short_writes.load(std::memory_order_relaxed);
  c.truncated_reads = g_counts.truncated_reads.load(std::memory_order_relaxed);
  c.bitrots = g_counts.bitrots.load(std::memory_order_relaxed);
  c.enospc = g_counts.enospc.load(std::memory_order_relaxed);
  c.fsync_failures = g_counts.fsync_failures.load(std::memory_order_relaxed);
  return c;
}

void reset_io_fault_state() noexcept {
  g_op_seq.store(0, std::memory_order_relaxed);
  g_counts.ops.store(0, std::memory_order_relaxed);
  g_counts.eintr.store(0, std::memory_order_relaxed);
  g_counts.short_reads.store(0, std::memory_order_relaxed);
  g_counts.short_writes.store(0, std::memory_order_relaxed);
  g_counts.truncated_reads.store(0, std::memory_order_relaxed);
  g_counts.bitrots.store(0, std::memory_order_relaxed);
  g_counts.enospc.store(0, std::memory_order_relaxed);
  g_counts.fsync_failures.store(0, std::memory_order_relaxed);
}

std::uint64_t io_fault_next_op() noexcept {
  return g_op_seq.load(std::memory_order_relaxed);
}

// ---- File -----------------------------------------------------------------

File::File(int fd, std::string path)
    : fd_(fd), path_(std::move(path)), name_hash_(hash_basename(path_)) {}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

File::File(File&& o) noexcept
    : fd_(o.fd_), path_(std::move(o.path_)), name_hash_(o.name_hash_) {
  o.fd_ = -1;
}

File& File::operator=(File&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = o.fd_;
    path_ = std::move(o.path_);
    name_hash_ = o.name_hash_;
    o.fd_ = -1;
  }
  return *this;
}

StatusOr<File> File::create(const std::string& path) {
  return open_with(path, O_WRONLY | O_CREAT | O_TRUNC, /*read_side=*/false);
}

StatusOr<File> File::open_append(const std::string& path) {
  return open_with(path, O_WRONLY | O_CREAT | O_APPEND, /*read_side=*/false);
}

StatusOr<File> File::open_read(const std::string& path) {
  return open_with(path, O_RDONLY, /*read_side=*/true);
}

Status File::write(const void* p, std::size_t n) {
  if (fd_ < 0) return InternalError("vfs: write on closed file " + path_);
  const auto* cur = static_cast<const std::uint8_t*>(p);
  std::size_t remaining = n;
  while (remaining > 0) {
    const OpRoll r = roll(IoOp::kWrite, name_hash_);
    if (r.decide(&IoFaultPlan::eintr_rate, 1)) {
      // Simulated EINTR before any bytes moved; the loop simply retries with
      // a fresh roll, which is exactly what the syscall loop below does for
      // a real EINTR.
      g_counts.eintr.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::size_t want = std::min(kIoChunk, remaining);
    if (r.decide(&IoFaultPlan::enospc_rate, 2)) {
      // Half the chunk lands, then the device is full — the torn-prefix
      // shape a real ENOSPC produces.
      const std::size_t landed = want / 2;
      ssize_t w = 0;
      do {
        w = ::write(fd_, cur, landed);
      } while (w < 0 && errno == EINTR);
      (void)w;  // the prefix is best-effort: the op fails either way
      g_counts.enospc.fetch_add(1, std::memory_order_relaxed);
      return ResourceExhaustedError("vfs: write failed for " + path_ +
                                    ": No space left on device (injected)");
    }
    if (r.decide(&IoFaultPlan::short_write_rate, 3)) {
      want = (want + 1) / 2;
      g_counts.short_writes.fetch_add(1, std::memory_order_relaxed);
    }
    const ssize_t w = ::write(fd_, cur, want);
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno_write_error("write", path_, errno);
    }
    cur += w;
    remaining -= static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

StatusOr<std::size_t> File::read(void* p, std::size_t n) {
  if (fd_ < 0) return InternalError("vfs: read on closed file " + path_);
  auto* cur = static_cast<std::uint8_t*>(p);
  std::size_t got = 0;
  while (got < n) {
    const OpRoll r = roll(IoOp::kRead, name_hash_);
    if (r.decide(&IoFaultPlan::eintr_rate, 1)) {
      g_counts.eintr.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (r.decide(&IoFaultPlan::read_truncate_rate, 2)) {
      // Hard truncation: the rest of the file "is not there" — the caller
      // sees a clean short file, the same observable as a torn write that
      // was never fsynced.
      g_counts.truncated_reads.fetch_add(1, std::memory_order_relaxed);
      return got;
    }
    std::size_t want = std::min(kIoChunk, n - got);
    if (r.decide(&IoFaultPlan::short_read_rate, 3)) {
      want = (want + 1) / 2;
      g_counts.short_reads.fetch_add(1, std::memory_order_relaxed);
    }
    const ssize_t rd = ::read(fd_, cur + got, want);
    if (rd < 0) {
      if (errno == EINTR) continue;
      return errno_read_error("read", path_, errno);
    }
    if (rd == 0) break;  // real EOF
    if (r.decide(&IoFaultPlan::bitrot_rate, 4)) {
      // One flipped bit inside the chunk just read — what CRC/checksum
      // verification on every load path must catch.
      const std::uint64_t bit =
          mpi::fault_mix(r.h + 5) % (static_cast<std::uint64_t>(rd) * 8);
      cur[got + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      g_counts.bitrots.fetch_add(1, std::memory_order_relaxed);
    }
    got += static_cast<std::size_t>(rd);
  }
  return got;
}

Status File::sync() {
  if (fd_ < 0) return InternalError("vfs: sync on closed file " + path_);
  const OpRoll r = roll(IoOp::kFsync, name_hash_);
  const int rc = ::fsync(fd_);
  if (r.decide(&IoFaultPlan::fsync_fail_rate, 1)) {
    g_counts.fsync_failures.fetch_add(1, std::memory_order_relaxed);
    return DataLossError("vfs: fsync failed for " + path_ +
                         ": I/O error (injected) — durability unknown");
  }
  if (rc != 0)
    return DataLossError("vfs: fsync failed for " + path_ + ": " +
                         std::strerror(errno) + " — durability unknown");
  return Status::Ok();
}

Status File::close() {
  if (fd_ < 0) return Status::Ok();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0)
    return errno_write_error("close", path_, errno);
  return Status::Ok();
}

// ---- whole-file helpers ---------------------------------------------------

StatusOr<std::vector<std::uint8_t>> read_file(const std::string& path) {
  auto f = File::open_read(path);
  if (!f.ok()) return f.status();
  auto size = file_size(path);
  if (!size.ok()) return size.status();
  std::vector<std::uint8_t> out(static_cast<std::size_t>(*size));
  auto got = f->read(out.data(), out.size());
  if (!got.ok()) return got.status();
  out.resize(*got);  // injected truncation (or a racing truncate) shortens it
  Status cs = f->close();
  if (!cs.ok()) return cs;
  return out;
}

Status write_file(const std::string& path, const void* data, std::size_t n) {
  auto f = File::create(path);
  if (!f.ok()) return f.status();
  if (Status s = f->write(data, n); !s.ok()) {
    (void)f->close();
    return s;
  }
  return f->close();
}

Status write_text_file(const std::string& path, const std::string& text) {
  return write_file(path, text.data(), text.size());
}

Status write_file_atomic(const std::string& path, const void* data,
                         std::size_t n) {
  const std::string tmp = path + ".tmp";
  auto cleanup = [&tmp](Status s) {
    (void)remove_file(tmp);
    return s;
  };
  auto f = File::create(tmp);
  if (!f.ok()) return f.status();
  if (Status s = f->write(data, n); !s.ok()) {
    (void)f->close();
    return cleanup(std::move(s));
  }
  if (Status s = f->sync(); !s.ok()) {
    (void)f->close();
    return cleanup(std::move(s));
  }
  if (Status s = f->close(); !s.ok()) return cleanup(std::move(s));
  if (Status s = rename_file(tmp, path); !s.ok()) return cleanup(std::move(s));
  // The rename has landed; a dir-fsync failure no longer rolls it back, but
  // the caller must know the publish may not survive power loss.
  return fsync_parent_dir(path);
}

// ---- directory / metadata ops --------------------------------------------

Status rename_file(const std::string& from, const std::string& to) {
  (void)roll(IoOp::kRename, hash_basename(to));
  if (::rename(from.c_str(), to.c_str()) != 0)
    return errno_write_error("rename to " + to + " from", from, errno);
  return Status::Ok();
}

Status remove_file(const std::string& path) {
  (void)roll(IoOp::kRemove, hash_basename(path));
  if (::unlink(path.c_str()) != 0 && errno != ENOENT)
    return errno_write_error("unlink", path, errno);
  return Status::Ok();
}

Status fsync_parent_dir(const std::string& path) {
  const std::string dir = dirname(path);
  const OpRoll r = roll(IoOp::kDirFsync, hash_basename(dir));
  int fd = -1;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return errno_write_error("open(dir)", dir, errno);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (r.decide(&IoFaultPlan::fsync_fail_rate, 1)) {
    g_counts.fsync_failures.fetch_add(1, std::memory_order_relaxed);
    return DataLossError("vfs: fsync failed for directory " + dir +
                         ": I/O error (injected) — durability unknown");
  }
  if (rc != 0)
    return DataLossError("vfs: fsync failed for directory " + dir + ": " +
                         std::strerror(err) + " — durability unknown");
  return Status::Ok();
}

Status make_dir(const std::string& path) {
  (void)roll(IoOp::kMkdir, hash_basename(path));
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
    return errno_write_error("mkdir", path, errno);
  return Status::Ok();
}

Status make_dirs(const std::string& path) {
  if (path.empty()) return InvalidArgumentError("make_dirs: empty path");
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    const std::string prefix =
        pos == std::string::npos ? path : path.substr(0, pos);
    if (prefix.empty() || prefix == "/" || prefix == ".") continue;
    if (Status s = make_dir(prefix); !s.ok()) return s;
  }
  return Status::Ok();
}

StatusOr<std::vector<std::string>> list_dir(const std::string& dir) {
  (void)roll(IoOp::kList, hash_basename(dir));
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return errno_read_error("opendir", dir, errno);
  std::vector<std::string> out;
  while (const dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<std::uint64_t> file_size(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0)
    return errno_read_error("stat", path, errno);
  return static_cast<std::uint64_t>(st.st_size);
}

bool exists(const std::string& path) noexcept {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

std::string basename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string dirname(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace udb::vfs
