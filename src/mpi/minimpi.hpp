// minimpi: an in-process message-passing runtime standing in for MPI (no MPI
// installation exists on this host — see DESIGN.md §2). Each rank runs in its
// own OS thread; point-to-point messages are tag-matched FIFO mailboxes;
// collectives are built on point-to-point exactly as small MPI
// implementations build them, and support contiguous sub-groups (what the
// sampling-based kd-partitioner needs for its recursive halving).
//
// Virtual time. The host has a single core, so wall-clock speedup of p
// threads is meaningless. Instead every rank carries a virtual clock:
//   * compute between communication calls is charged at the thread's real
//     CPU time (CLOCK_THREAD_CPUTIME_ID), i.e. the work it would do alone on
//     a dedicated node;
//   * a message arriving at a rank advances the receiver's clock to at least
//     the sender's send-time plus an alpha + bytes*beta transfer cost.
// The parallel runtime reported by the distributed benches is the makespan
// (maximum final virtual clock over ranks) — the standard simulation model
// for reproducing scalability *shape* without the paper's 32-node cluster.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "mpi/fault.hpp"

namespace udb::mpi {

struct CostModel {
  double alpha = 5e-6;  // per-message latency, seconds
  double beta = 1e-9;   // per-byte transfer time, seconds (~1 GB/s)
};

using Tag = std::uint32_t;
constexpr Tag kMaxUserTag = 1u << 20;  // tags above are reserved internally

// Per-rank communication totals, accumulated by the rank's own Comm (each
// Comm is confined to its rank thread, so these are plain counters). Drivers
// snapshot before/after a phase and subtract to attribute traffic per phase
// (obs run report, Table 7 per-rank splits). Collectives count as their
// constituent point-to-point messages — what the simulated transport moves.
struct CommStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_recv = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t retries = 0;   // ARQ retransmissions (reliable fault mode)
  std::uint64_t timeouts = 0;  // recv timeouts observed by this rank
};

inline CommStats operator-(const CommStats& a, const CommStats& b) {
  return {a.msgs_sent - b.msgs_sent,   a.bytes_sent - b.bytes_sent,
          a.msgs_recv - b.msgs_recv,   a.bytes_recv - b.bytes_recv,
          a.retries - b.retries,       a.timeouts - b.timeouts};
}

inline CommStats& operator+=(CommStats& a, const CommStats& b) {
  a.msgs_sent += b.msgs_sent;
  a.bytes_sent += b.bytes_sent;
  a.msgs_recv += b.msgs_recv;
  a.bytes_recv += b.bytes_recv;
  a.retries += b.retries;
  a.timeouts += b.timeouts;
  return a;
}

class Comm;

class Runtime {
 public:
  explicit Runtime(int nranks, CostModel cost = {});
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs fn(comm) on every rank, one thread per rank; blocks until all ranks
  // return. Rethrows the first rank exception (other ranks are unblocked via
  // mailbox poisoning). May be called repeatedly; virtual clocks reset per
  // call.
  void run(const std::function<void(Comm&)>& fn);

  [[nodiscard]] int size() const noexcept { return nranks_; }

  // Final virtual clock of each rank after the last run().
  [[nodiscard]] const std::vector<double>& virtual_times() const noexcept {
    return vtimes_;
  }
  // Makespan: max over ranks of the final virtual clock.
  [[nodiscard]] double makespan() const;

  // ---- fault injection (see mpi/fault.hpp, docs/FAULT_MODEL.md) ----------
  // Installs a fault plan for subsequent run() calls. With a plan installed,
  // a rank throwing RankCrashedError does not abort the run: its thread
  // exits, peers observe TimeoutError on recv, and the run completes with
  // the rank listed in crashed_ranks().
  void set_fault_plan(FaultPlan plan) { plan_ = std::move(plan); }
  [[nodiscard]] bool fault_mode() const noexcept { return plan_.has_value(); }

  // Ranks that died to an injected crash during the last run(), in crash
  // order, and the fault counters accumulated over that run.
  [[nodiscard]] const std::vector<int>& crashed_ranks() const noexcept {
    return crashed_;
  }
  [[nodiscard]] FaultCounts fault_counts() const noexcept;

 private:
  friend class Comm;
  struct Mailbox;

  enum class RankState : int { Running, Finished, Crashed };

  void mark_rank(int rank, RankState st);  // updates state, wakes all recvs

  int nranks_;
  CostModel cost_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<double> vtimes_;

  std::optional<FaultPlan> plan_;
  std::unique_ptr<std::atomic<int>[]> states_;  // RankState per rank
  std::atomic<bool> aborted_{false};
  std::mutex crashed_mu_;
  std::vector<int> crashed_;
  struct Counters {
    std::atomic<std::uint64_t> dropped{0}, delayed{0}, duplicated{0},
        corrupted{0}, retries{0}, crashes{0}, timeouts{0};
    void reset() noexcept;
  };
  Counters counters_;
};

class Comm {
 public:
  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return rt_->nranks_; }

  // ---- point to point --------------------------------------------------
  // Non-blocking enqueue (buffered send — no deadlock possible).
  template <typename T>
  void send(int dst, Tag tag, const std::vector<T>& data) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(data.size() * sizeof(T));
    if (!data.empty())
      std::memcpy(bytes.data(), data.data(), bytes.size());
    send_bytes(dst, tag, std::move(bytes));
  }

  // Blocking receive, FIFO per (src, tag).
  template <typename T>
  [[nodiscard]] std::vector<T> recv(int src, Tag tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes = recv_bytes(src, tag);
    if (bytes.size() % sizeof(T) != 0)
      throw std::runtime_error("minimpi: message size not a multiple of T");
    std::vector<T> data(bytes.size() / sizeof(T));
    if (!data.empty())
      std::memcpy(data.data(), bytes.data(), bytes.size());
    return data;
  }

  // ---- collectives (contiguous group [base, base+gsize)) ---------------
  // All ranks of the group must call with identical base/gsize. gsize = 0
  // (the default) means the full communicator.
  void barrier(int base = 0, int gsize = 0);

  template <typename T>
  std::vector<T> bcast(int root, std::vector<T> data, int base = 0,
                       int gsize = 0);

  // Concatenation of every group member's vector, in rank order. Also
  // returns per-rank counts if `counts` is non-null.
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& mine,
                            std::vector<std::size_t>* counts = nullptr,
                            int base = 0, int gsize = 0);

  double allreduce_min(double v, int base = 0, int gsize = 0);
  double allreduce_max(double v, int base = 0, int gsize = 0);
  double allreduce_sum(double v, int base = 0, int gsize = 0);
  std::int64_t allreduce_sum(std::int64_t v, int base = 0, int gsize = 0);

  // Full-communicator personalized exchange: out[i] goes to rank i; returns
  // in[j] received from rank j.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& out);

  // ---- communication accounting ----------------------------------------
  // Running totals since the Comm was created. Snapshot-and-subtract with
  // CommStats::operator- for per-phase attribution.
  [[nodiscard]] const CommStats& comm_stats() const noexcept { return stats_; }

  // ---- virtual time ----------------------------------------------------
  // Current virtual time of this rank (charges accumulated CPU first).
  [[nodiscard]] double vtime();
  // Adds `seconds` of modeled (non-CPU) work — e.g. I/O the paper excludes.
  void charge(double seconds);

  // ---- fault injection -------------------------------------------------
  // Named fault point: drivers annotate phase boundaries so a FaultPlan can
  // crash a rank at a precise, deterministic place. No-op without a plan.
  void fault_point(const std::string& name);
  // Wakes every blocked recv in the runtime with AttemptAbortedError. Used
  // by fault-tolerant drivers to unwind a failed attempt without deadlock.
  void abort_attempt();

 private:
  friend class Runtime;
  Comm(Runtime* rt, int rank);

  void send_bytes(int dst, Tag tag, std::vector<std::byte> bytes);
  std::vector<std::byte> recv_bytes(int src, Tag tag);
  void settle_cpu();   // fold thread CPU since last mark into vtime_
  void maybe_crash();  // at_vtime crash specs; call after settle_cpu

  [[nodiscard]] int group_size(int gsize) const noexcept {
    return gsize == 0 ? rt_->nranks_ : gsize;
  }

  Runtime* rt_;
  int rank_;
  double vtime_ = 0.0;
  double cpu_mark_ = 0.0;
  CommStats stats_;  // rank-thread-confined, see CommStats
  // Fault state (all unused without a plan).
  double slow_factor_ = 1.0;
  double crash_at_vtime_ = -1.0;
  std::uint64_t send_seq_ = 0;
  std::map<std::string, int> fault_point_counts_;
  // All collectives share one reserved tag: matching is FIFO per ordered
  // (sender, receiver) pair, and every pair's send/recv sequences align in
  // program order — this stays correct even when sub-groups execute
  // different numbers of collectives (e.g. uneven kd-partition recursion).
  static constexpr Tag kInternalTag = kMaxUserTag;
};

// ---- template bodies that need Comm complete ----------------------------

template <typename T>
std::vector<T> Comm::bcast(int root, std::vector<T> data, int base,
                           int gsize) {
  const int g = group_size(gsize);
  const Tag tag = kInternalTag;
  if (rank_ == root) {
    for (int r = base; r < base + g; ++r)
      if (r != root) send(r, tag, data);
    return data;
  }
  return recv<T>(root, tag);
}

template <typename T>
std::vector<T> Comm::allgatherv(const std::vector<T>& mine,
                                std::vector<std::size_t>* counts, int base,
                                int gsize) {
  const int g = group_size(gsize);
  const Tag tag = kInternalTag;
  const Tag tag2 = kInternalTag;
  std::vector<T> all;
  std::vector<std::uint64_t> sizes;
  if (rank_ == base) {
    std::vector<std::vector<T>> parts(static_cast<std::size_t>(g));
    parts[0] = mine;
    for (int r = base + 1; r < base + g; ++r)
      parts[static_cast<std::size_t>(r - base)] = recv<T>(r, tag);
    for (const auto& part : parts) {
      sizes.push_back(part.size());
      all.insert(all.end(), part.begin(), part.end());
    }
    for (int r = base + 1; r < base + g; ++r) {
      send(r, tag2, sizes);
      send(r, static_cast<Tag>(tag2), all);
    }
  } else {
    send(base, tag, mine);
    sizes = recv<std::uint64_t>(base, tag2);
    all = recv<T>(base, tag2);
  }
  if (counts) counts->assign(sizes.begin(), sizes.end());
  return all;
}

template <typename T>
std::vector<std::vector<T>> Comm::alltoallv(
    const std::vector<std::vector<T>>& out) {
  const int p = rt_->nranks_;
  if (static_cast<int>(out.size()) != p)
    throw std::invalid_argument("alltoallv: need one vector per rank");
  const Tag tag = kInternalTag;
  for (int r = 0; r < p; ++r) send(r, tag, out[static_cast<std::size_t>(r)]);
  std::vector<std::vector<T>> in(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) in[static_cast<std::size_t>(r)] = recv<T>(r, tag);
  return in;
}

}  // namespace udb::mpi
