// Deterministic fault injection for the minimpi runtime (see
// docs/FAULT_MODEL.md). A FaultPlan installed on a Runtime turns on:
//
//   * message faults — every send rolls seeded, per-message decisions to
//     drop, delay, duplicate, or corrupt the payload. Decisions depend only
//     on (seed, src, dst, tag, per-sender sequence number), never on wall
//     time or thread scheduling, so a fixed seed reproduces the same fault
//     pattern on every run;
//   * rank faults — a chosen rank crashes at a named fault point (the
//     drivers annotate their phase boundaries with Comm::fault_point) or
//     once its virtual clock passes a threshold, and a rank can be slowed
//     by a CPU-charge multiplier;
//   * failure detection — recv gains a deadline: if the peer has crashed or
//     finished without sending (detected immediately), or the real-time
//     timeout elapses, recv throws a typed TimeoutError instead of hanging;
//   * reliable transport — an optional ack/retry protocol: lost or
//     checksum-corrupted transmissions are retransmitted with bounded
//     exponential backoff, every retry charged to the sender's virtual
//     clock, and duplicates are suppressed, so the cost model stays honest.
//
// Without a plan installed the runtime behaves exactly as before — every
// fault path is behind a single branch on the plan pointer.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace udb::mpi {

// ---- typed failures ------------------------------------------------------

// recv gave up: the peer crashed/finished without sending, or the real-time
// deadline elapsed. The detection latency is charged to virtual time.
class TimeoutError : public std::runtime_error {
 public:
  TimeoutError(int src, std::uint32_t tag)
      : std::runtime_error("minimpi: recv timeout waiting for rank " +
                           std::to_string(src) + " tag " +
                           std::to_string(tag)),
        src_(src),
        tag_(tag) {}
  [[nodiscard]] int src() const noexcept { return src_; }
  [[nodiscard]] std::uint32_t tag() const noexcept { return tag_; }

 private:
  int src_;
  std::uint32_t tag_;
};

// Thrown *inside* the crashed rank by an injected crash fault. The runtime
// treats it as a rank death: the thread exits, peers see timeouts, the run
// completes and reports the rank in Runtime::crashed_ranks().
class RankCrashedError : public std::runtime_error {
 public:
  explicit RankCrashedError(const std::string& what)
      : std::runtime_error("minimpi: injected crash: " + what) {}
};

// A peer called Comm::abort_attempt(): every blocked recv wakes with this so
// a failed collective attempt unwinds cleanly instead of deadlocking.
class AttemptAbortedError : public std::runtime_error {
 public:
  AttemptAbortedError() : std::runtime_error("minimpi: attempt aborted") {}
};

// Reliable transport exhausted its retransmissions.
class SendFailedError : public std::runtime_error {
 public:
  SendFailedError(int dst, int attempts)
      : std::runtime_error("minimpi: send to rank " + std::to_string(dst) +
                           " failed after " + std::to_string(attempts) +
                           " attempts") {}
};

// ---- fault plan ----------------------------------------------------------

struct MessageFaultConfig {
  double drop_rate = 0.0;     // transmission lost
  double delay_rate = 0.0;    // transmission arrives late
  double dup_rate = 0.0;      // transmission delivered twice
  double corrupt_rate = 0.0;  // payload bytes flipped in flight
  double delay_seconds = 1e-3;  // extra virtual latency of a delayed message
};

struct CrashSpec {
  int rank = -1;
  // Crash when this rank passes the named fault point for the
  // `occurrence`-th time (phase-precise, deterministic)...
  std::string at_point;
  int occurrence = 1;
  // ...or once its virtual clock reaches at_vtime (>= 0 enables; approximate
  // because virtual time includes measured CPU time).
  double at_vtime = -1.0;
};

struct SlowSpec {
  int rank = -1;
  double factor = 1.0;  // multiplier on the rank's CPU virtual-time charges
};

struct FaultPlan {
  std::uint64_t seed = 0;
  MessageFaultConfig msg;
  std::vector<CrashSpec> crashes;
  std::vector<SlowSpec> slowdowns;

  // Ack/retry transport: each transmission attempt is independently lost or
  // corrupted; a failed attempt costs the current retransmission timeout
  // (exponential backoff, capped) in sender virtual time. Corruption is
  // caught by checksum and duplicates are suppressed by sequence numbers, so
  // with reliable transport the application always sees each message exactly
  // once, intact — it only pays for the repair in virtual time.
  bool reliable = false;
  int max_retries = 10;
  double rto_initial = 1e-4;  // seconds of virtual time, doubles per retry
  double rto_max = 1e-1;

  // recv deadline. Real seconds the receiver will block before giving up
  // (< 0: block forever, peer-death detection still applies) and the virtual
  // time a detected timeout costs (the modeled failure-detection latency).
  double recv_timeout_real = 5.0;
  double recv_timeout_vtime = 1e-2;

  // False for a plan that can inject nothing: no crash, no slowdown and all
  // four message rates zero. Installing such a plan would change only the
  // recv timeout, so the distributed driver leaves it uninstalled.
  [[nodiscard]] bool injects_faults() const noexcept {
    return !crashes.empty() || !slowdowns.empty() || msg.drop_rate > 0.0 ||
           msg.delay_rate > 0.0 || msg.dup_rate > 0.0 ||
           msg.corrupt_rate > 0.0;
  }
};

// Per-run fault counters (snapshot; the live counters sit in the Runtime).
struct FaultCounts {
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t retries = 0;
  std::uint64_t crashes = 0;
  std::uint64_t timeouts = 0;

  FaultCounts& operator+=(const FaultCounts& o) noexcept {
    dropped += o.dropped;
    delayed += o.delayed;
    duplicated += o.duplicated;
    corrupted += o.corrupted;
    retries += o.retries;
    crashes += o.crashes;
    timeouts += o.timeouts;
    return *this;
  }
};

// ---- deterministic decision stream ---------------------------------------

// SplitMix64 finalizer: the per-message fault hash. Chained so every field
// perturbs the whole state.
[[nodiscard]] constexpr std::uint64_t fault_mix(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

[[nodiscard]] constexpr std::uint64_t fault_hash(std::uint64_t seed, int src,
                                                 int dst, std::uint32_t tag,
                                                 std::uint64_t seq,
                                                 std::uint64_t salt) noexcept {
  std::uint64_t h = fault_mix(seed + 0x9e3779b97f4a7c15ULL);
  h = fault_mix(h ^ (static_cast<std::uint64_t>(src) + 1));
  h = fault_mix(h ^ ((static_cast<std::uint64_t>(dst) + 1) << 20));
  h = fault_mix(h ^ tag);
  h = fault_mix(h ^ seq);
  h = fault_mix(h ^ salt);
  return h;
}

// Uniform double in [0, 1) from a hash.
[[nodiscard]] constexpr double fault_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace udb::mpi
