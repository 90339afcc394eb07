// Deterministic fault injection for the serving transport (serve/net.*) —
// the TCP counterpart of the minimpi fault runtime (mpi/fault.hpp,
// docs/FAULT_MODEL.md). An installed NetFaultPlan turns every frame
// operation into a seeded dice roll:
//
//   * write faults — a frame leaving through write_frame can be delayed,
//     corrupted (one payload byte flipped — what the frame CRC must
//     catch), truncated (a prefix crosses the wire, then the connection
//     closes), or dropped (the connection is shut down before sending);
//   * read faults — a frame arriving through read_frame can be delayed,
//     corrupted after reception, truncated (surfaces as DATA_LOSS, exactly
//     like a peer dying mid-frame), or dropped (connection shut down);
//   * connection crash points — the plan can name one connection by its
//     creation ordinal and kill it after a fixed number of frame operations,
//     which is how the harness scripts "server dies mid-batch"
//     deterministically.
//
// Decisions depend only on (seed, connection ordinal, per-connection
// operation sequence, direction), never on wall time, so a fixed seed
// replays the same fault pattern whenever connections are created in a
// deterministic order (single-threaded harness traffic guarantees this;
// concurrent clients get per-connection determinism).
//
// Without a plan installed the fast path is one relaxed atomic load per
// frame operation — the same zero-cost-when-unset contract as the minimpi
// runtime's plan pointer.

#pragma once

#include <cstdint>

#include "mpi/fault.hpp"  // fault_hash / fault_unit: the shared decision stream

namespace udb::serve {

// Per-direction fault rates, rolled once per frame operation.
struct NetOpFaults {
  double drop_rate = 0.0;      // connection shut down instead of the op
  double corrupt_rate = 0.0;   // one frame-body byte flipped
  double truncate_rate = 0.0;  // partial frame, then connection close
  double delay_rate = 0.0;     // op delayed by delay_seconds (real time)
  double delay_seconds = 2e-3;
};

struct NetFaultPlan {
  std::uint64_t seed = 0;
  NetOpFaults read;
  NetOpFaults write;

  // Crash point: the `crash_conn`-th faultable connection (0-based, in
  // creation order) is shut down just before its `crash_after_ops`-th frame
  // operation (reads and writes both count). -1 disables.
  std::int64_t crash_conn = -1;
  std::uint64_t crash_after_ops = 0;
};

// Injected-fault tallies (process-wide, relaxed atomics underneath).
struct NetFaultCounts {
  std::uint64_t ops = 0;  // frame operations that rolled the dice
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t truncated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t crashed = 0;
};

// Installs (nullptr uninstalls) the process-wide plan. The plan is not owned
// and must outlive the installation; install before traffic starts and
// uninstall after it drains (tests/harness do exactly that).
void install_net_fault_plan(const NetFaultPlan* plan) noexcept;
[[nodiscard]] const NetFaultPlan* net_fault_plan() noexcept;

[[nodiscard]] NetFaultCounts net_fault_counts() noexcept;
// Zeroes the counters and restarts connection-ordinal assignment, so each
// scenario in a harness run starts from a reproducible state.
void reset_net_fault_state() noexcept;

// Internal to net.cpp: claims the next connection ordinal.
[[nodiscard]] std::int64_t next_net_fault_conn_id() noexcept;
// Internal to net.cpp: bumps one tally.
enum class NetFaultKind { kOp, kDrop, kCorrupt, kTruncate, kDelay, kCrash };
void count_net_fault(NetFaultKind kind) noexcept;

}  // namespace udb::serve
