// RetryingClient — the production-facing client wrapper: per-request
// deadlines, exponential backoff with deterministic jitter, automatic
// reconnect, and replica failover (docs/SERVING.md, failure-mode matrix).
//
// Retry safety: every protocol request is read-only against an immutable
// ClusterModel snapshot, so at-least-once delivery is harmless — a retried
// classify returns the same answer. Retries reuse the original request id,
// so a retry is recognizably the *same* request end to end (and shows up
// that way in traces and packet captures).
//
// Retryable failures, and only these:
//   UNAVAILABLE        transport drop / refused connect   -> reconnect+retry
//   DEADLINE_EXCEEDED  socket recv timeout                -> reconnect+retry
//   DATA_LOSS          frame corrupted in either direction-> retry (the CRC
//                      caught it before any wrong answer could surface)
//   RESOURCE_EXHAUSTED server shed the request/connection -> back off, prefer
//                      another replica
// Everything else (INVALID_ARGUMENT, NOT_FOUND, UNIMPLEMENTED, ...) is the
// caller's answer and is returned on the first attempt.

#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace udb::serve {

struct RetryPolicy {
  int max_attempts = 4;                   // total tries, not re-tries
  double initial_backoff_seconds = 0.05;  // doubles per retry ...
  double max_backoff_seconds = 2.0;       // ... capped here
  // Deterministic jitter stream: each sleep is scaled by a factor in
  // [0.5, 1.0) drawn from an LCG seeded here, so tests replay exactly.
  std::uint64_t jitter_seed = 1;
  double timeout_seconds = 5.0;  // per-attempt connect/send/recv bound
};

// True for the status codes the policy above may retry.
[[nodiscard]] bool retryable_status(StatusCode code) noexcept;

class RetryingClient : public ClientCalls {
 public:
  // `ports` are replicas serving the same model snapshot, tried in order
  // starting from the first; on failure the client rotates to the next.
  // With a tracer, every logical request derives a deterministic trace id
  // (from the jitter seed and the request id), records client.attempt /
  // client.backoff spans under it, and ships it on the traced envelope so
  // the server's spans for the same request carry the same id.
  explicit RetryingClient(std::vector<std::uint16_t> ports,
                          RetryPolicy policy = {},
                          obs::MetricsRegistry* metrics = nullptr,
                          obs::Tracer* tracer = nullptr);

  // Core retry loop. A non-retryable server-side error comes back as an OK
  // StatusOr whose Response carries code != kOk, exactly like Client. The
  // typed calls (ping ... telemetry_text) come from ClientCalls.
  [[nodiscard]] StatusOr<Response> roundtrip(const Request& req) override;

  // The client-side stats document (schema_version 2, tool
  // "udbscan_client"): the shared report schema over this client's metrics
  // registry plus its own rolling windows (requests / errors / retries /
  // failovers and end-to-end request latency, attempts included).
  [[nodiscard]] std::string client_stats_json() const;

  // Observability for tests and the fault harness.
  [[nodiscard]] std::size_t endpoint_index() const noexcept {
    return endpoint_;
  }
  [[nodiscard]] bool connected() const noexcept { return client_.has_value(); }

 private:
  Status ensure_connected();
  void advance_endpoint();
  void backoff_sleep(int retry_number, std::uint64_t trace_id);
  [[nodiscard]] std::uint64_t now_us() const;

  std::vector<std::uint16_t> ports_;
  RetryPolicy policy_;
  obs::MetricsRegistry* metrics_;  // optional, not owned
  obs::Tracer* tracer_;            // optional, not owned
  std::optional<Client> client_;
  std::size_t endpoint_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t jitter_state_;
  obs::SlidingWindow window_;  // per-logical-request rolling stats
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace udb::serve
