// QueryServer — the loopback TCP front end over a ServedModel
// (docs/SERVING.md): one accept thread, one worker thread per connection,
// length-prefixed binary frames (protocol.hpp). Designed for the repo's
// operational envelope — a handful of trusted local clients — not the open
// internet: loopback-only bind, hard frame/batch caps, per-request deadline.
//
// Concurrency model:
//   * A request handler copies the current model's shared_ptr (one
//     reference-count increment under ServedModel's mutex) and keeps it
//     alive for the whole request, so refresh() can swap in a successor at
//     any time without quiescing.
//   * The optional ThreadPool accelerates large classify batches. The pool
//     runs one job at a time (common/parallel.hpp), so concurrent connections
//     take pool_mu_ before fanning out; small batches classify inline and
//     skip the lock entirely.
//   * Every request is metered (serve_requests / serve_errors counters,
//     serve_request_us histogram) into the server's MetricsRegistry, which
//     the kStats request serializes — that JSON is what the bench and the CI
//     smoke job assert the classify ledger invariant on.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/model.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace udb::serve {

struct ServerConfig {
  std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral port
  // Per-request wall-clock deadline enforced via a RunGuard on the classify
  // path (cooperative per-chunk checkpoints); 0 = none. A tripped deadline
  // answers DEADLINE_EXCEEDED and bumps serve_deadline_exceeded.
  double request_deadline_seconds = 0.0;
  // Worker pool for large classify batches; <= 1 = classify inline.
  unsigned pool_threads = 0;
  // Batches with at least this many points fan out over the pool.
  std::size_t parallel_batch_threshold = 512;
  obs::Tracer* tracer = nullptr;  // optional, not owned
  // Trace "process" id stamped on this server's spans (obs::set_trace_pid),
  // so a merged client + replicas Chrome trace renders each replica as its
  // own process track. 0 = the default (client) track.
  int trace_pid = 0;

  // ---- overload protection (docs/SERVING.md failure-mode matrix) ---------
  // Connection budget: a connection accepted while this many are already
  // open is answered with one RESOURCE_EXHAUSTED shed frame and closed
  // (serve_shed_connections). 0 = unlimited.
  std::size_t max_connections = 0;
  // In-flight request budget across all connections: a request that would
  // exceed it is answered RESOURCE_EXHAUSTED without any model work
  // (serve_shed_load) — the client's cue to back off. An admitted request
  // holds its slot until its response is flushed. 0 = unlimited.
  std::size_t max_inflight = 0;
  // Per-connection idle timeout: a peer that sends no frame for this long
  // is disconnected (serve_idle_disconnects), so half-open or stalled
  // clients cannot pin worker threads forever. 0 = none.
  double idle_timeout_seconds = 0.0;
  // Request-buffer memory budget, charged to the server's RunGuard per
  // in-flight frame; a frame whose bytes would exceed it is shed
  // RESOURCE_EXHAUSTED (serve_shed_load). 0 = unlimited.
  std::size_t memory_budget_bytes = 0;
};

class QueryServer {
 public:
  explicit QueryServer(std::shared_ptr<const ClusterModel> model,
                       ServerConfig cfg = {});
  ~QueryServer();  // stop()s if still running
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, listens, and spawns the accept thread. Fails cleanly if the port
  // is taken.
  [[nodiscard]] Status start();
  // Idempotent: unblocks the accept thread and every in-flight connection,
  // then joins them all.
  void stop();

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] bool running() const noexcept { return running_; }

  // Swaps the served model; in-flight requests finish on the old one.
  void refresh(std::shared_ptr<const ClusterModel> m);
  [[nodiscard]] std::shared_ptr<const ClusterModel> model() const {
    return served_.get();
  }

  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  // The kStats response document: model facts + serve ledger + live
  // telemetry + full metrics snapshot, rendered through the unified
  // stats_document_json builder (schema_version 2; validated by
  // ci/serving_smoke.sh with json.tool).
  [[nodiscard]] std::string stats_json() const;

  // The kTelemetry snapshot: cumulative totals from the registry plus the
  // rolling 1 s / 10 s / 60 s windows from the sliding-window aggregator.
  [[nodiscard]] TelemetryReport telemetry_report() const;

  // Exposed for in-process tests: handles one decoded request exactly as a
  // connection worker would. `trace_id` tags the handler span for merged
  // request traces (0 = untraced).
  [[nodiscard]] Response handle(const Request& req, std::uint64_t trace_id);
  [[nodiscard]] Response handle(const Request& req) { return handle(req, 0); }

 private:
  void accept_loop();
  void serve_connection(Socket conn);
  Response handle_classify(const Request& req,
                           const std::shared_ptr<const ClusterModel>& model);

  // Microseconds since server construction on the steady clock — the time
  // base every sliding-window bucket is stamped with.
  [[nodiscard]] std::uint64_t now_us() const;

  ServedModel served_;
  ServerConfig cfg_;
  obs::MetricsRegistry metrics_;
  obs::SlidingWindow window_;  // wire-path rolling stats (1 s buckets)
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<ThreadPool> pool_;
  std::mutex pool_mu_;  // ThreadPool::run is single-job; serialize callers

  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<std::thread> conn_threads_;
  std::unordered_set<int> conn_fds_;  // open connection fds, for stop()

  // Overload accounting: in-flight requests across all connections, and the
  // request-buffer byte budget (RunGuard used purely for its thread-safe
  // try_charge/release arithmetic — no deadline, never check()ed).
  std::atomic<std::size_t> inflight_{0};
  RunGuard buffer_guard_;
};

}  // namespace udb::serve
