// Client — the typed counterpart of QueryServer: one blocking TCP connection
// to 127.0.0.1:<port>, one request/response frame pair per call. Safe to use
// from one thread at a time (the bench opens one Client per worker thread).
// send_raw() bypasses the codec so tests and the CI smoke job can feed the
// server deliberately garbage frames.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"

namespace udb::serve {

// The typed calls, written once over a virtual roundtrip(): Client answers
// it with one frame pair on its socket, RetryingClient (serve/retry.hpp) with
// its retry loop. Each call folds the server-side error into the Status, so
// callers see exactly one failure channel, and checks that the response type
// matches the request.
class ClientCalls {
 public:
  virtual ~ClientCalls() = default;

  // One logical request, one response. A transport failure comes back as the
  // Status; a server-side error comes back as an OK StatusOr whose Response
  // carries code != kOk (call resp.to_status()).
  [[nodiscard]] virtual StatusOr<Response> roundtrip(const Request& req) = 0;

  [[nodiscard]] Status ping();
  [[nodiscard]] StatusOr<std::vector<Classify>> classify(
      std::span<const double> coords, std::uint32_t dim);
  [[nodiscard]] StatusOr<std::vector<std::pair<std::uint64_t, double>>>
  neighbors(std::span<const double> q, double radius);
  [[nodiscard]] StatusOr<PointInfo> point_info(std::uint64_t id);
  [[nodiscard]] StatusOr<std::string> stats_json();
  [[nodiscard]] StatusOr<ModelInfo> model_info();
  // Live telemetry: the structured binary report, or one of the rendered
  // text expositions (kJson / kPrometheus) as a string.
  [[nodiscard]] StatusOr<TelemetryReport> telemetry();
  [[nodiscard]] StatusOr<std::string> telemetry_text(TelemetryFormat format);

 protected:
  ClientCalls() = default;
  ClientCalls(const ClientCalls&) = default;
  ClientCalls& operator=(const ClientCalls&) = default;
  ClientCalls(ClientCalls&&) = default;
  ClientCalls& operator=(ClientCalls&&) = default;
};

class Client : public ClientCalls {
 public:
  // `timeout_seconds` bounds connect and every subsequent send/recv.
  [[nodiscard]] static StatusOr<Client> connect(std::uint16_t port,
                                                double timeout_seconds = 5.0);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  // One frame out, one back. The response envelope must echo the request id
  // — except id 0, the server's "could not attribute" channel (connection
  // shed, corrupt request envelope), which only ever carries an error.
  [[nodiscard]] StatusOr<Response> roundtrip(const Request& req) override;
  // Same, but with a caller-chosen request id — the retrying client reuses
  // one id across attempts so a retry is recognizably the *same* request.
  // Nonzero trace_id / parent_span_id ride the traced (0xB3) envelope so the
  // server's per-request spans land in the same trace (docs/OBSERVABILITY.md,
  // "Live telemetry"); both 0 sends the byte-identical untraced frame.
  [[nodiscard]] StatusOr<Response> roundtrip_with_id(
      std::uint64_t request_id, const Request& req, std::uint64_t trace_id = 0,
      std::uint64_t parent_span_id = 0);
  [[nodiscard]] std::uint64_t allocate_request_id() noexcept {
    return next_request_id_++;
  }

  // Test hook: ships an arbitrary frame body and returns the server's raw
  // answer (decoded if possible).
  [[nodiscard]] StatusOr<Response> raw_roundtrip(
      std::span<const std::uint8_t> body);

 private:
  explicit Client(Socket s) : sock_(std::move(s)) {}

  Socket sock_;
  std::uint64_t next_request_id_ = 1;  // 0 is reserved for the server
};

}  // namespace udb::serve
