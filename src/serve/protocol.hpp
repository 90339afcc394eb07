// Wire protocol for udbscan_serve (docs/SERVING.md): length-prefixed binary
// frames over a loopback TCP stream. Every frame is
//
//   u32 frame_bytes | frame body
//
// and every body is one integrity-checked envelope:
//
//   u8 0xB3 | u64 request_id | u64 trace_id | u64 parent_span_id | u32 crc32
//          | payload
//
// The CRC (IEEE CRC-32 over the 24 header bytes request_id ++ trace_id ++
// parent_span_id, then the payload) is verified before any payload parsing,
// so a frame corrupted in flight is *detected at the transport* and
// answered with a clean DATA_LOSS — never parsed, never answered with
// garbage. The request id is chosen by the client and echoed verbatim by the
// server: it keys idempotent retries (classify is read-only, so
// at-least-once delivery is safe) and catches a desynced stream (an echo
// mismatch is DATA_LOSS). A zero trace context means the request is
// untraced; responses always carry zeros. A body whose first byte is not
// 0xB3 is DATA_LOSS.
//
// Inside the envelope the payload starts with a u8 message type. Responses
// echo the request type and carry a u8 status code (StatusCode numeric
// value); a non-OK response replaces the payload with a u32-length error
// message. Decoding is quarantine-style: any malformed payload — unknown
// type, truncation, trailing bytes, non-finite floats, absurd counts —
// comes back as a clean INVALID_ARGUMENT / DATA_LOSS Status, never UB (the
// server answers with an error frame; it does not die).

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "serve/model.hpp"

namespace udb::serve {

// Frames larger than this are rejected on read (both sides) before any
// allocation proportional to the claimed length happens.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB

// Points per classify request are additionally capped so a single frame
// cannot ask for unbounded work (docs/SERVING.md, operational limits).
inline constexpr std::uint32_t kMaxBatchPoints = 1u << 20;

// The envelope's first byte, and its size before the payload.
inline constexpr std::uint8_t kFrameMarker = 0xB3;
inline constexpr std::size_t kFrameHeaderBytes =
    1 /*marker*/ + 8 /*request_id*/ + 8 /*trace_id*/ + 8 /*parent_span_id*/ +
    4 /*crc32*/;

enum class MsgType : std::uint8_t {
  kPing = 1,       // liveness probe, empty payload both ways
  kClassify = 2,   // req: u32 count | u32 dim | f64 coords[count*dim]
  kNeighbors = 3,  // req: f64 radius | u32 dim | f64 coords[dim]
  kPointInfo = 4,  // req: u64 id
  kStats = 5,      // req: empty; resp: u32 len | metrics JSON
  kModelInfo = 6,  // req: empty; resp: n, dim, eps, min_pts, num_clusters
  kTelemetry = 7,  // req: u8 format; resp: live telemetry
};

// Requested exposition for kTelemetry. Binary is the machine form
// (TelemetryReport fields on the wire); json and prometheus return rendered
// text in Response::json.
enum class TelemetryFormat : std::uint8_t {
  kBinary = 0,
  kJson = 1,
  kPrometheus = 2,
};

// One rolling window of the server's SlidingWindow aggregation.
struct TelemetryWindow {
  double window_seconds = 0.0;
  std::uint64_t requests = 0;  // requests completed inside the window
  std::uint64_t errors = 0;    // ... answered non-OK
  std::uint64_t shed = 0;      // ... shed at admission
  double qps = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
};

// Live telemetry snapshot served by kTelemetry. Totals are cumulative since
// server start (from the MetricsRegistry); windows are rolling 1 s / 10 s /
// 60 s views (from the SlidingWindow).
struct TelemetryReport {
  std::uint64_t uptime_us = 0;
  std::uint64_t inflight = 0;  // requests currently admitted
  std::uint64_t requests_total = 0;
  std::uint64_t errors_total = 0;
  std::uint64_t shed_load_total = 0;
  std::uint64_t shed_connections_total = 0;
  std::uint64_t corrupt_frames_total = 0;
  std::uint64_t idle_disconnects_total = 0;
  std::uint64_t classify_points = 0;
  std::uint64_t classify_performed = 0;
  std::uint64_t classify_avoided_exact = 0;
  TelemetryWindow windows[3];  // 1 s, 10 s, 60 s
};
inline constexpr std::size_t kTelemetryWindows = 3;

struct Request {
  MsgType type = MsgType::kPing;
  std::uint32_t dim = 0;            // classify / neighbors
  std::vector<double> coords;       // classify: count*dim; neighbors: dim
  double radius = 0.0;              // neighbors
  std::uint64_t point_id = 0;       // point_info
  TelemetryFormat telemetry_format = TelemetryFormat::kBinary;  // telemetry
};

struct ModelInfo {
  std::uint64_t n = 0;
  std::uint32_t dim = 0;
  double eps = 0.0;
  std::uint32_t min_pts = 0;
  std::uint64_t num_clusters = 0;
};

struct Response {
  MsgType type = MsgType::kPing;
  StatusCode code = StatusCode::kOk;
  std::string error;  // set iff code != kOk

  std::vector<Classify> classify;                         // kClassify
  std::vector<std::pair<std::uint64_t, double>> neighbors;  // (id, sq dist)
  PointInfo point;                                        // kPointInfo
  std::string json;       // kStats; kTelemetry text formats
  ModelInfo model;                                        // kModelInfo
  TelemetryFormat telemetry_format = TelemetryFormat::kBinary;  // kTelemetry
  TelemetryReport telemetry;                              // kTelemetry binary

  [[nodiscard]] Status to_status() const {
    return Status(code, error);
  }
};

// Body codecs (the u32 frame length itself lives in net.*).
[[nodiscard]] std::vector<std::uint8_t> encode_request(const Request& req);
[[nodiscard]] Status decode_request(std::span<const std::uint8_t> body,
                                    Request& out);
[[nodiscard]] std::vector<std::uint8_t> encode_response(const Response& resp);
[[nodiscard]] Status decode_response(std::span<const std::uint8_t> body,
                                     Response& out);

// ---- envelope --------------------------------------------------------------

// A parsed frame. `payload` aliases the buffer handed to parse_frame_v2.
// trace_id / parent_span_id are 0 for an untraced frame.
struct FrameV2 {
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  std::span<const std::uint8_t> payload;
};

// Wraps a payload in the envelope (CRC32 over request_id ++ trace_id ++
// parent_span_id ++ payload).
[[nodiscard]] std::vector<std::uint8_t> frame_v2(
    std::uint64_t request_id, std::span<const std::uint8_t> payload,
    std::uint64_t trace_id = 0, std::uint64_t parent_span_id = 0);

// Verifies and unwraps a frame body. DATA_LOSS on a first byte other than
// 0xB3, a truncated envelope or a CRC mismatch (corruption detected at the
// transport — the payload is never parsed).
[[nodiscard]] Status parse_frame_v2(std::span<const std::uint8_t> body,
                                    FrameV2& out);

// Builds the error frame the server answers a failed request with.
[[nodiscard]] Response error_response(MsgType type, const Status& s);

}  // namespace udb::serve
