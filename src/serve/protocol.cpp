#include "serve/protocol.hpp"

#include <cmath>
#include <cstring>

#include "common/bytes.hpp"
#include "common/crc32.hpp"

namespace udb::serve {

namespace {

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::kPing) &&
         t <= static_cast<std::uint8_t>(MsgType::kTelemetry);
}

Status malformed(const char* what) {
  return DataLossError(std::string("protocol: malformed frame: ") + what);
}

// CRC over the 24 header bytes after the marker, then the payload, so a
// flipped bit anywhere in the trace context is detected like any other
// envelope corruption.
std::uint32_t envelope_crc(std::uint64_t request_id, std::uint64_t trace_id,
                           std::uint64_t parent_span_id,
                           std::span<const std::uint8_t> payload) {
  std::uint8_t head[24];
  std::memcpy(head, &request_id, 8);
  std::memcpy(head + 8, &trace_id, 8);
  std::memcpy(head + 16, &parent_span_id, 8);
  return crc32_update(crc32(head, sizeof head), payload.data(),
                      payload.size());
}

void encode_telemetry_window(ByteWriter& w, const TelemetryWindow& win) {
  w.f64(win.window_seconds);
  w.u64(win.requests);
  w.u64(win.errors);
  w.u64(win.shed);
  w.f64(win.qps);
  w.f64(win.p50_us);
  w.f64(win.p90_us);
  w.f64(win.p99_us);
  w.f64(win.p999_us);
  w.f64(win.max_us);
}

bool decode_telemetry_window(ByteReader& r, TelemetryWindow& win) {
  if (!r.f64(win.window_seconds) || !r.u64(win.requests) ||
      !r.u64(win.errors) || !r.u64(win.shed) || !r.f64(win.qps) ||
      !r.f64(win.p50_us) || !r.f64(win.p90_us) || !r.f64(win.p99_us) ||
      !r.f64(win.p999_us) || !r.f64(win.max_us))
    return false;
  // Non-finite rates/percentiles cannot be produced by a correct server;
  // treat them as corruption, same policy as coordinates.
  const double doubles[] = {win.window_seconds, win.qps,    win.p50_us,
                            win.p90_us,         win.p99_us, win.p999_us,
                            win.max_us};
  for (double v : doubles)
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_request(const Request& req) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(req.type));
  switch (req.type) {
    case MsgType::kClassify:
      w.u32(req.dim == 0
                ? 0
                : static_cast<std::uint32_t>(req.coords.size() / req.dim));
      w.u32(req.dim);
      w.raw(req.coords.data(), req.coords.size() * sizeof(double));
      break;
    case MsgType::kNeighbors:
      w.f64(req.radius);
      w.u32(req.dim);
      w.raw(req.coords.data(), req.coords.size() * sizeof(double));
      break;
    case MsgType::kPointInfo:
      w.u64(req.point_id);
      break;
    case MsgType::kTelemetry:
      w.u8(static_cast<std::uint8_t>(req.telemetry_format));
      break;
    case MsgType::kPing:
    case MsgType::kStats:
    case MsgType::kModelInfo:
      break;
  }
  return w.take();
}

Status decode_request(std::span<const std::uint8_t> body, Request& out) {
  ByteReader r(body);
  std::uint8_t type = 0;
  if (!r.u8(type)) return malformed("empty body");
  if (!known_type(type))
    return malformed("unknown request type");
  out = Request{};
  out.type = static_cast<MsgType>(type);
  switch (out.type) {
    case MsgType::kClassify: {
      std::uint32_t count = 0;
      if (!r.u32(count) || !r.u32(out.dim))
        return malformed("truncated classify header");
      if (count > kMaxBatchPoints)
        return InvalidArgumentError(
            "protocol: classify batch of " + std::to_string(count) +
            " points exceeds the per-request limit of " +
            std::to_string(kMaxBatchPoints));
      if (out.dim == 0) return malformed("classify dim 0");
      if (!r.array(out.coords,
                   static_cast<std::size_t>(count) * out.dim))
        return malformed("truncated classify coordinates");
      break;
    }
    case MsgType::kNeighbors:
      if (!r.f64(out.radius) || !r.u32(out.dim))
        return malformed("truncated neighbors header");
      if (out.dim == 0) return malformed("neighbors dim 0");
      if (!std::isfinite(out.radius))
        return InvalidArgumentError("protocol: non-finite neighbors radius");
      if (!r.array(out.coords, out.dim))
        return malformed("truncated neighbors coordinates");
      break;
    case MsgType::kPointInfo:
      if (!r.u64(out.point_id)) return malformed("truncated point_info id");
      break;
    case MsgType::kTelemetry: {
      std::uint8_t fmt = 0;
      if (!r.u8(fmt)) return malformed("truncated telemetry format");
      if (fmt > static_cast<std::uint8_t>(TelemetryFormat::kPrometheus))
        return InvalidArgumentError("protocol: unknown telemetry format " +
                                    std::to_string(fmt));
      out.telemetry_format = static_cast<TelemetryFormat>(fmt);
      break;
    }
    case MsgType::kPing:
    case MsgType::kStats:
    case MsgType::kModelInfo:
      break;
  }
  if (!r.done()) return malformed("trailing bytes after request");
  for (double v : out.coords)
    if (!std::isfinite(v))
      return InvalidArgumentError("protocol: non-finite query coordinate");
  return Status::Ok();
}

std::vector<std::uint8_t> encode_response(const Response& resp) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(resp.type));
  w.u8(static_cast<std::uint8_t>(resp.code));
  if (resp.code != StatusCode::kOk) {
    w.u32(static_cast<std::uint32_t>(resp.error.size()));
    w.raw(resp.error.data(), resp.error.size());
    return w.take();
  }
  switch (resp.type) {
    case MsgType::kClassify:
      w.u32(static_cast<std::uint32_t>(resp.classify.size()));
      for (const Classify& c : resp.classify) {
        w.i64(c.label);
        w.u8(static_cast<std::uint8_t>(c.kind));
        w.u8(c.exact_match ? 1 : 0);
        w.u8(c.would_be_core ? 1 : 0);
        w.u32(c.neighbors);
      }
      break;
    case MsgType::kNeighbors:
      w.u32(static_cast<std::uint32_t>(resp.neighbors.size()));
      for (const auto& [id, d2] : resp.neighbors) {
        w.u64(id);
        w.f64(d2);
      }
      break;
    case MsgType::kPointInfo:
      w.i64(resp.point.label);
      w.u8(static_cast<std::uint8_t>(resp.point.kind));
      w.u8(resp.point.is_core ? 1 : 0);
      break;
    case MsgType::kStats:
      w.u32(static_cast<std::uint32_t>(resp.json.size()));
      w.raw(resp.json.data(), resp.json.size());
      break;
    case MsgType::kModelInfo:
      w.u64(resp.model.n);
      w.u32(resp.model.dim);
      w.f64(resp.model.eps);
      w.u32(resp.model.min_pts);
      w.u64(resp.model.num_clusters);
      break;
    case MsgType::kTelemetry:
      w.u8(static_cast<std::uint8_t>(resp.telemetry_format));
      if (resp.telemetry_format == TelemetryFormat::kBinary) {
        const TelemetryReport& t = resp.telemetry;
        w.u64(t.uptime_us);
        w.u64(t.inflight);
        w.u64(t.requests_total);
        w.u64(t.errors_total);
        w.u64(t.shed_load_total);
        w.u64(t.shed_connections_total);
        w.u64(t.corrupt_frames_total);
        w.u64(t.idle_disconnects_total);
        w.u64(t.classify_points);
        w.u64(t.classify_performed);
        w.u64(t.classify_avoided_exact);
        for (const TelemetryWindow& win : t.windows)
          encode_telemetry_window(w, win);
      } else {
        w.u32(static_cast<std::uint32_t>(resp.json.size()));
        w.raw(resp.json.data(), resp.json.size());
      }
      break;
    case MsgType::kPing:
      break;
  }
  return w.take();
}

Status decode_response(std::span<const std::uint8_t> body, Response& out) {
  ByteReader r(body);
  std::uint8_t type = 0, code = 0;
  if (!r.u8(type) || !r.u8(code)) return malformed("truncated response head");
  if (!known_type(type)) return malformed("unknown response type");
  if (code > static_cast<std::uint8_t>(StatusCode::kUnimplemented))
    return malformed("unknown response status code");
  out = Response{};
  out.type = static_cast<MsgType>(type);
  out.code = static_cast<StatusCode>(code);
  if (out.code != StatusCode::kOk) {
    std::uint32_t len = 0;
    if (!r.u32(len) || !r.str(out.error, len))
      return malformed("truncated error message");
    if (!r.done()) return malformed("trailing bytes after error");
    return Status::Ok();
  }
  switch (out.type) {
    case MsgType::kClassify: {
      std::uint32_t count = 0;
      if (!r.u32(count)) return malformed("truncated classify count");
      if (count > kMaxBatchPoints) return malformed("absurd classify count");
      out.classify.resize(count);
      for (Classify& c : out.classify) {
        std::uint8_t kind = 0, exact = 0, core = 0;
        if (!r.i64(c.label) || !r.u8(kind) || !r.u8(exact) || !r.u8(core) ||
            !r.u32(c.neighbors))
          return malformed("truncated classify answer");
        if (kind > static_cast<std::uint8_t>(PointKind::Noise) || exact > 1 ||
            core > 1)
          return malformed("classify answer out of range");
        c.kind = static_cast<PointKind>(kind);
        c.exact_match = exact != 0;
        c.would_be_core = core != 0;
      }
      break;
    }
    case MsgType::kNeighbors: {
      std::uint32_t count = 0;
      if (!r.u32(count)) return malformed("truncated neighbor count");
      if (static_cast<std::uint64_t>(count) * 16 > kMaxFrameBytes)
        return malformed("absurd neighbor count");
      out.neighbors.resize(count);
      for (auto& [id, d2] : out.neighbors)
        if (!r.u64(id) || !r.f64(d2))
          return malformed("truncated neighbor entry");
      break;
    }
    case MsgType::kPointInfo: {
      std::uint8_t kind = 0, core = 0;
      if (!r.i64(out.point.label) || !r.u8(kind) || !r.u8(core))
        return malformed("truncated point_info answer");
      if (kind > static_cast<std::uint8_t>(PointKind::Noise) || core > 1)
        return malformed("point_info answer out of range");
      out.point.kind = static_cast<PointKind>(kind);
      out.point.is_core = core != 0;
      break;
    }
    case MsgType::kStats: {
      std::uint32_t len = 0;
      if (!r.u32(len) || !r.str(out.json, len))
        return malformed("truncated stats json");
      break;
    }
    case MsgType::kModelInfo:
      if (!r.u64(out.model.n) || !r.u32(out.model.dim) ||
          !r.f64(out.model.eps) || !r.u32(out.model.min_pts) ||
          !r.u64(out.model.num_clusters))
        return malformed("truncated model info");
      break;
    case MsgType::kTelemetry: {
      std::uint8_t fmt = 0;
      if (!r.u8(fmt)) return malformed("truncated telemetry format");
      if (fmt > static_cast<std::uint8_t>(TelemetryFormat::kPrometheus))
        return malformed("unknown telemetry format");
      out.telemetry_format = static_cast<TelemetryFormat>(fmt);
      if (out.telemetry_format == TelemetryFormat::kBinary) {
        TelemetryReport& t = out.telemetry;
        if (!r.u64(t.uptime_us) || !r.u64(t.inflight) ||
            !r.u64(t.requests_total) || !r.u64(t.errors_total) ||
            !r.u64(t.shed_load_total) || !r.u64(t.shed_connections_total) ||
            !r.u64(t.corrupt_frames_total) ||
            !r.u64(t.idle_disconnects_total) || !r.u64(t.classify_points) ||
            !r.u64(t.classify_performed) ||
            !r.u64(t.classify_avoided_exact))
          return malformed("truncated telemetry totals");
        for (TelemetryWindow& win : t.windows)
          if (!decode_telemetry_window(r, win))
            return malformed("truncated or non-finite telemetry window");
      } else {
        std::uint32_t len = 0;
        if (!r.u32(len) || !r.str(out.json, len))
          return malformed("truncated telemetry text");
      }
      break;
    }
    case MsgType::kPing:
      break;
  }
  if (!r.done()) return malformed("trailing bytes after response");
  return Status::Ok();
}

std::vector<std::uint8_t> frame_v2(std::uint64_t request_id,
                                   std::span<const std::uint8_t> payload,
                                   std::uint64_t trace_id,
                                   std::uint64_t parent_span_id) {
  ByteWriter w;
  w.u8(kFrameMarker);
  w.u64(request_id);
  w.u64(trace_id);
  w.u64(parent_span_id);
  w.u32(envelope_crc(request_id, trace_id, parent_span_id, payload));
  w.raw(payload.data(), payload.size());
  return w.take();
}

Status parse_frame_v2(std::span<const std::uint8_t> body, FrameV2& out) {
  if (body.empty()) return DataLossError("protocol: empty frame");
  if (body[0] != kFrameMarker)
    return DataLossError("protocol: unknown protocol marker byte " +
                         std::to_string(body[0]));
  ByteReader r(body);
  std::uint8_t marker = 0;
  std::uint64_t request_id = 0, trace_id = 0, parent_span_id = 0;
  std::uint32_t stored_crc = 0;
  if (!r.u8(marker) || !r.u64(request_id) || !r.u64(trace_id) ||
      !r.u64(parent_span_id) || !r.u32(stored_crc))
    return DataLossError("protocol: truncated envelope (" +
                         std::to_string(body.size()) + " bytes)");

  const std::span<const std::uint8_t> payload =
      body.subspan(kFrameHeaderBytes);
  if (envelope_crc(request_id, trace_id, parent_span_id, payload) !=
      stored_crc)
    return DataLossError(
        "protocol: frame CRC mismatch (corrupted in transit) — request id " +
        std::to_string(request_id));

  out.request_id = request_id;
  out.trace_id = trace_id;
  out.parent_span_id = parent_span_id;
  out.payload = payload;
  return Status::Ok();
}

Response error_response(MsgType type, const Status& s) {
  Response resp;
  resp.type = type;
  resp.code = s.code();
  resp.error = s.message();
  return resp;
}

}  // namespace udb::serve
