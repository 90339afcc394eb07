#include "serve/client.hpp"

namespace udb::serve {

StatusOr<Client> Client::connect(std::uint16_t port, double timeout_seconds) {
  StatusOr<Socket> s = connect_loopback(port, timeout_seconds);
  if (!s.ok()) return s.status();
  return Client(std::move(*s));
}

StatusOr<Response> Client::roundtrip(const Request& req) {
  return roundtrip_with_id(allocate_request_id(), req);
}

StatusOr<Response> Client::roundtrip_with_id(std::uint64_t request_id,
                                             const Request& req,
                                             std::uint64_t trace_id,
                                             std::uint64_t parent_span_id) {
  if (Status st = write_frame(sock_, frame_v2(request_id, encode_request(req),
                                              trace_id, parent_span_id));
      !st.ok())
    return st;
  StatusOr<std::vector<std::uint8_t>> frame = read_frame(sock_);
  if (!frame.ok()) return frame.status();
  FrameV2 env;
  if (Status st = parse_frame_v2(std::span<const std::uint8_t>(*frame), env);
      !st.ok())
    return st;
  Response resp;
  if (Status st = decode_response(env.payload, resp); !st.ok()) return st;
  // Echo check: the answer must be for the request we sent. Request id 0 is
  // the server's unattributed-error channel (connection shed before our
  // request, or our envelope arrived corrupted) and is only valid as an
  // error.
  if (env.request_id != request_id &&
      !(env.request_id == 0 && resp.code != StatusCode::kOk))
    return DataLossError(
        "client: response echoes request id " +
        std::to_string(env.request_id) + ", expected " +
        std::to_string(request_id));
  return resp;
}

namespace {

// Folds transport and server-side failure into one Status; on success checks
// the response type matches what was asked.
Status unwrap(const StatusOr<Response>& r, MsgType want, Response& out) {
  if (!r.ok()) return r.status();
  if (r->code != StatusCode::kOk) return r->to_status();
  if (r->type != want)
    return DataLossError("client: response type does not match request");
  out = *r;
  return Status::Ok();
}

}  // namespace

Status Client::ping() {
  Request req;
  req.type = MsgType::kPing;
  Response resp;
  return unwrap(roundtrip(req), MsgType::kPing, resp);
}

StatusOr<std::vector<Classify>> Client::classify(std::span<const double> coords,
                                                 std::uint32_t dim) {
  Request req;
  req.type = MsgType::kClassify;
  req.dim = dim;
  req.coords.assign(coords.begin(), coords.end());
  Response resp;
  if (Status st = unwrap(roundtrip(req), MsgType::kClassify, resp); !st.ok())
    return st;
  return std::move(resp.classify);
}

StatusOr<std::vector<std::pair<std::uint64_t, double>>> Client::neighbors(
    std::span<const double> q, double radius) {
  Request req;
  req.type = MsgType::kNeighbors;
  req.dim = static_cast<std::uint32_t>(q.size());
  req.coords.assign(q.begin(), q.end());
  req.radius = radius;
  Response resp;
  if (Status st = unwrap(roundtrip(req), MsgType::kNeighbors, resp); !st.ok())
    return st;
  return std::move(resp.neighbors);
}

StatusOr<PointInfo> Client::point_info(std::uint64_t id) {
  Request req;
  req.type = MsgType::kPointInfo;
  req.point_id = id;
  Response resp;
  if (Status st = unwrap(roundtrip(req), MsgType::kPointInfo, resp); !st.ok())
    return st;
  return resp.point;
}

StatusOr<std::string> Client::stats_json() {
  Request req;
  req.type = MsgType::kStats;
  Response resp;
  if (Status st = unwrap(roundtrip(req), MsgType::kStats, resp); !st.ok())
    return st;
  return std::move(resp.json);
}

StatusOr<ModelInfo> Client::model_info() {
  Request req;
  req.type = MsgType::kModelInfo;
  Response resp;
  if (Status st = unwrap(roundtrip(req), MsgType::kModelInfo, resp); !st.ok())
    return st;
  return resp.model;
}

StatusOr<TelemetryReport> Client::telemetry() {
  Request req;
  req.type = MsgType::kTelemetry;
  req.telemetry_format = TelemetryFormat::kBinary;
  Response resp;
  if (Status st = unwrap(roundtrip(req), MsgType::kTelemetry, resp); !st.ok())
    return st;
  if (resp.telemetry_format != TelemetryFormat::kBinary)
    return DataLossError("client: telemetry format does not match request");
  return resp.telemetry;
}

StatusOr<std::string> Client::telemetry_text(TelemetryFormat format) {
  Request req;
  req.type = MsgType::kTelemetry;
  req.telemetry_format = format;
  Response resp;
  if (Status st = unwrap(roundtrip(req), MsgType::kTelemetry, resp); !st.ok())
    return st;
  if (resp.telemetry_format != format)
    return DataLossError("client: telemetry format does not match request");
  return std::move(resp.json);
}

StatusOr<Response> Client::raw_roundtrip(std::span<const std::uint8_t> body) {
  if (Status st = write_frame(sock_, body); !st.ok()) return st;
  StatusOr<std::vector<std::uint8_t>> frame = read_frame(sock_);
  if (!frame.ok()) return frame.status();
  FrameV2 env;
  if (Status st = parse_frame_v2(std::span<const std::uint8_t>(*frame), env);
      !st.ok())
    return st;
  Response resp;
  if (Status st = decode_response(env.payload, resp); !st.ok()) return st;
  return resp;
}

}  // namespace udb::serve
