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

namespace {

// One typed round trip: folds transport and server-side failure into one
// Status and, on success, checks the response type matches what was asked.
StatusOr<Response> call(ClientCalls& c, const Request& req) {
  StatusOr<Response> r = c.roundtrip(req);
  if (!r.ok()) return r.status();
  if (r->code != StatusCode::kOk) return r->to_status();
  if (r->type != req.type)
    return DataLossError("client: response type does not match request");
  return r;
}

Request request(MsgType type) {
  Request req;
  req.type = type;
  return req;
}

StatusOr<Response> telemetry_call(ClientCalls& c, TelemetryFormat format) {
  Request req = request(MsgType::kTelemetry);
  req.telemetry_format = format;
  StatusOr<Response> resp = call(c, req);
  if (resp.ok() && resp->telemetry_format != format)
    return DataLossError("client: telemetry format does not match request");
  return resp;
}

}  // namespace

Status ClientCalls::ping() {
  return call(*this, request(MsgType::kPing)).status();
}

StatusOr<std::vector<Classify>> ClientCalls::classify(
    std::span<const double> coords, std::uint32_t dim) {
  Request req = request(MsgType::kClassify);
  req.dim = dim;
  req.coords.assign(coords.begin(), coords.end());
  StatusOr<Response> resp = call(*this, req);
  if (!resp.ok()) return resp.status();
  return std::move(resp->classify);
}

StatusOr<std::vector<std::pair<std::uint64_t, double>>> ClientCalls::neighbors(
    std::span<const double> q, double radius) {
  Request req = request(MsgType::kNeighbors);
  req.dim = static_cast<std::uint32_t>(q.size());
  req.coords.assign(q.begin(), q.end());
  req.radius = radius;
  StatusOr<Response> resp = call(*this, req);
  if (!resp.ok()) return resp.status();
  return std::move(resp->neighbors);
}

StatusOr<PointInfo> ClientCalls::point_info(std::uint64_t id) {
  Request req = request(MsgType::kPointInfo);
  req.point_id = id;
  StatusOr<Response> resp = call(*this, req);
  if (!resp.ok()) return resp.status();
  return resp->point;
}

StatusOr<std::string> ClientCalls::stats_json() {
  StatusOr<Response> resp = call(*this, request(MsgType::kStats));
  if (!resp.ok()) return resp.status();
  return std::move(resp->json);
}

StatusOr<ModelInfo> ClientCalls::model_info() {
  StatusOr<Response> resp = call(*this, request(MsgType::kModelInfo));
  if (!resp.ok()) return resp.status();
  return resp->model;
}

StatusOr<TelemetryReport> ClientCalls::telemetry() {
  StatusOr<Response> resp = telemetry_call(*this, TelemetryFormat::kBinary);
  if (!resp.ok()) return resp.status();
  return std::move(resp->telemetry);
}

StatusOr<std::string> ClientCalls::telemetry_text(TelemetryFormat format) {
  StatusOr<Response> resp = telemetry_call(*this, format);
  if (!resp.ok()) return resp.status();
  return std::move(resp->json);
}

}  // namespace udb::serve
