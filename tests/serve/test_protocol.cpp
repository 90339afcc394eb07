// Wire codec (serve/protocol.*): every message type must roundtrip
// encode -> decode bit-exactly, and every malformed body — unknown type,
// truncation, trailing bytes, absurd counts, non-finite floats — must come
// back as a clean Status (the quarantine contract the server's
// survive-garbage guarantee is built on).

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/bytes.hpp"

namespace udb {
namespace {

serve::Request decode_req_ok(const std::vector<std::uint8_t>& body) {
  serve::Request out;
  Status st = serve::decode_request(body, out);
  EXPECT_TRUE(st.ok()) << st.to_string();
  return out;
}

serve::Response decode_resp_ok(const std::vector<std::uint8_t>& body) {
  serve::Response out;
  Status st = serve::decode_response(body, out);
  EXPECT_TRUE(st.ok()) << st.to_string();
  return out;
}

TEST(ProtocolRequestTest, PingRoundtrips) {
  serve::Request req;
  req.type = serve::MsgType::kPing;
  const auto back = decode_req_ok(serve::encode_request(req));
  EXPECT_EQ(back.type, serve::MsgType::kPing);
}

TEST(ProtocolRequestTest, ClassifyRoundtrips) {
  serve::Request req;
  req.type = serve::MsgType::kClassify;
  req.dim = 3;
  req.coords = {1.0, 2.0, 3.0, -4.5, 0.0, 6.25};
  const auto back = decode_req_ok(serve::encode_request(req));
  EXPECT_EQ(back.type, serve::MsgType::kClassify);
  EXPECT_EQ(back.dim, 3u);
  EXPECT_EQ(back.coords, req.coords);
}

TEST(ProtocolRequestTest, NeighborsRoundtrips) {
  serve::Request req;
  req.type = serve::MsgType::kNeighbors;
  req.dim = 2;
  req.coords = {7.5, -1.25};
  req.radius = 2.5;
  const auto back = decode_req_ok(serve::encode_request(req));
  EXPECT_EQ(back.type, serve::MsgType::kNeighbors);
  EXPECT_EQ(back.coords, req.coords);
  EXPECT_EQ(back.radius, 2.5);
}

TEST(ProtocolRequestTest, PointInfoStatsModelInfoRoundtrip) {
  serve::Request req;
  req.type = serve::MsgType::kPointInfo;
  req.point_id = 0xDEADBEEFCAFEull;
  EXPECT_EQ(decode_req_ok(serve::encode_request(req)).point_id,
            req.point_id);

  req = {};
  req.type = serve::MsgType::kStats;
  EXPECT_EQ(decode_req_ok(serve::encode_request(req)).type,
            serve::MsgType::kStats);

  req = {};
  req.type = serve::MsgType::kModelInfo;
  EXPECT_EQ(decode_req_ok(serve::encode_request(req)).type,
            serve::MsgType::kModelInfo);
}

TEST(ProtocolRequestTest, GarbageBodiesAreRejectedCleanly) {
  serve::Request out;

  // Empty body.
  EXPECT_FALSE(serve::decode_request({}, out).ok());

  // Unknown message type.
  {
    ByteWriter w;
    w.u8(0xEE);
    EXPECT_FALSE(serve::decode_request(w.data(), out).ok());
  }

  // Classify claiming 2^32-1 points with no coordinate bytes behind it:
  // must be rejected before any allocation proportional to the claim.
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(serve::MsgType::kClassify));
    w.u32(0xFFFFFFFFu);
    w.u32(3);
    EXPECT_FALSE(serve::decode_request(w.data(), out).ok());
  }

  // Batch above the hard cap, with plausible-looking sizes.
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(serve::MsgType::kClassify));
    w.u32(serve::kMaxBatchPoints + 1);
    w.u32(1);
    EXPECT_FALSE(serve::decode_request(w.data(), out).ok());
  }

  // Truncated classify coordinates.
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(serve::MsgType::kClassify));
    w.u32(2);
    w.u32(2);
    w.f64(1.0);  // 1 of 4 doubles present
    EXPECT_FALSE(serve::decode_request(w.data(), out).ok());
  }

  // Non-finite classify coordinate.
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(serve::MsgType::kClassify));
    w.u32(1);
    w.u32(1);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    EXPECT_FALSE(serve::decode_request(w.data(), out).ok());
  }

  // Non-finite neighbors radius.
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(serve::MsgType::kNeighbors));
    w.f64(std::numeric_limits<double>::infinity());
    w.u32(1);
    w.f64(0.0);
    EXPECT_FALSE(serve::decode_request(w.data(), out).ok());
  }

  // Ping with trailing junk.
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(serve::MsgType::kPing));
    w.u64(0x0123456789ABCDEFull);
    EXPECT_FALSE(serve::decode_request(w.data(), out).ok());
  }

  // Truncated point_info (type byte only).
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(serve::MsgType::kPointInfo));
    EXPECT_FALSE(serve::decode_request(w.data(), out).ok());
  }

  // Pseudo-random byte soup at several lengths.
  std::uint32_t x = 0x9E3779B9u;
  for (int len : {1, 2, 7, 33, 256}) {
    ByteWriter w;
    for (int k = 0; k < len; ++k) {
      x = x * 1664525u + 1013904223u;
      w.u8(static_cast<std::uint8_t>(x >> 24));
    }
    serve::Request r;
    // Must not crash; OK only if the soup happens to spell a valid frame
    // (with these fixed bytes it does not).
    EXPECT_FALSE(serve::decode_request(w.data(), r).ok()) << "len " << len;
  }
}

TEST(ProtocolResponseTest, ClassifyResponseRoundtrips) {
  serve::Response resp;
  resp.type = serve::MsgType::kClassify;
  resp.classify.push_back({3, PointKind::Core, true, true, 0});
  resp.classify.push_back({kNoise, PointKind::Noise, false, false, 2});
  resp.classify.push_back({1, PointKind::Border, false, true, 9});
  const auto back = decode_resp_ok(serve::encode_response(resp));
  EXPECT_EQ(back.code, StatusCode::kOk);
  ASSERT_EQ(back.classify.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.classify[i].label, resp.classify[i].label) << i;
    EXPECT_EQ(back.classify[i].kind, resp.classify[i].kind) << i;
    EXPECT_EQ(back.classify[i].exact_match, resp.classify[i].exact_match) << i;
    EXPECT_EQ(back.classify[i].would_be_core, resp.classify[i].would_be_core)
        << i;
    EXPECT_EQ(back.classify[i].neighbors, resp.classify[i].neighbors) << i;
  }
}

TEST(ProtocolResponseTest, NeighborsAndPointInfoAndModelInfoRoundtrip) {
  serve::Response resp;
  resp.type = serve::MsgType::kNeighbors;
  resp.neighbors = {{5, 0.25}, {17, 1.5}};
  auto back = decode_resp_ok(serve::encode_response(resp));
  EXPECT_EQ(back.neighbors, resp.neighbors);

  resp = {};
  resp.type = serve::MsgType::kPointInfo;
  resp.point = {4, PointKind::Border, false};
  back = decode_resp_ok(serve::encode_response(resp));
  EXPECT_EQ(back.point.label, 4);
  EXPECT_EQ(back.point.kind, PointKind::Border);
  EXPECT_FALSE(back.point.is_core);

  resp = {};
  resp.type = serve::MsgType::kModelInfo;
  resp.model = {1000, 3, 1.5, 7, 42};
  back = decode_resp_ok(serve::encode_response(resp));
  EXPECT_EQ(back.model.n, 1000u);
  EXPECT_EQ(back.model.dim, 3u);
  EXPECT_EQ(back.model.eps, 1.5);
  EXPECT_EQ(back.model.min_pts, 7u);
  EXPECT_EQ(back.model.num_clusters, 42u);

  resp = {};
  resp.type = serve::MsgType::kStats;
  resp.json = "{\"schema_version\":1}";
  back = decode_resp_ok(serve::encode_response(resp));
  EXPECT_EQ(back.json, resp.json);
}

TEST(ProtocolResponseTest, ErrorResponseCarriesStatusAcrossTheWire) {
  const Status boom = InvalidArgumentError("dimension mismatch: 3 vs 2");
  const serve::Response err =
      serve::error_response(serve::MsgType::kClassify, boom);
  const auto back = decode_resp_ok(serve::encode_response(err));
  EXPECT_EQ(back.type, serve::MsgType::kClassify);
  EXPECT_EQ(back.code, StatusCode::kInvalidArgument);
  Status st = back.to_status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dimension mismatch"), std::string::npos);
}

TEST(ProtocolResponseTest, GarbageResponseBodiesAreRejectedCleanly) {
  serve::Response out;
  EXPECT_FALSE(serve::decode_response({}, out).ok());

  // Trailing junk after a valid ping response.
  serve::Response ping;
  ping.type = serve::MsgType::kPing;
  auto bytes = serve::encode_response(ping);
  bytes.push_back(0x55);
  EXPECT_FALSE(serve::decode_response(bytes, out).ok());

  // Truncation at every prefix of a classify response must fail cleanly.
  serve::Response resp;
  resp.type = serve::MsgType::kClassify;
  resp.classify.push_back({1, PointKind::Core, true, true, 4});
  const auto full = serve::encode_response(resp);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> part(full.begin(),
                                   full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(serve::decode_response(part, out).ok()) << "cut " << cut;
  }
}

// ---------------------------------------------------------------------------
// TELEMETRY admin message
// ---------------------------------------------------------------------------

serve::TelemetryReport sample_report() {
  serve::TelemetryReport t;
  t.uptime_us = 12'345'678;
  t.inflight = 3;
  t.requests_total = 1000;
  t.errors_total = 7;
  t.shed_load_total = 5;
  t.shed_connections_total = 2;
  t.corrupt_frames_total = 1;
  t.idle_disconnects_total = 4;
  t.classify_points = 900;
  t.classify_performed = 400;
  t.classify_avoided_exact = 500;
  const double spans[] = {1.0, 10.0, 60.0};
  for (std::size_t i = 0; i < serve::kTelemetryWindows; ++i) {
    serve::TelemetryWindow& w = t.windows[i];
    w.window_seconds = spans[i];
    w.requests = 100 * (i + 1);
    w.errors = i;
    w.shed = 2 * i;
    w.qps = 100.5 * static_cast<double>(i + 1);
    w.p50_us = 80.0 + static_cast<double>(i);
    w.p90_us = 150.0;
    w.p99_us = 240.0;
    w.p999_us = 900.0;
    w.max_us = 40900.0;
  }
  return t;
}

TEST(ProtocolTelemetryTest, RequestRoundtripsEveryFormat) {
  for (auto fmt : {serve::TelemetryFormat::kBinary,
                   serve::TelemetryFormat::kJson,
                   serve::TelemetryFormat::kPrometheus}) {
    serve::Request req;
    req.type = serve::MsgType::kTelemetry;
    req.telemetry_format = fmt;
    const auto back = decode_req_ok(serve::encode_request(req));
    EXPECT_EQ(back.type, serve::MsgType::kTelemetry);
    EXPECT_EQ(back.telemetry_format, fmt);
  }
  // Unknown format byte is the caller's mistake, not corruption.
  serve::Request out;
  const std::vector<std::uint8_t> bad = {7, 9};
  EXPECT_EQ(serve::decode_request(bad, out).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTelemetryTest, BinaryResponseRoundtripsExactly) {
  serve::Response resp;
  resp.type = serve::MsgType::kTelemetry;
  resp.telemetry_format = serve::TelemetryFormat::kBinary;
  resp.telemetry = sample_report();
  const auto back = decode_resp_ok(serve::encode_response(resp));
  EXPECT_EQ(back.telemetry_format, serve::TelemetryFormat::kBinary);
  const serve::TelemetryReport& a = resp.telemetry;
  const serve::TelemetryReport& b = back.telemetry;
  EXPECT_EQ(a.uptime_us, b.uptime_us);
  EXPECT_EQ(a.inflight, b.inflight);
  EXPECT_EQ(a.requests_total, b.requests_total);
  EXPECT_EQ(a.errors_total, b.errors_total);
  EXPECT_EQ(a.shed_load_total, b.shed_load_total);
  EXPECT_EQ(a.shed_connections_total, b.shed_connections_total);
  EXPECT_EQ(a.corrupt_frames_total, b.corrupt_frames_total);
  EXPECT_EQ(a.idle_disconnects_total, b.idle_disconnects_total);
  EXPECT_EQ(a.classify_points, b.classify_points);
  EXPECT_EQ(a.classify_performed, b.classify_performed);
  EXPECT_EQ(a.classify_avoided_exact, b.classify_avoided_exact);
  for (std::size_t i = 0; i < serve::kTelemetryWindows; ++i) {
    EXPECT_EQ(a.windows[i].window_seconds, b.windows[i].window_seconds) << i;
    EXPECT_EQ(a.windows[i].requests, b.windows[i].requests) << i;
    EXPECT_EQ(a.windows[i].errors, b.windows[i].errors) << i;
    EXPECT_EQ(a.windows[i].shed, b.windows[i].shed) << i;
    EXPECT_EQ(a.windows[i].qps, b.windows[i].qps) << i;
    EXPECT_EQ(a.windows[i].p50_us, b.windows[i].p50_us) << i;
    EXPECT_EQ(a.windows[i].p90_us, b.windows[i].p90_us) << i;
    EXPECT_EQ(a.windows[i].p99_us, b.windows[i].p99_us) << i;
    EXPECT_EQ(a.windows[i].p999_us, b.windows[i].p999_us) << i;
    EXPECT_EQ(a.windows[i].max_us, b.windows[i].max_us) << i;
  }
}

TEST(ProtocolTelemetryTest, TextResponseRoundtrips) {
  serve::Response resp;
  resp.type = serve::MsgType::kTelemetry;
  resp.telemetry_format = serve::TelemetryFormat::kPrometheus;
  resp.json = "udbscan_serve_requests_total 9\n";
  const auto back = decode_resp_ok(serve::encode_response(resp));
  EXPECT_EQ(back.telemetry_format, serve::TelemetryFormat::kPrometheus);
  EXPECT_EQ(back.json, resp.json);
}

TEST(ProtocolTelemetryTest, NonFinitePercentileIsRejected) {
  serve::Response resp;
  resp.type = serve::MsgType::kTelemetry;
  resp.telemetry_format = serve::TelemetryFormat::kBinary;
  resp.telemetry = sample_report();
  resp.telemetry.windows[1].p99_us =
      std::numeric_limits<double>::infinity();
  serve::Response out;
  EXPECT_EQ(serve::decode_response(serve::encode_response(resp), out).code(),
            StatusCode::kDataLoss);
}

TEST(ProtocolTelemetryTest, TruncatedBinaryResponseFailsCleanly) {
  serve::Response resp;
  resp.type = serve::MsgType::kTelemetry;
  resp.telemetry_format = serve::TelemetryFormat::kBinary;
  resp.telemetry = sample_report();
  const auto full = serve::encode_response(resp);
  serve::Response out;
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::vector<std::uint8_t> part(full.begin(),
                                   full.begin() + static_cast<long>(cut));
    EXPECT_FALSE(serve::decode_response(part, out).ok()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace udb
