// Transport hardening (common/crc32.hpp + netfault.* + the frame envelope):
// CRC algebra, the seeded fault plan's determinism and zero-cost-off
// contract, envelope roundtrip and tamper detection, and injected wire
// faults end to end through real sockets — every fault must surface as a
// clean retryable Status, never a wrong answer.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "serve/client.hpp"
#include "serve/netfault.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace udb {
namespace {

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // IEEE 802.3 reference values ("check" value of the CRC catalogue).
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check, sizeof check), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, UpdateComposesConcatenation) {
  const std::uint8_t a[] = {1, 2, 3, 4, 5};
  const std::uint8_t b[] = {6, 7, 8, 9, 10, 11};
  std::uint8_t both[sizeof a + sizeof b];
  std::memcpy(both, a, sizeof a);
  std::memcpy(both + sizeof a, b, sizeof b);
  EXPECT_EQ(crc32_update(crc32(a, sizeof a), b, sizeof b),
            crc32(both, sizeof both));
  // Empty extension is the identity.
  EXPECT_EQ(crc32_update(crc32(a, sizeof a), nullptr, 0),
            crc32(a, sizeof a));
}

TEST(Crc32Test, SingleBitFlipAlwaysDetected) {
  std::vector<std::uint8_t> data(64);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  const std::uint32_t clean = crc32(data.data(), data.size());
  for (std::size_t byte = 0; byte < data.size(); ++byte)
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32(data.data(), data.size()), clean)
          << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
}

// ---------------------------------------------------------------------------
// Envelope, untraced (zero trace context)
// ---------------------------------------------------------------------------

TEST(ProtocolV2Test, RoundtripPreservesIdAndPayload) {
  const std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5};
  const auto framed = serve::frame_v2(0xABCDEF0123456789ull, payload);
  ASSERT_EQ(framed.size(), serve::kFrameHeaderBytes + payload.size());
  EXPECT_EQ(framed[0], serve::kFrameMarker);

  serve::FrameV2 env;
  ASSERT_TRUE(serve::parse_frame_v2(framed, env).ok());
  EXPECT_EQ(env.request_id, 0xABCDEF0123456789ull);
  ASSERT_EQ(env.payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(env.payload.data(), payload.data(), payload.size()),
            0);
}

TEST(ProtocolV2Test, EmptyPayloadRoundtrips) {
  const auto framed = serve::frame_v2(7, {});
  serve::FrameV2 env;
  ASSERT_TRUE(serve::parse_frame_v2(framed, env).ok());
  EXPECT_EQ(env.request_id, 7u);
  EXPECT_TRUE(env.payload.empty());
}

TEST(ProtocolV2Test, EveryBitFlipInTheFrameIsRejected) {
  serve::Request req;
  req.type = serve::MsgType::kPointInfo;
  req.point_id = 42;
  auto framed = serve::frame_v2(5, serve::encode_request(req));
  for (std::size_t byte = 0; byte < framed.size(); ++byte) {
    framed[byte] ^= 0x40;
    serve::FrameV2 env;
    auto st = serve::parse_frame_v2(framed, env);
    EXPECT_FALSE(st.ok()) << "byte " << byte;
    framed[byte] ^= 0x40;
  }
  // Untouched, it still parses: the loop restored every byte.
  serve::FrameV2 env;
  EXPECT_TRUE(serve::parse_frame_v2(framed, env).ok());
}

TEST(ProtocolV2Test, AnyFirstByteButTheMarkerIsDataLoss) {
  // 0xB3 is the only envelope: bare message-type bytes (0x01-0x07) and the
  // retired untraced marker 0xB2 are corruption like any other byte.
  const auto framed = serve::frame_v2(3, std::vector<std::uint8_t>{1, 2, 3});
  for (int first = 0; first < 256; ++first) {
    if (first == serve::kFrameMarker) continue;
    auto body = framed;
    body[0] = static_cast<std::uint8_t>(first);
    serve::FrameV2 env;
    EXPECT_EQ(serve::parse_frame_v2(body, env).code(), StatusCode::kDataLoss)
        << first;
  }
  for (std::uint8_t type = 1; type <= 7; ++type) {
    const std::vector<std::uint8_t> bare = {type, 0, 0, 0};
    serve::FrameV2 env;
    EXPECT_EQ(serve::parse_frame_v2(bare, env).code(), StatusCode::kDataLoss)
        << int(type);
  }
  serve::FrameV2 env;
  EXPECT_EQ(serve::parse_frame_v2(std::span<const std::uint8_t>{}, env).code(),
            StatusCode::kDataLoss);
}

TEST(ProtocolV2Test, TruncatedEnvelopeIsDataLoss) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto framed = serve::frame_v2(9, payload);
  for (std::size_t len = 1; len < serve::kFrameHeaderBytes; ++len) {
    serve::FrameV2 env;
    auto st = serve::parse_frame_v2(
        std::span<const std::uint8_t>(framed.data(), len), env);
    ASSERT_FALSE(st.ok()) << len;
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << len;
  }
}

// ---------------------------------------------------------------------------
// Envelope, traced
// ---------------------------------------------------------------------------

TEST(ProtocolV2TracedTest, RoundtripPreservesTraceContext) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  const auto framed =
      serve::frame_v2(11, payload, 0xFEEDFACE12345678ull, 3);
  ASSERT_EQ(framed.size(), serve::kFrameHeaderBytes + payload.size());
  EXPECT_EQ(framed[0], serve::kFrameMarker);

  serve::FrameV2 env;
  ASSERT_TRUE(serve::parse_frame_v2(framed, env).ok());
  EXPECT_EQ(env.request_id, 11u);
  EXPECT_EQ(env.trace_id, 0xFEEDFACE12345678ull);
  EXPECT_EQ(env.parent_span_id, 3u);
  ASSERT_EQ(env.payload.size(), payload.size());
  EXPECT_EQ(std::memcmp(env.payload.data(), payload.data(), payload.size()),
            0);
}

TEST(ProtocolV2TracedTest, ZeroTraceContextIsByteIdenticalToUntraced) {
  // A zero trace context is what "untraced" means: a sender with tracing off
  // emits exactly the frame of the call without a context, in the 0xB3 layout.
  const std::vector<std::uint8_t> payload = {5, 6, 7};
  const auto untraced = serve::frame_v2(21, payload);
  EXPECT_EQ(serve::frame_v2(21, payload, 0, 0), untraced);
  EXPECT_EQ(untraced[0], serve::kFrameMarker);
}

TEST(ProtocolV2TracedTest, UntracedFrameParsesWithZeroTraceContext) {
  const std::vector<std::uint8_t> payload = {9};
  const auto framed = serve::frame_v2(4, payload);
  serve::FrameV2 env;
  ASSERT_TRUE(serve::parse_frame_v2(framed, env).ok());
  EXPECT_EQ(env.trace_id, 0u);
  EXPECT_EQ(env.parent_span_id, 0u);
}

TEST(ProtocolV2TracedTest, EveryBitFlipInTracedFrameIsRejected) {
  // The CRC must cover the trace extension too: a flipped trace id may not
  // slip through and mis-correlate spans.
  serve::Request req;
  req.type = serve::MsgType::kPing;
  auto framed = serve::frame_v2(5, serve::encode_request(req),
                                0xA5A5A5A5A5A5A5A5ull, 2);
  for (std::size_t byte = 0; byte < framed.size(); ++byte) {
    framed[byte] ^= 0x40;
    serve::FrameV2 env;
    EXPECT_FALSE(serve::parse_frame_v2(framed, env).ok()) << "byte " << byte;
    framed[byte] ^= 0x40;
  }
  serve::FrameV2 env;
  EXPECT_TRUE(serve::parse_frame_v2(framed, env).ok());
}

TEST(ProtocolV2TracedTest, TruncatedTracedEnvelopeIsDataLoss) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const auto framed = serve::frame_v2(9, payload, 77, 1);
  for (std::size_t len = 1; len < serve::kFrameHeaderBytes; ++len) {
    serve::FrameV2 env;
    auto st = serve::parse_frame_v2(
        std::span<const std::uint8_t>(framed.data(), len), env);
    ASSERT_FALSE(st.ok()) << len;
    EXPECT_EQ(st.code(), StatusCode::kDataLoss) << len;
  }
}

// ---------------------------------------------------------------------------
// NetFaultPlan bookkeeping
// ---------------------------------------------------------------------------

TEST(NetFaultPlanTest, InstallUninstallAndCounters) {
  serve::install_net_fault_plan(nullptr);
  EXPECT_EQ(serve::net_fault_plan(), nullptr);

  serve::NetFaultPlan plan;
  plan.seed = 1234;
  serve::install_net_fault_plan(&plan);
  EXPECT_EQ(serve::net_fault_plan(), &plan);

  serve::reset_net_fault_state();
  serve::count_net_fault(serve::NetFaultKind::kOp);
  serve::count_net_fault(serve::NetFaultKind::kCorrupt);
  const auto counts = serve::net_fault_counts();
  EXPECT_EQ(counts.ops, 1u);
  EXPECT_EQ(counts.corrupted, 1u);
  EXPECT_EQ(counts.dropped, 0u);

  serve::reset_net_fault_state();
  EXPECT_EQ(serve::net_fault_counts().ops, 0u);
  serve::install_net_fault_plan(nullptr);
}

// ---------------------------------------------------------------------------
// Injected wire faults end to end
// ---------------------------------------------------------------------------

class NetFaultSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    serve::ModelSnapshot snap;
    snap.data = gen_blobs(400, 2, 4, 20.0, 1.0, 0.1, 7);
    snap.params = {1.2, 5};
    snap.result = mu_dbscan(snap.data, snap.params);
    auto m = serve::ClusterModel::build(std::move(snap));
    ASSERT_TRUE(m.ok());
    model_ = *m;
    server_ = std::make_unique<serve::QueryServer>(model_, serve::ServerConfig{});
    ASSERT_TRUE(server_->start().ok());
    serve::reset_net_fault_state();
  }

  void TearDown() override {
    serve::install_net_fault_plan(nullptr);
    server_->stop();
  }

  std::shared_ptr<const serve::ClusterModel> model_;
  std::unique_ptr<serve::QueryServer> server_;
  serve::NetFaultPlan plan_;
};

TEST_F(NetFaultSocketTest, CorruptionIsCaughtNeverAnsweredWrong) {
  plan_.seed = 99;
  plan_.write.corrupt_rate = 0.25;
  plan_.read.corrupt_rate = 0.25;
  serve::install_net_fault_plan(&plan_);

  std::size_t clean = 0, caught = 0;
  for (int i = 0; i < 60; ++i) {
    auto c = serve::Client::connect(server_->port(), 2.0);
    ASSERT_TRUE(c.ok());
    const auto p = model_->dataset().point(static_cast<PointId>(i % 400));
    auto r = c->classify(p, 2);
    if (r.ok()) {
      // Made it through the CRC intact: must be the exact in-process answer.
      ASSERT_EQ(r->size(), 1u);
      EXPECT_EQ((*r)[0].label,
                model_->result().label[static_cast<std::size_t>(i % 400)]);
      EXPECT_TRUE((*r)[0].exact_match);
      ++clean;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss)
          << r.status().to_string();
      ++caught;
    }
  }
  EXPECT_GT(clean, 0u);
  EXPECT_GT(caught, 0u);  // at 25% per op some corruption must have hit
  EXPECT_GT(serve::net_fault_counts().corrupted, 0u);
}

TEST_F(NetFaultSocketTest, DropsSurfaceAsUnavailable) {
  plan_.seed = 7;
  plan_.write.drop_rate = 0.30;
  plan_.read.drop_rate = 0.30;
  serve::install_net_fault_plan(&plan_);

  std::size_t failed = 0;
  for (int i = 0; i < 40; ++i) {
    auto c = serve::Client::connect(server_->port(), 2.0);
    ASSERT_TRUE(c.ok());
    if (!c->ping().ok()) ++failed;
  }
  EXPECT_GT(failed, 0u);
  EXPECT_GT(serve::net_fault_counts().dropped, 0u);
}

TEST(NetFaultDeterminismTest, SameSeedSameOrdinalsSameDecisions) {
  // Only the client side does frame I/O here (the listener never accepts,
  // writes land in the kernel backlog), so connection ordinals are assigned
  // in a deterministic order and the decision stream must replay exactly.
  std::uint16_t port = 0;
  auto listener = serve::listen_loopback(0, port);
  ASSERT_TRUE(listener.ok());

  serve::NetFaultPlan plan;
  plan.seed = 4242;
  plan.write.drop_rate = 0.5;
  const std::vector<std::uint8_t> body = {1, 2, 3, 4};

  auto run = [&] {
    serve::reset_net_fault_state();
    serve::install_net_fault_plan(&plan);
    std::vector<bool> outcomes;
    for (int i = 0; i < 24; ++i) {
      auto s = serve::connect_loopback(port, 2.0);
      EXPECT_TRUE(s.ok());
      outcomes.push_back(serve::write_frame(*s, body).ok());
    }
    serve::install_net_fault_plan(nullptr);
    return outcomes;
  };
  const auto first = run();
  EXPECT_EQ(first, run());
  // A different seed must produce a different pattern at 50% drop over 24
  // independent connections (collision probability 2^-24).
  plan.seed = 4243;
  EXPECT_NE(first, run());
}

TEST_F(NetFaultSocketTest, CrashPointSeversOneConnection) {
  plan_.seed = 1;
  plan_.crash_conn = 0;       // the first connection to do frame I/O ...
  plan_.crash_after_ops = 2;  // ... dies at its third frame operation
  serve::install_net_fault_plan(&plan_);

  auto c = serve::Client::connect(server_->port(), 2.0);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->ping().ok());      // ops 0 (write) and 1 (read)
  EXPECT_FALSE(c->ping().ok());     // op 2 crashes the connection
  EXPECT_GE(serve::net_fault_counts().crashed, 1u);

  serve::install_net_fault_plan(nullptr);
  auto fresh = serve::Client::connect(server_->port(), 2.0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->ping().ok());  // the server survived the severed conn
}

}  // namespace
}  // namespace udb
