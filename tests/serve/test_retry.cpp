// RetryingClient + overload protection end to end (serve/retry.* +
// server.*): retries under injected wire faults always land the exact
// answer, replica failover loses nothing when a server dies mid-batch,
// deterministic sheds (connection budget, memory budget) come back
// RESOURCE_EXHAUSTED, idle connections are reclaimed, and a body that is
// not the one envelope is answered DATA_LOSS on a connection that stays
// usable.

#include "serve/retry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "serve/netfault.hpp"
#include "serve/server.hpp"

namespace udb {
namespace {

std::shared_ptr<const serve::ClusterModel> fitted_model(std::size_t n,
                                                        std::uint64_t seed) {
  serve::ModelSnapshot snap;
  snap.data = gen_blobs(n, 2, 4, 20.0, 1.0, 0.1, seed);
  snap.params = {1.2, 5};
  snap.result = mu_dbscan(snap.data, snap.params);
  auto m = serve::ClusterModel::build(std::move(snap));
  EXPECT_TRUE(m.ok()) << m.status().to_string();
  return *m;
}

serve::RetryPolicy fast_policy() {
  serve::RetryPolicy p;
  p.max_attempts = 8;
  p.initial_backoff_seconds = 0.001;
  p.max_backoff_seconds = 0.02;
  p.timeout_seconds = 2.0;
  p.jitter_seed = 7;
  return p;
}

TEST(RetryStatusTest, OnlyTransientCodesAreRetryable) {
  EXPECT_TRUE(serve::retryable_status(StatusCode::kUnavailable));
  EXPECT_TRUE(serve::retryable_status(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(serve::retryable_status(StatusCode::kDataLoss));
  EXPECT_TRUE(serve::retryable_status(StatusCode::kResourceExhausted));
  EXPECT_FALSE(serve::retryable_status(StatusCode::kInvalidArgument));
  EXPECT_FALSE(serve::retryable_status(StatusCode::kNotFound));
  EXPECT_FALSE(serve::retryable_status(StatusCode::kUnimplemented));
  EXPECT_FALSE(serve::retryable_status(StatusCode::kInternal));
  EXPECT_FALSE(serve::retryable_status(StatusCode::kOk));
}

TEST(RetryingClientTest, NoEndpointsFailsCleanly) {
  serve::RetryingClient client({}, fast_policy());
  auto st = client.ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(RetryingClientTest, UnreachableServerGivesUpWithUnavailable) {
  obs::MetricsRegistry metrics;
  serve::RetryPolicy p = fast_policy();
  p.max_attempts = 3;
  p.timeout_seconds = 0.2;
  // Port 1 on loopback: nothing listens there in any sane environment.
  serve::RetryingClient client({1}, p, &metrics);
  auto st = client.ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::kServeClientGiveUps), 1u);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::kServeClientRetries), 2u);
}

TEST(RetryingClientTest, RetriesInjectedDropsToTheExactAnswer) {
  auto model = fitted_model(400, 11);
  serve::QueryServer server(model, {});
  ASSERT_TRUE(server.start().ok());

  serve::NetFaultPlan plan;
  plan.seed = 2024;
  plan.write.drop_rate = 0.15;
  plan.read.drop_rate = 0.15;
  serve::reset_net_fault_state();
  serve::install_net_fault_plan(&plan);

  obs::MetricsRegistry metrics;
  serve::RetryingClient client({server.port()}, fast_policy(), &metrics);
  for (int i = 0; i < 30; ++i) {
    const auto id = static_cast<PointId>((i * 13) % 400);
    const auto p = model->dataset().point(id);
    auto r = client.classify(p, 2);
    ASSERT_TRUE(r.ok()) << i << ": " << r.status().to_string();
    ASSERT_EQ(r->size(), 1u);
    EXPECT_TRUE((*r)[0].exact_match);
    EXPECT_EQ((*r)[0].label, model->result().label[id]);
  }
  serve::install_net_fault_plan(nullptr);
  // At 15% drop per op some attempt must have been severed and retried.
  EXPECT_GT(metrics.snapshot().counter(obs::Counter::kServeClientRetries), 0u);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::kServeClientGiveUps), 0u);
  server.stop();
}

TEST(RetryingClientTest, FailoverOnKilledReplicaLosesNothing) {
  auto model = fitted_model(400, 5);
  serve::QueryServer a(model, {});
  serve::QueryServer b(model, {});
  ASSERT_TRUE(a.start().ok());
  ASSERT_TRUE(b.start().ok());

  obs::MetricsRegistry metrics;
  serve::RetryingClient client({a.port(), b.port()}, fast_policy(), &metrics);
  auto batch = [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      const auto id = static_cast<PointId>(i % 400);
      const auto p = model->dataset().point(id);
      auto r = client.classify(p, 2);
      ASSERT_TRUE(r.ok()) << i << ": " << r.status().to_string();
      ASSERT_EQ(r->size(), 1u);
      EXPECT_EQ((*r)[0].label, model->result().label[id]) << i;
    }
  };
  batch(0, 10);                 // served by replica a
  a.stop();                     // dies mid-batch
  batch(10, 40);                // must fail over to b, losing nothing
  EXPECT_GE(metrics.snapshot().counter(obs::Counter::kServeClientFailovers),
            1u);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::kServeClientGiveUps), 0u);
  EXPECT_EQ(client.endpoint_index(), 1u);
  b.stop();
}

TEST(QueryServerOverloadTest, ConnectionBudgetShedsWithResourceExhausted) {
  auto model = fitted_model(300, 3);
  serve::ServerConfig cfg;
  cfg.max_connections = 1;
  serve::QueryServer server(model, cfg);
  ASSERT_TRUE(server.start().ok());

  auto holder = serve::Client::connect(server.port(), 2.0);
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(holder->ping().ok());  // budget now provably full

  // The shed frame arrives unprompted right after accept; read it raw so the
  // close that follows can never race one of our writes.
  auto shed_conn = serve::connect_loopback(server.port(), 2.0);
  ASSERT_TRUE(shed_conn.ok());
  auto frame = serve::read_frame(*shed_conn);
  ASSERT_TRUE(frame.ok()) << frame.status().to_string();
  serve::FrameV2 env;
  ASSERT_TRUE(
      serve::parse_frame_v2(std::span<const std::uint8_t>(*frame), env).ok());
  EXPECT_EQ(env.request_id, 0u);
  serve::Response resp;
  ASSERT_TRUE(serve::decode_response(env.payload, resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(server.metrics().snapshot().counter(
                obs::Counter::kServeShedConnections),
            1u);

  // The held connection still serves; a slot frees when it closes.
  EXPECT_TRUE(holder->ping().ok());
  server.stop();
}

TEST(QueryServerOverloadTest, MemoryBudgetShedsEveryFrameDeterministically) {
  auto model = fitted_model(300, 3);
  serve::ServerConfig cfg;
  cfg.memory_budget_bytes = 8;  // smaller than any framed request
  serve::QueryServer server(model, cfg);
  ASSERT_TRUE(server.start().ok());

  // Plain client: the shed must surface as a server-side RESOURCE_EXHAUSTED.
  auto c = serve::Client::connect(server.port(), 2.0);
  ASSERT_TRUE(c.ok());
  auto st = c->ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);

  // Retrying client: sheds are retried, then given up on cleanly.
  obs::MetricsRegistry metrics;
  serve::RetryPolicy p = fast_policy();
  p.max_attempts = 3;
  serve::RetryingClient rc({server.port()}, p, &metrics);
  auto st2 = rc.ping();
  ASSERT_FALSE(st2.ok());
  EXPECT_EQ(st2.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::kServeClientRetries), 2u);
  EXPECT_EQ(metrics.snapshot().counter(obs::Counter::kServeClientGiveUps), 1u);
  EXPECT_GE(server.metrics().snapshot().counter(obs::Counter::kServeShedLoad),
            4u);
  server.stop();
}

TEST(QueryServerOverloadTest, IdleConnectionsAreDisconnectedAndCounted) {
  auto model = fitted_model(300, 3);
  serve::ServerConfig cfg;
  cfg.idle_timeout_seconds = 0.05;
  serve::QueryServer server(model, cfg);
  ASSERT_TRUE(server.start().ok());

  auto c = serve::Client::connect(server.port(), 2.0);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->ping().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_FALSE(c->ping().ok());  // the server hung up while we idled
  EXPECT_GE(server.metrics().snapshot().counter(
                obs::Counter::kServeIdleDisconnects),
            1u);
  // A fresh, active connection is unaffected.
  auto fresh = serve::Client::connect(server.port(), 2.0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->ping().ok());
  server.stop();
}

TEST(EnvelopeTest, OtherFirstBytesGetDataLossOnAUsableConnection) {
  auto model = fitted_model(300, 3);
  serve::QueryServer server(model, {});
  ASSERT_TRUE(server.start().ok());

  auto sock = serve::connect_loopback(server.port(), 2.0);
  ASSERT_TRUE(sock.ok());

  serve::Request ping;
  ping.type = serve::MsgType::kPing;
  const std::vector<std::uint8_t> payload = serve::encode_request(ping);
  // Bare message-type bytes and the retired untraced marker 0xB2, each in
  // front of an otherwise well-formed envelope.
  const std::uint8_t firsts[] = {1, 2, 3, 4, 5, 6, 7, 0xB2};
  for (const std::uint8_t first : firsts) {
    std::vector<std::uint8_t> body = serve::frame_v2(9, payload);
    body[0] = first;
    ASSERT_TRUE(serve::write_frame(*sock, body).ok()) << int(first);
    auto frame = serve::read_frame(*sock);
    ASSERT_TRUE(frame.ok()) << int(first);
    serve::FrameV2 env;
    ASSERT_TRUE(
        serve::parse_frame_v2(std::span<const std::uint8_t>(*frame), env).ok())
        << int(first);
    EXPECT_EQ(env.request_id, 0u) << int(first);
    serve::Response resp;
    ASSERT_TRUE(serve::decode_response(env.payload, resp).ok()) << int(first);
    EXPECT_EQ(resp.code, StatusCode::kDataLoss) << int(first);
  }
  EXPECT_EQ(
      server.metrics().snapshot().counter(obs::Counter::kServeCorruptFrames),
      std::size(firsts));

  // Same connection, well-formed envelope: the server serves it normally.
  ASSERT_TRUE(serve::write_frame(*sock, serve::frame_v2(1, payload)).ok());
  auto frame = serve::read_frame(*sock);
  ASSERT_TRUE(frame.ok());
  serve::FrameV2 env;
  ASSERT_TRUE(
      serve::parse_frame_v2(std::span<const std::uint8_t>(*frame), env).ok());
  EXPECT_EQ(env.request_id, 1u);
  serve::Response resp;
  ASSERT_TRUE(serve::decode_response(env.payload, resp).ok());
  EXPECT_EQ(resp.code, StatusCode::kOk);
  server.stop();
}

}  // namespace
}  // namespace udb
