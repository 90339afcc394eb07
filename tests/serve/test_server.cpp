// QueryServer end to end (serve/server.* + net.* + client.*): real loopback
// sockets, typed client calls checked against the in-process model, garbage
// frames answered with clean errors, refresh mid-serve, per-request
// deadlines, and concurrent clients. The in-process handle() seam is tested
// too, so protocol handling is covered even where sockets are flaky.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "serve/client.hpp"
#include "serve/snapshot.hpp"

namespace udb {
namespace {

constexpr double kEps = 1.2;
constexpr std::uint32_t kMinPts = 5;

std::shared_ptr<const serve::ClusterModel> fitted_model(std::size_t n,
                                                        std::uint64_t seed) {
  serve::ModelSnapshot snap;
  snap.data = gen_blobs(n, 2, 5, 25.0, 1.0, 0.1, seed);
  snap.params = {kEps, kMinPts};
  snap.result = mu_dbscan(snap.data, snap.params);
  auto m = serve::ClusterModel::build(std::move(snap));
  EXPECT_TRUE(m.ok()) << m.status().to_string();
  return *m;
}

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = fitted_model(600, 5);
    serve::ServerConfig cfg;
    cfg.pool_threads = 2;
    server_ = std::make_unique<serve::QueryServer>(model_, cfg);
    ASSERT_TRUE(server_->start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  serve::Client client() {
    auto c = serve::Client::connect(server_->port());
    EXPECT_TRUE(c.ok()) << c.status().to_string();
    return std::move(*c);
  }

  std::shared_ptr<const serve::ClusterModel> model_;
  std::unique_ptr<serve::QueryServer> server_;
};

TEST_F(QueryServerTest, PingAndModelInfo) {
  auto c = client();
  EXPECT_TRUE(c.ping().ok());
  auto info = c.model_info();
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info->n, model_->size());
  EXPECT_EQ(info->dim, model_->dim());
  EXPECT_EQ(info->eps, kEps);
  EXPECT_EQ(info->min_pts, kMinPts);
  EXPECT_EQ(info->num_clusters, model_->num_clusters());
}

TEST_F(QueryServerTest, ClassifyOverSocketMatchesInProcessModel) {
  // Mixed batch: verbatim dataset points interleaved with jittered ones.
  std::mt19937_64 rng(9);
  std::normal_distribution<double> jitter(0.0, 0.7 * kEps);
  std::vector<double> coords;
  const std::size_t count = 300;
  for (std::size_t i = 0; i < count; ++i) {
    const auto p = model_->dataset().point(static_cast<PointId>(i));
    coords.push_back(p[0] + (i % 2 ? jitter(rng) : 0.0));
    coords.push_back(p[1] + (i % 2 ? jitter(rng) : 0.0));
  }

  auto c = client();
  auto served = c.classify(coords, 2);
  ASSERT_TRUE(served.ok()) << served.status().to_string();
  auto direct = model_->classify_batch(coords, count);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(served->size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ((*served)[i].label, (*direct)[i].label) << i;
    EXPECT_EQ((*served)[i].kind, (*direct)[i].kind) << i;
    EXPECT_EQ((*served)[i].exact_match, (*direct)[i].exact_match) << i;
    EXPECT_EQ((*served)[i].would_be_core, (*direct)[i].would_be_core) << i;
    EXPECT_EQ((*served)[i].neighbors, (*direct)[i].neighbors) << i;
  }

  // The server's classify ledger must balance after real traffic.
  const auto snap = server_->metrics().snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kServeClassifyPerformed) +
                snap.counter(obs::Counter::kServeClassifyAvoidedExact),
            snap.counter(obs::Counter::kServeClassifyPoints));
  EXPECT_EQ(snap.counter(obs::Counter::kServeClassifyPoints), count);
}

TEST_F(QueryServerTest, NeighborsOverSocketMatchesInProcessModel) {
  const std::vector<double> q = {12.0, 12.0};
  auto c = client();
  auto served = c.neighbors(q, 3.0);
  ASSERT_TRUE(served.ok()) << served.status().to_string();
  auto direct = model_->neighbors(q, 3.0);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(served->size(), direct->size());
  for (std::size_t i = 0; i < served->size(); ++i) {
    EXPECT_EQ((*served)[i].first, (*direct)[i].first) << i;
    EXPECT_EQ((*served)[i].second, (*direct)[i].second) << i;
  }
}

TEST_F(QueryServerTest, PointInfoOverSocketAndOutOfRange) {
  auto c = client();
  auto info = c.point_info(0);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info->label, model_->result().label[0]);
  EXPECT_EQ(info->is_core, model_->result().is_core[0] != 0);

  auto bad = c.point_info(model_->size() + 10);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST_F(QueryServerTest, WrongDimensionIsAnsweredWithInvalidArgument) {
  const std::vector<double> q = {1.0, 2.0, 3.0};
  auto c = client();
  auto r = c.classify(q, 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The connection survives an application-level error.
  EXPECT_TRUE(c.ping().ok());
}

TEST_F(QueryServerTest, StatsJsonReportsTheLedger) {
  auto c = client();
  const std::vector<double> q = {1.0, 2.0};
  ASSERT_TRUE(c.classify(q, 2).ok());
  auto json = c.stats_json();
  ASSERT_TRUE(json.ok()) << json.status().to_string();
  EXPECT_NE(json->find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json->find("\"serve_ledger\""), std::string::npos);
  EXPECT_NE(json->find("\"classify_points\""), std::string::npos);
  EXPECT_NE(json->find("\"udbscan_serve\""), std::string::npos);
}

TEST_F(QueryServerTest, GarbageFramesGetErrorsAndTheServerSurvives) {
  // One garbage body per fresh connection, like the CLI probe: unknown type,
  // absurd batch claim, byte soup, truncated body, valid type + trailing junk.
  std::vector<std::vector<std::uint8_t>> frames;
  {
    ByteWriter w;
    w.u8(0xEE);
    frames.push_back(w.take());
  }
  {
    ByteWriter w;
    w.u8(2);
    w.u32(0xFFFFFFFFu);
    w.u32(3);
    frames.push_back(w.take());
  }
  {
    ByteWriter w;
    std::uint32_t x = 0xC0FFEE;
    for (int k = 0; k < 48; ++k) {
      x = x * 1664525u + 1013904223u;
      w.u8(static_cast<std::uint8_t>(x >> 24));
    }
    frames.push_back(w.take());
  }
  {
    ByteWriter w;
    w.u8(4);
    frames.push_back(w.take());
  }
  {
    ByteWriter w;
    w.u8(1);
    w.u64(0xDEADBEEFull);
    frames.push_back(w.take());
  }

  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto c = client();
    auto resp = c.raw_roundtrip(frames[i]);
    if (resp.ok()) {
      EXPECT_NE(resp->code, StatusCode::kOk) << "garbage frame " << i;
    }
    // A dropped connection is acceptable; a dead server is not — checked
    // by the fresh connection on the next iteration and the ping below.
  }
  auto after = client();
  EXPECT_TRUE(after.ping().ok());
}

TEST_F(QueryServerTest, RefreshSwapsTheServedModelMidServe) {
  auto c = client();
  auto before = c.model_info();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->n, 600u);

  server_->refresh(fitted_model(250, 77));
  auto after = c.model_info();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->n, 250u);
  // Queries go against the new model immediately.
  auto info = c.point_info(249);
  EXPECT_TRUE(info.ok());
  EXPECT_EQ(c.point_info(400).status().code(), StatusCode::kNotFound);
}

TEST_F(QueryServerTest, ConcurrentClientsAllGetExactAnswers) {
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto c = serve::Client::connect(server_->port());
      if (!c.ok()) {
        ++failures;
        return;
      }
      std::mt19937_64 rng(100 + t);
      for (int iter = 0; iter < 50; ++iter) {
        const auto id =
            static_cast<PointId>(rng() % model_->size());
        const auto p = model_->dataset().point(id);
        auto r = c->classify(p, 2);
        if (!r.ok() || r->size() != 1 || !(*r)[0].exact_match ||
            (*r)[0].label != model_->result().label[id])
          ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(QueryServerTest, StopIsIdempotentAndRefusesNewConnections) {
  server_->stop();
  server_->stop();
  EXPECT_FALSE(server_->running());
}

TEST(QueryServerDeadlineTest, TinyDeadlineAnswersDeadlineExceeded) {
  auto model = fitted_model(500, 13);
  serve::ServerConfig cfg;
  cfg.request_deadline_seconds = 1e-9;
  serve::QueryServer server(model, cfg);
  ASSERT_TRUE(server.start().ok());

  auto c = serve::Client::connect(server.port());
  ASSERT_TRUE(c.ok());
  std::vector<double> coords(2 * 1000, 3.0);
  auto r = c->classify(coords, 2);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(server.metrics().snapshot().counter(
                obs::Counter::kServeDeadlineExceeded),
            1u);
  // The connection is still usable afterwards.
  EXPECT_TRUE(c->ping().ok());
}

TEST(QueryServerHandleTest, InProcessHandleAnswersWithoutSockets) {
  // handle() is the connection worker's brain; it must work on a server
  // that was never start()ed (pure in-process serving).
  auto model = fitted_model(300, 3);
  serve::QueryServer server(model, {});

  serve::Request req;
  req.type = serve::MsgType::kPing;
  EXPECT_EQ(server.handle(req).code, StatusCode::kOk);

  req = {};
  req.type = serve::MsgType::kModelInfo;
  auto info = server.handle(req);
  ASSERT_EQ(info.code, StatusCode::kOk);
  EXPECT_EQ(info.model.n, 300u);

  req = {};
  req.type = serve::MsgType::kClassify;
  req.dim = 2;
  const auto p = model->dataset().point(7);
  req.coords = {p[0], p[1]};
  auto cls = server.handle(req);
  ASSERT_EQ(cls.code, StatusCode::kOk);
  ASSERT_EQ(cls.classify.size(), 1u);
  EXPECT_TRUE(cls.classify[0].exact_match);
  EXPECT_EQ(cls.classify[0].label, model->result().label[7]);

  req = {};
  req.type = serve::MsgType::kStats;
  auto stats = server.handle(req);
  ASSERT_EQ(stats.code, StatusCode::kOk);
  EXPECT_NE(stats.json.find("\"serve_ledger\""), std::string::npos);
}

}  // namespace
}  // namespace udb
