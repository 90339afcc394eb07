// serve_classify: a fitted 2-D model served by an in-process QueryServer on
// loopback; one client connection sends single-point classify requests on a
// fixed schedule (open loop), alternating training points (exact-match hash
// path) with novel points (µR-tree search).

#include <pthread.h>
#include <sched.h>

#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "gates.hpp"
#include "serve/client.hpp"
#include "serve/model.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median (one takes about a tenth of a
// second).
constexpr int kSetupReps = 5;

constexpr std::size_t kN = 20000;
constexpr std::size_t kDim = 2;
constexpr std::size_t kQueries = 4096;  // of each kind
// About a quarter of one connection's capacity (a round trip takes ~43 us on
// a 4-core VM), so requests queue only when a stall builds a backlog. At
// half the capacity the p50 spread between runs doubled.
constexpr double kOfferedRate = 5000.0;
// The blob layout is fixed; the seed picks the point order and the queries.
constexpr std::uint64_t kDataSeed = 42;

struct Served {
  udb::Dataset data;
  udb::ClusteringResult fit;
  std::shared_ptr<const udb::serve::ClusterModel> model;
  std::unique_ptr<udb::serve::QueryServer> server;
  std::unique_ptr<udb::serve::Client> client;
};

template <typename T>
T value_or_throw(udb::StatusOr<T> s) {
  if (!s.ok()) throw udb::StatusError(s.status());
  return std::move(*s);
}

// Runs the client and the server's threads on one core (they inherit the
// set they are created under). A request then hands the core from client to
// server and back instead of waking a thread on another virtual CPU, which
// on a shared host can be descheduled for milliseconds.
void pin_to_one_core() {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(0, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

Served set_up(std::uint64_t seed) {
  Served s;
  pin_to_one_core();
  const udb::DbscanParams prm{1.5, 5};
  s.data = shuffled(udb::gen_blobs(kN, kDim, 24, 100.0, 1.0, 0.08, kDataSeed),
                    seed);
  s.fit = udb::mu_dbscan(s.data, prm);
  udb::serve::ModelSnapshot snap;
  snap.data = s.data;
  snap.params = prm;
  snap.result = s.fit;
  s.model = value_or_throw(udb::serve::ClusterModel::build(std::move(snap)));
  udb::serve::ServerConfig cfg;
  cfg.pool_threads = 1;
  s.server = std::make_unique<udb::serve::QueryServer>(s.model, cfg);
  if (udb::Status st = s.server->start(); !st.ok()) throw udb::StatusError(st);
  s.client = std::make_unique<udb::serve::Client>(
      value_or_throw(udb::serve::Client::connect(s.server->port(), 10.0)));
  return s;
}

// The in-process wire codec for one single-point request and its answer:
// encode, frame, parse, decode, both ways.
bool codec_roundtrip(std::span<const double> q,
                     const udb::serve::Classify& answer) {
  using namespace udb::serve;
  Request req;
  req.type = MsgType::kClassify;
  req.dim = static_cast<std::uint32_t>(q.size());
  req.coords.assign(q.begin(), q.end());
  const auto req_frame = frame_v2(7, encode_request(req));
  FrameV2 f;
  Request got_req;
  if (!parse_frame_v2(req_frame, f).ok() ||
      !decode_request(f.payload, got_req).ok())
    return false;
  Response resp;
  resp.type = MsgType::kClassify;
  resp.classify = {answer};
  const auto resp_frame = frame_v2(7, encode_response(resp));
  Response got_resp;
  return parse_frame_v2(resp_frame, f).ok() &&
         decode_response(f.payload, got_resp).ok() &&
         got_resp.classify.size() == 1;
}

}  // namespace

RunResult run_serve(const Options& opt, Tracer& tracer) {
  RunResult r;
  std::vector<double> setup_s;
  Served sv;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sv = Served{};  // stops the previous server before the clock starts
    const auto t0 = Clock::now();
    sv = set_up(opt.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const udb::DbscanParams prm = sv.model->params();

  // Queries: training points verbatim, and novel points offset from
  // training points (some land as borders, some as noise).
  udb::Rng rng(opt.seed * 0x2545f4914f6cdd1dULL + 7);
  std::vector<double> train, novel;
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto id = static_cast<udb::PointId>(rng.uniform_index(kN));
    train.insert(train.end(), sv.data.ptr(id), sv.data.ptr(id) + kDim);
    const auto base = static_cast<udb::PointId>(rng.uniform_index(kN));
    for (std::size_t k = 0; k < kDim; ++k)
      novel.push_back(sv.data.coord(base, k) + rng.uniform(-1.2, 1.2));
  }
  const auto want_train = expected_answers(sv.data, prm, sv.fit, train);
  const auto want_novel = expected_answers(sv.data, prm, sv.fit, novel);
  auto query = [&](std::uint64_t i) -> std::span<const double> {
    const auto& pool = i % 2 == 0 ? train : novel;
    return {pool.data() + ((i / 2) % kQueries) * kDim, kDim};
  };
  auto expected = [&](std::uint64_t i) -> const Expected& {
    return (i % 2 == 0 ? want_train : want_novel)[(i / 2) % kQueries];
  };

  // Open loop: request i is due at start + i / rate and is timed from then,
  // so a stall also counts against every request queued behind it.
  std::vector<double> lat_us, lat_traced_us, late_us;
  const double interval = 1.0 / kOfferedRate;
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  std::uint64_t sent = 0;
  for (std::uint64_t i = 0;; ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(i) * interval));
    if (seconds_between(start, due) >= opt.seconds) break;
    auto now = Clock::now();
    while (now < due) now = Clock::now();
    late_us.push_back(1e6 * seconds_between(due, now));
    // Traced in pairs, so traced and untraced requests each hold both
    // query kinds.
    const bool traced = opt.trace && (i / 2) % 2 == 1;
    Span s(traced ? &tracer : nullptr, "serve.request", i + 1);
    auto got = sv.client->classify(query(i), kDim);
    s.end();
    const double us = 1e6 * seconds_between(due, Clock::now());
    (traced ? lat_traced_us : lat_us).push_back(us);
    ++sent;
    if (!got.ok()) {
      r.fail("classify request failed: " + got.status().to_string());
    } else if (got->size() != 1) {
      r.fail("classify returned " + std::to_string(got->size()) + " answers");
    } else if (std::string e = check_answer(expected(i), (*got)[0]);
               !e.empty()) {
      r.fail(e);
    }
  }
  const double elapsed = seconds_between(start, Clock::now());
  r.attempted = sent;

  r.config = {{"n", json_number(kN)},
              {"d", json_number(kDim)},
              {"eps", json_number(prm.eps)},
              {"min_pts", json_number(prm.min_pts)},
              {"threads", json_number(1)},
              {"server_pool_threads", json_number(1)},
              {"connections", json_number(1)},
              {"cpu_affinity", json_string("client and server on core 0")},
              {"offered_rate", json_number(kOfferedRate)},
              {"oracle", json_string("brute-force expected label, kind and "
                                     "exact_match per request")}};
  r.extra = {
      {"req_p50_us", quantile(lat_us, 0.5), "us", lat_us.size(), "requests"},
      {"req_p99_us", quantile(lat_us, 0.99), "us", lat_us.size(), "requests"},
      {"qps", static_cast<double>(sent) / elapsed, "1/s", sent, "requests"},
      {"gen_late_p50_us", quantile(late_us, 0.5), "us", late_us.size(),
       "requests"},
      {"gen_late_p99_us", quantile(late_us, 0.99), "us", late_us.size(),
       "requests"},
  };

  if (!opt.trace) {
    r.metrics = {
        {"setup_s", median(setup_s), "s", setup_s.size(),
         "generate + fit + model build + server start + connect"},
        {"p50_ms", 1e-3 * quantile(lat_us, 0.5), "ms", lat_us.size(),
         "requests, from due time"},
        {"throughput_per_s", static_cast<double>(sent) / elapsed, "1/s", sent,
         "requests completed per second"},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1, "process"},
    };
    return r;
  }

  // ---- traced run: in-process layers on the same query points -----------
  std::vector<double> exact_us, search_us, codec_us;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t i = 0; i < 2 * kQueries; ++i) {
      const auto q = query(i);
      const auto t0 = Clock::now();
      udb::StatusOr<udb::serve::Classify> c = [&] {
        Span s(&tracer, i % 2 == 0 ? "serve.classify_exact"
                                   : "serve.classify_search");
        return sv.model->classify(q);
      }();
      const auto t1 = Clock::now();
      (i % 2 == 0 ? exact_us : search_us)
          .push_back(1e6 * seconds_between(t0, t1));
      ++r.attempted;
      if (!c.ok()) {
        r.fail("in-process classify failed");
        continue;
      }
      if (std::string e = check_answer(expected(i), *c); !e.empty()) r.fail(e);
      bool ok = false;
      {
        Span s(&tracer, "serve.codec");
        ok = codec_roundtrip(q, *c);
      }
      codec_us.push_back(1e6 * seconds_between(t1, Clock::now()));
      if (!ok) r.fail("codec roundtrip failed");
    }
  }
  const auto snap = sv.server->metrics().snapshot();
  const double points = static_cast<double>(
      snap.counter(udb::obs::Counter::kServeClassifyPoints));
  const double avoided = static_cast<double>(
      snap.counter(udb::obs::Counter::kServeClassifyAvoidedExact));
  const auto ic = sv.model->tree().index_counters();
  const double req_p50 = quantile(lat_us, 0.5);
  // Requests alternate the two classify paths one to one.
  const double handler =
      0.5 * (quantile(exact_us, 0.5) + quantile(search_us, 0.5));
  const double codec = quantile(codec_us, 0.5);
  const double evals = static_cast<double>(ic.distance_evals);
  const double bytes = evals * kDim * 8.0;  // computed, as for the fits
  const double ops = evals * kDim * 3.0;
  r.metrics = {
      {"serve.classify_exact_us", quantile(exact_us, 0.5), "us",
       exact_us.size(), "in-process exact-match classify"},
      {"serve.classify_search_us", quantile(search_us, 0.5), "us",
       search_us.size(), "in-process search classify"},
      {"serve.codec_us", codec, "us", codec_us.size(), "codec roundtrips"},
      {"serve.wire_us", req_p50 - handler - codec, "us", lat_us.size(),
       "request p50 minus handler minus codec"},
      {"serve.exact_match_ratio", points > 0 ? avoided / points : 0.0, "ratio"},
      {"client.gen_late_us", quantile(late_us, 0.99), "us", late_us.size(),
       "p99 generator lateness"},
      {"index.rtree_node_visits", static_cast<double>(ic.node_visits), "count"},
      {"index.rtree_distance_evals", evals, "count"},
      {"simd.kernel_blocks", static_cast<double>(ic.kernel_blocks), "count"},
      {"simd.kernel_tail_points", static_cast<double>(ic.kernel_tail_points),
       "count"},
      {"simd.computed_bytes", bytes, "B"},
      {"simd.ops_per_byte", bytes > 0 ? ops / bytes : 0.0, "ops/B"},
      {"murtree.num_mcs", static_cast<double>(sv.model->tree().num_mcs()),
       "count"},
      {"murtree.aux_trees_searched",
       static_cast<double>(sv.model->tree().aux_trees_searched()), "count"},
      {"trace.overhead_ms",
       1e-3 * (quantile(lat_traced_us, 0.5) - req_p50), "ms",
       lat_traced_us.size(), "traced minus untraced request p50"},
  };
  std::printf("serve split of req p50 %.3f us: handler %.3f us (%.1f%%), "
              "codec %.3f us (%.1f%%), wire %.3f us (%.1f%%)\n",
              req_p50, handler, 100 * handler / req_p50, codec,
              100 * codec / req_p50, req_p50 - handler - codec,
              100 * (req_p50 - handler - codec) / req_p50);
  return r;
}

}  // namespace perfbench
