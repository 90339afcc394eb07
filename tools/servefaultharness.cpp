// servefaultharness: scripted fault-scenario matrix for the serving tier
// (docs/SERVING.md failure-mode matrix). In one process it builds a model,
// starts replica QueryServers over it, installs a seeded NetFaultPlan on the
// frame transport (serve/netfault.hpp), and drives classify traffic through
// the RetryingClient. Scenarios:
//
//   * baseline          — fault-free; every answer must match offline exactly
//   * corrupt           — bit-flips on the wire; the frame CRC must catch every
//                         one before a wrong answer can surface
//   * drop              — connections severed mid-exchange; reconnect+retry
//   * truncate          — short writes the sender believes succeeded
//   * mixed             — all of the above plus injected delays
//   * kill-replica      — replica 0 stopped mid-batch; failover must lose
//                         nothing (zero failed requests). Runs traced: the
//                         client and both replicas record spans into one
//                         tracer (replicas as trace pids 1/2), and the
//                         harness asserts a retried request's client.attempt
//                         spans and the server's phase spans share one trace
//                         id across the failover. --trace-out writes the
//                         merged Chrome trace for chrome://tracing.
//   * overload          — in-flight budget 1 under concurrent clients, every
//                         frame write delayed so an admitted request holds
//                         its slot while the others arrive; sheds are
//                         retried until every request succeeds
//
// Scenarios also scrape the TELEMETRY admin RPC mid-run and cross-check the
// live counters against the injected fault plan: corrupt asserts the server
// counted corrupted frames (and no more than were injected), overload
// asserts the scraped shed counter matches the server's registry.
//
// The invariant checked everywhere: a request either returns the exact
// offline answer or fails with a clean retryable status after exhausting its
// attempts. A single wrong answer — or a hang, bounded by per-attempt socket
// timeouts — fails the harness. Exit 0 iff every scenario holds.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/model.hpp"
#include "serve/netfault.hpp"
#include "serve/retry.hpp"
#include "serve/server.hpp"

using namespace udb;

namespace {

struct ScenarioRow {
  std::string name;
  std::size_t requests = 0;
  std::size_t wrong = 0;      // answered OK but differed from offline
  std::size_t failed = 0;     // gave up after retries (clean error)
  std::uint64_t retries = 0;
  std::uint64_t failovers = 0;
  serve::NetFaultCounts faults;
  bool ok = false;
};

struct Fixture {
  std::shared_ptr<const serve::ClusterModel> model;
  std::vector<double> queries;        // flat, dim per model
  std::vector<serve::Classify> oracle;  // offline answers, index-aligned
};

Fixture build_fixture(std::size_t n, std::size_t q, std::uint64_t seed) {
  serve::ModelSnapshot snap;
  snap.data = gen_blobs(n, 2, 5, 25.0, 1.0, 0.1, seed);
  snap.params = {1.2, 5};
  snap.result = mu_dbscan(snap.data, snap.params);
  auto model = serve::ClusterModel::build(std::move(snap));
  if (!model.ok())
    throw std::runtime_error("model build failed: " +
                             model.status().to_string());

  Fixture fx;
  fx.model = *model;
  // Half verbatim dataset points (exact-match path), half jittered copies —
  // the same mix the serving tests use, deterministic in the seed.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::size_t i = 0; i < q; ++i) {
    const auto p = fx.model->dataset().point(
        static_cast<PointId>(i % fx.model->size()));
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double jit =
        i % 2 == 0 ? 0.0
                   : (static_cast<double>(x >> 11) / 9007199254740992.0 - 0.5);
    fx.queries.push_back(p[0] + jit);
    fx.queries.push_back(p[1] + jit);
  }
  auto oracle = fx.model->classify_batch(fx.queries, q);
  if (!oracle.ok())
    throw std::runtime_error("offline classify failed: " +
                             oracle.status().to_string());
  fx.oracle = std::move(*oracle);
  return fx;
}

bool same_answer(const serve::Classify& a, const serve::Classify& b) {
  return a.label == b.label && a.kind == b.kind &&
         a.exact_match == b.exact_match && a.would_be_core == b.would_be_core &&
         a.neighbors == b.neighbors;
}

// Drives every fixture query, one request each, through the client and
// scores the outcome against the oracle.
void drive(const Fixture& fx, serve::RetryingClient& client, ScenarioRow& row,
           std::size_t begin = 0, std::size_t end = SIZE_MAX) {
  const std::size_t q = fx.oracle.size();
  if (end > q) end = q;
  for (std::size_t i = begin; i < end; ++i) {
    ++row.requests;
    const std::span<const double> point(fx.queries.data() + 2 * i, 2);
    auto r = client.classify(point, 2);
    if (!r.ok()) {
      if (!serve::retryable_status(r.status().code())) ++row.wrong;
      else ++row.failed;
      continue;
    }
    if (r->size() != 1 || !same_answer((*r)[0], fx.oracle[i])) ++row.wrong;
  }
}

void finish(ScenarioRow& row, const obs::MetricsRegistry& metrics) {
  const auto snap = metrics.snapshot();
  row.retries = snap.counter(obs::Counter::kServeClientRetries);
  row.failovers = snap.counter(obs::Counter::kServeClientFailovers);
  row.faults = serve::net_fault_counts();
  row.ok = row.wrong == 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const std::size_t n =
        static_cast<std::size_t>(cli.get_int_at_least("n", 600, 50));
    const std::size_t q =
        static_cast<std::size_t>(cli.get_int_at_least("queries", 40, 1));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const bool quick = cli.get_bool("quick", false);
    const std::string trace_out = cli.get_string("trace-out", "");
    cli.check_unused();

    const Fixture fx = build_fixture(n, q, seed);
    serve::RetryPolicy policy;
    policy.max_attempts = 6;
    policy.initial_backoff_seconds = 0.002;
    policy.max_backoff_seconds = 0.05;
    policy.timeout_seconds = 2.0;
    policy.jitter_seed = seed;

    std::vector<ScenarioRow> rows;

    // ---- wire-fault sweep: one server, plan installed process-wide --------
    struct WireScenario {
      const char* name;
      serve::NetOpFaults read, write;
    };
    const std::vector<WireScenario> wire = {
        {"baseline", {}, {}},
        {"corrupt", {0.0, 0.10, 0.0, 0.0, 0.0}, {0.0, 0.10, 0.0, 0.0, 0.0}},
        {"drop", {0.05, 0.0, 0.0, 0.0, 0.0}, {0.05, 0.0, 0.0, 0.0, 0.0}},
        {"truncate", {0.0, 0.0, 0.05, 0.0, 0.0}, {0.0, 0.0, 0.05, 0.0, 0.0}},
        {"mixed",
         {0.03, 0.05, 0.03, 0.10, 1e-3},
         {0.03, 0.05, 0.03, 0.10, 1e-3}},
    };
    for (const WireScenario& sc : wire) {
      if (quick && std::string(sc.name) == "mixed") continue;
      serve::QueryServer server(fx.model, {});
      if (Status st = server.start(); !st.ok())
        throw std::runtime_error(st.to_string());

      serve::NetFaultPlan plan;
      plan.seed = seed;
      plan.read = sc.read;
      plan.write = sc.write;
      serve::reset_net_fault_state();
      serve::install_net_fault_plan(&plan);

      obs::MetricsRegistry metrics;
      serve::RetryingClient client({server.port()}, policy, &metrics);
      ScenarioRow row;
      row.name = sc.name;
      drive(fx, client, row);
      // Mid-scenario telemetry cross-check, scraped through the same faulty
      // wire (the retry loop absorbs a corrupted scrape): the server must
      // have counted corrupted frames, and no more than the plan injected.
      if (std::string(sc.name) == "corrupt") {
        auto tel = client.telemetry();
        const auto injected = serve::net_fault_counts().corrupted;
        if (!tel.ok()) {
          std::printf("corrupt: telemetry scrape failed: %s\n",
                      tel.status().to_string().c_str());
          row.wrong += 1;  // counts as a scenario failure
        } else if (tel->corrupt_frames_total == 0 ||
                   tel->corrupt_frames_total > injected) {
          std::printf("corrupt: telemetry corrupt_frames_total %llu outside "
                      "(0, injected %llu]\n",
                      static_cast<unsigned long long>(
                          tel->corrupt_frames_total),
                      static_cast<unsigned long long>(injected));
          row.wrong += 1;
        } else {
          std::printf("corrupt: telemetry counted %llu corrupt frames of "
                      "%llu injected\n",
                      static_cast<unsigned long long>(
                          tel->corrupt_frames_total),
                      static_cast<unsigned long long>(injected));
        }
      }
      serve::install_net_fault_plan(nullptr);
      finish(row, metrics);
      if (std::string(sc.name) == "baseline" && row.failed != 0) row.ok = false;
      rows.push_back(row);
      server.stop();
    }

    // ---- kill-replica-mid-batch: failover must lose nothing ---------------
    // Runs traced end to end: one tracer shared by the client (trace pid 0)
    // and both replicas (pids 1 and 2), so the merged Chrome trace shows a
    // single classify request's client.attempt spans and the server-side
    // phase spans under one trace id even as the request hops replicas.
    {
      obs::Tracer tracer;
      serve::ServerConfig cfg_a, cfg_b;
      cfg_a.tracer = &tracer;
      cfg_a.trace_pid = 1;
      cfg_b.tracer = &tracer;
      cfg_b.trace_pid = 2;
      serve::QueryServer a(fx.model, cfg_a);
      serve::QueryServer b(fx.model, cfg_b);
      if (!a.start().ok() || !b.start().ok())
        throw std::runtime_error("replica start failed");
      obs::MetricsRegistry metrics;
      serve::RetryingClient client({a.port(), b.port()}, policy, &metrics,
                                   &tracer);
      serve::reset_net_fault_state();

      ScenarioRow row;
      row.name = "kill-replica";
      drive(fx, client, row, 0, q / 4);
      a.stop();  // replica 0 dies mid-batch; the rest fail over to b
      drive(fx, client, row, q / 4);
      finish(row, metrics);
      if (row.failed != 0) row.ok = false;  // zero lost requests, not just
      b.stop();                             // zero wrong answers

      // Trace correlation asserts (server threads quiesced by stop()):
      //  (a) some request's client.attempt span shares its trace id with a
      //      serve.* span recorded by a replica thread (pid 1 or 2), and
      //  (b) the request that straddled the kill shows the retry/failover:
      //      >= 2 client.attempt spans AND a server-side span on replica b,
      //      all under one trace id.
      const std::vector<obs::TraceEvent> events = tracer.events();
      bool correlated = false, failover_traced = false;
      for (const obs::TraceEvent& e : events) {
        if (e.trace_id == 0 ||
            std::string_view(e.name) != "client.attempt")
          continue;
        std::size_t attempts = 0;
        bool on_server = false, on_b = false;
        for (const obs::TraceEvent& o : events) {
          if (o.trace_id != e.trace_id) continue;
          if (std::string_view(o.name) == "client.attempt") ++attempts;
          if (o.pid == 1 || o.pid == 2) {
            on_server = true;
            if (o.pid == 2) on_b = true;
          }
        }
        correlated = correlated || on_server;
        failover_traced = failover_traced || (attempts >= 2 && on_b);
      }
      if (!correlated || !failover_traced) {
        std::printf("kill-replica: trace correlation failed (correlated=%d "
                    "failover_traced=%d, %zu events)\n",
                    correlated ? 1 : 0, failover_traced ? 1 : 0,
                    events.size());
        row.ok = false;
      } else {
        std::printf("kill-replica: merged trace correlates client and "
                    "replica spans across failover (%zu events)\n",
                    events.size());
      }
      if (!trace_out.empty()) {
        if (Status st = tracer.write_chrome_trace(trace_out); !st.ok())
          throw std::runtime_error(st.to_string());
        std::printf("kill-replica: merged Chrome trace written to %s\n",
                    trace_out.c_str());
      }
      rows.push_back(row);
    }

    // ---- overload: in-flight budget 1, concurrent clients, all must win ---
    {
      serve::ServerConfig cfg;
      cfg.max_inflight = 1;
      serve::QueryServer server(fx.model, cfg);
      if (!server.start().ok())
        throw std::runtime_error("overload server start failed");
      // Every frame write sleeps kHold. An admitted request keeps its slot
      // until its response is flushed, so it holds the slot for kHold while
      // the other clients' requests, written at the same moment, arrive and
      // are shed: the overlap comes from the plan, not from how long a
      // classify happens to take.
      constexpr double kHold = 0.02;
      serve::NetFaultPlan plan;
      plan.seed = seed;
      plan.write.delay_rate = 1.0;
      plan.write.delay_seconds = kHold;
      serve::reset_net_fault_state();
      serve::install_net_fault_plan(&plan);

      obs::MetricsRegistry metrics;
      ScenarioRow row;
      row.name = "overload";
      std::vector<ScenarioRow> per_thread(4);
      std::vector<std::thread> threads;
      const int reps = quick ? 4 : 10;
      for (std::size_t t = 0; t < per_thread.size(); ++t)
        threads.emplace_back([&, t] {
          serve::RetryPolicy p = policy;
          p.max_attempts = 20;  // sheds are cheap; insist on success
          p.jitter_seed = seed + t;
          serve::RetryingClient client({server.port()}, p, &metrics);
          // Whole-batch requests, every answer checked exactly.
          for (int rep = 0; rep < reps; ++rep) {
            ScenarioRow& pt = per_thread[t];
            ++pt.requests;
            auto r = client.classify(fx.queries, 2);
            if (!r.ok()) {
              if (!serve::retryable_status(r.status().code())) ++pt.wrong;
              else ++pt.failed;
              continue;
            }
            if (r->size() != fx.oracle.size()) {
              ++pt.wrong;
              continue;
            }
            for (std::size_t i = 0; i < fx.oracle.size(); ++i)
              if (!same_answer((*r)[i], fx.oracle[i])) {
                ++pt.wrong;
                break;
              }
          }
        });
      for (auto& t : threads) t.join();
      for (const ScenarioRow& pt : per_thread) {
        row.requests += pt.requests;
        row.wrong += pt.wrong;
        row.failed += pt.failed;
      }
      finish(row, metrics);
      if (row.failed != 0) row.ok = false;
      const auto shed =
          server.metrics().snapshot().counter(obs::Counter::kServeShedLoad);
      std::printf("overload: server shed %llu requests\n",
                  static_cast<unsigned long long>(shed));
      // Telemetry cross-check over the wire: the scraped shed counter must
      // be live (nonzero — budget 1 under 4 clients must shed) and agree
      // with the server's own registry now that traffic has drained.
      {
        serve::RetryingClient scraper({server.port()}, policy, nullptr);
        auto tel = scraper.telemetry();
        if (!tel.ok() || tel->shed_load_total == 0 ||
            tel->shed_load_total != shed) {
          std::printf("overload: telemetry shed_load_total %llu does not "
                      "match registry %llu (or scrape failed)\n",
                      tel.ok() ? static_cast<unsigned long long>(
                                     tel->shed_load_total)
                               : 0ull,
                      static_cast<unsigned long long>(shed));
          row.ok = false;
        } else {
          std::printf("overload: telemetry matches registry (%llu sheds)\n",
                      static_cast<unsigned long long>(shed));
        }
      }
      serve::install_net_fault_plan(nullptr);
      server.stop();
      rows.push_back(row);
    }

    // ---- report -----------------------------------------------------------
    std::printf(
        "%-14s %9s %6s %7s %8s %10s %22s\n", "scenario", "requests", "wrong",
        "failed", "retries", "failovers", "faults(drop/corr/trunc)");
    bool all_ok = true;
    for (const ScenarioRow& r : rows) {
      std::printf("%-14s %9zu %6zu %7zu %8llu %10llu %8llu/%llu/%llu  %s\n",
                  r.name.c_str(), r.requests, r.wrong, r.failed,
                  static_cast<unsigned long long>(r.retries),
                  static_cast<unsigned long long>(r.failovers),
                  static_cast<unsigned long long>(r.faults.dropped),
                  static_cast<unsigned long long>(r.faults.corrupted),
                  static_cast<unsigned long long>(r.faults.truncated),
                  r.ok ? "ok" : "FAIL");
      all_ok = all_ok && r.ok;
    }
    std::printf("servefaultharness: %s\n", all_ok ? "PASS" : "FAIL");
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servefaultharness: error: %s\n", e.what());
    return 1;
  }
}
