// Serving bench (docs/SERVING.md): sustained classify throughput and latency
// of udbscan_serve's engine, measured end to end through the real loopback
// TCP stack — in-process QueryServer, N concurrent client threads, each with
// its own connection, hammering classify batches drawn from a mixed pool
// (50% verbatim dataset points exercising the exact-match fast path, 50%
// perturbed/new points exercising the µR-tree search path).
//
// Before any timing, the bench proves exactness under serving: the full
// training set is classified through the server and every answer must equal
// the batch clustering's label and kind. Afterwards it asserts the serve
// classify ledger (performed + avoided_exact == classify_points) on the
// server's own metrics snapshot — the same invariant CI's smoke job checks.
// Each phase's server-side request count (registry deltas at the phase
// boundaries) must equal the requests its clients completed, and in phases
// of two seconds or more the live 1 s telemetry window's p50 must agree with
// the phase's server-side p50 (both are server request times).
//
// Numbers are machine-dependent; the container this repo is developed in has
// a single hardware thread, so client threads and server workers time-share
// one core (hardware_threads is recorded in the JSON for interpretation).
// Emits BENCH_serve.json with per-phase client qps and p50/p99 latency, the
// server's per-phase count, qps and p50 octave, the mid-phase telemetry
// p50/p99, and the embedded metrics snapshot. --quick shrinks everything for CI.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <random>
#include <stdexcept>
#include <tuple>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/vfs.hpp"
#include "common/timer.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "serve/classify_csv.hpp"
#include "serve/client.hpp"
#include "serve/model.hpp"
#include "serve/server.hpp"

using namespace udb;

namespace {

struct PhaseResult {
  std::string name;
  std::size_t batch = 0;
  std::size_t clients = 0;
  std::uint64_t requests = 0;
  std::uint64_t points = 0;
  double seconds = 0.0;
  double qps = 0.0;          // requests per second
  double points_per_s = 0.0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  // The server's view of the same phase: its request counter and its
  // request-time histogram, differenced between registry snapshots taken at
  // the phase boundaries. The histogram's buckets are octaves, so the
  // median is known to the octave [lo, hi).
  std::uint64_t server_requests = 0;
  double server_qps = 0.0;
  double server_p50_lo_us = 0.0;
  double server_p50_hi_us = 0.0;
  // Live-telemetry view: the server's 1 s window scraped over the wire in
  // the middle of the phase (docs/OBSERVABILITY.md); 0 when the phase is too
  // short to hold a whole window bucket.
  bool scraped = false;
  double tel_p50_us = 0.0;
  double tel_p99_us = 0.0;
};

// Octave [lo, hi) holding the median of the request times recorded between
// two snapshots of the server's registry (bucket b > 0 holds [2^(b-1), 2^b)).
std::pair<double, double> median_octave(const obs::HistSnapshot& before,
                                        const obs::HistSnapshot& after) {
  const std::uint64_t count = after.count - before.count;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < obs::kHistBuckets; ++b) {
    seen += after.buckets[b] - before.buckets[b];
    if (count > 0 && 2 * seen >= count)
      return b == 0 ? std::pair{0.0, 1.0}
                    : std::pair{std::ldexp(1.0, static_cast<int>(b) - 1),
                                std::ldexp(1.0, static_cast<int>(b))};
  }
  return {0.0, 0.0};
}

std::uint64_t percentile(std::vector<std::uint64_t>& v, double p) {
  if (v.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

// One timed phase: `clients` threads, each its own connection, classify
// batches of `batch` points from the query pool for `seconds` wall. The
// server's registry is snapshotted at the phase boundaries, and, once the
// phase has run for a second, the main thread scrapes the live telemetry
// when the server's current one-second window bucket is at least 0.6 s old:
// that bucket then holds only this phase's requests.
PhaseResult run_phase(const char* name, serve::QueryServer& server,
                      const std::vector<double>& pool, std::size_t dim,
                      std::size_t clients, std::size_t batch, double seconds) {
  const std::uint16_t port = server.port();
  const obs::MetricsSnapshot before = server.metrics().snapshot();
  const std::size_t pool_points = pool.size() / dim;
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::uint64_t>> lat(clients);
  std::vector<std::uint64_t> reqs(clients, 0), pts(clients, 0);
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = serve::Client::connect(port, 30.0);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      // Stagger starting offsets so clients do not serve identical batches
      // in lockstep.
      std::size_t cursor = (c * 9973) % pool_points;
      std::vector<double> buf(batch * dim);
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < batch; ++i) {
          const std::size_t q = (cursor + i) % pool_points;
          std::copy_n(pool.data() + q * dim, dim, buf.data() + i * dim);
        }
        cursor = (cursor + batch) % pool_points;
        WallTimer t;
        auto r = client->classify(buf, static_cast<std::uint32_t>(dim));
        if (!r.ok() || r->size() != batch) {
          failures.fetch_add(1);
          return;
        }
        lat[c].push_back(static_cast<std::uint64_t>(t.seconds() * 1e6));
        ++reqs[c];
        pts[c] += batch;
      }
    });
  }

  PhaseResult res;
  WallTimer wall;
  while (wall.seconds() < seconds && failures.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (res.scraped || wall.seconds() < 1.0 ||
        server.telemetry_report().uptime_us % 1'000'000 < 600'000)
      continue;
    auto tclient = serve::Client::connect(port, 30.0);
    if (!tclient.ok()) throw StatusError(tclient.status());
    auto tel = tclient->telemetry();
    if (!tel.ok()) throw StatusError(tel.status());
    const serve::TelemetryWindow& w1 = tel->windows[0];  // {1s,10s,60s}
    res.scraped = true;
    res.tel_p50_us = w1.p50_us;
    res.tel_p99_us = w1.p99_us;
  }
  stop.store(true);
  for (auto& t : threads) t.join();
  if (failures.load() != 0)
    throw std::runtime_error(std::string("client failure in phase ") + name);
  const obs::MetricsSnapshot after = server.metrics().snapshot();

  res.name = name;
  res.batch = batch;
  res.clients = clients;
  res.seconds = wall.seconds();
  std::vector<std::uint64_t> all;
  for (std::size_t c = 0; c < clients; ++c) {
    res.requests += reqs[c];
    res.points += pts[c];
    all.insert(all.end(), lat[c].begin(), lat[c].end());
  }
  res.qps = static_cast<double>(res.requests) / res.seconds;
  res.points_per_s = static_cast<double>(res.points) / res.seconds;
  res.p50_us = percentile(all, 0.50);
  res.p99_us = percentile(all, 0.99);

  // The mid-phase scrape is one request of its own.
  res.server_requests = after.counter(obs::Counter::kServeRequests) -
                        before.counter(obs::Counter::kServeRequests) -
                        (res.scraped ? 1 : 0);
  res.server_qps = static_cast<double>(res.server_requests) / res.seconds;
  if (res.server_requests != res.requests)
    throw std::runtime_error(
        std::string("TELEMETRY DRIFT: phase ") + name + ": server counted " +
        std::to_string(res.server_requests) + " requests, clients completed " +
        std::to_string(res.requests));
  std::tie(res.server_p50_lo_us, res.server_p50_hi_us) =
      median_octave(before.hist(obs::Hist::kServeRequestUs),
                    after.hist(obs::Hist::kServeRequestUs));
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const bool quick = cli.get_bool("quick", false);
    const auto n = static_cast<std::size_t>(
        cli.get_int_at_least("n", quick ? 4000 : 20000, 100));
    const auto clients = static_cast<std::size_t>(
        cli.get_int_in_range("clients", 4, 1, 64));
    const double seconds =
        cli.get_positive_double("seconds", quick ? 0.5 : 3.0);
    const double eps = cli.get_positive_double("eps", 1.5);
    const auto min_pts = static_cast<std::uint32_t>(
        cli.get_int_in_range("minpts", 5, 1, 1000));
    const std::string out_path =
        cli.get_string("out", "BENCH_serve.json");
    cli.check_unused();

    bench::header("serve_throughput — concurrent classify qps and latency",
                  "extension: serving layer over the paper's exact model",
                  "loopback TCP, mixed exact-match/search workload");

    // ---- fit + serve ----------------------------------------------------
    const std::size_t dim = 2;
    const Dataset data = gen_blobs(n, dim, 24, 100.0, 1.0, 0.08, 42);
    const DbscanParams params{eps, min_pts};
    ClusteringResult fitted = mu_dbscan(data, params);
    serve::ModelSnapshot snap;
    snap.data = data;
    snap.params = params;
    snap.result = fitted;
    auto model = serve::ClusterModel::build(std::move(snap));
    if (!model.ok()) throw StatusError(model.status());

    serve::ServerConfig scfg;
    scfg.pool_threads = 2;
    serve::QueryServer server(*model, scfg);
    if (Status st = server.start(); !st.ok()) throw StatusError(st);
    bench::row("model: n = %zu, %zu clusters; serving on 127.0.0.1:%u",
               data.size(), (*model)->num_clusters(),
               static_cast<unsigned>(server.port()));

    // ---- exactness under serving ---------------------------------------
    // Every dataset point classified through the server must reproduce the
    // batch clustering bit-for-bit (label AND kind).
    {
      auto client = serve::Client::connect(server.port(), 30.0);
      if (!client.ok()) throw StatusError(client.status());
      const std::size_t chunk = 1000;
      std::size_t checked = 0;
      for (std::size_t base = 0; base < n; base += chunk) {
        const std::size_t cnt = std::min(chunk, n - base);
        auto r = client->classify(
            {data.raw().data() + base * dim, cnt * dim},
            static_cast<std::uint32_t>(dim));
        if (!r.ok()) throw StatusError(r.status());
        for (std::size_t i = 0; i < cnt; ++i) {
          const auto id = static_cast<PointId>(base + i);
          if ((*r)[i].label != fitted.label[id] ||
              (*r)[i].kind != fitted.kind(id))
            throw std::runtime_error(
                "EXACTNESS VIOLATION: served classify of dataset point " +
                std::to_string(id) + " diverged from the batch clustering");
          ++checked;
        }
      }
      bench::row("exactness: %zu/%zu served self-classifications match the "
                 "batch clustering",
                 checked, n);
    }

    // ---- query pool: 50%% verbatim points, 50%% perturbed/new ----------
    std::vector<double> pool;
    {
      std::mt19937_64 rng(7);
      std::uniform_int_distribution<std::size_t> pick(0, n - 1);
      std::normal_distribution<double> jitter(0.0, eps);
      const std::size_t pool_points = 4096;
      pool.reserve(pool_points * dim);
      for (std::size_t i = 0; i < pool_points; ++i) {
        const double* p = data.ptr(static_cast<PointId>(pick(rng)));
        for (std::size_t a = 0; a < dim; ++a) {
          const double v = p[a];
          pool.push_back(i % 2 == 0 ? v : v + jitter(rng));
        }
      }
    }

    // ---- timed phases ---------------------------------------------------
    std::vector<PhaseResult> phases;
    bench::row("%16s | %7s %6s | %9s %12s %9s %9s", "phase", "clients",
               "batch", "req/s", "points/s", "p50(us)", "p99(us)");
    bench::rule();
    const struct {
      const char* name;
      std::size_t batch;
    } kPhases[] = {
        {"single_point", 1},
        {"batch_64", 64},
        {"batch_1024_pool", 1024},  // over the pool threshold: pooled fanout
    };
    for (const auto& ph : kPhases) {
      PhaseResult r = run_phase(ph.name, server, pool, dim, clients,
                                ph.batch, seconds);
      bench::row("%16s | %7zu %6zu | %9.0f %12.0f %9llu %9llu",
                 r.name.c_str(), r.clients, r.batch, r.qps, r.points_per_s,
                 static_cast<unsigned long long>(r.p50_us),
                 static_cast<unsigned long long>(r.p99_us));
      bench::row("%16s | server: %.0f req/s, p50 in [%.0f, %.0f)us",
                 r.name.c_str(), r.server_qps, r.server_p50_lo_us,
                 r.server_p50_hi_us);
      // Like with like: the live 1 s window and the registry histogram both
      // hold the server's own request times, the window those of the
      // phase's last whole-bucket second. Their medians must agree to
      // within one octave either side of the histogram's median octave.
      if (r.scraped) {
        bench::row("%16s | telemetry 1s window: p50 %.0fus p99 %.0fus",
                   r.name.c_str(), r.tel_p50_us, r.tel_p99_us);
        if (r.tel_p50_us < 0.5 * r.server_p50_lo_us ||
            r.tel_p50_us >= 2.0 * r.server_p50_hi_us)
          throw std::runtime_error(
              "TELEMETRY DRIFT: live 1s-window p50 " +
              std::to_string(r.tel_p50_us) + "us outside the phase's server "
              "p50 octave [" + std::to_string(r.server_p50_lo_us) + ", " +
              std::to_string(r.server_p50_hi_us) + ")us widened by one "
              "octave either side");
      }
      phases.push_back(std::move(r));
    }
    bench::rule();

    // ---- ledger invariant ----------------------------------------------
    const obs::MetricsSnapshot ms = server.metrics().snapshot();
    const std::uint64_t cls =
        ms.counter(obs::Counter::kServeClassifyPoints);
    const std::uint64_t performed =
        ms.counter(obs::Counter::kServeClassifyPerformed);
    const std::uint64_t avoided =
        ms.counter(obs::Counter::kServeClassifyAvoidedExact);
    const bool ledger_ok = performed + avoided == cls;
    bench::row("serve ledger: %llu classified = %llu performed + %llu "
               "avoided_exact — %s",
               static_cast<unsigned long long>(cls),
               static_cast<unsigned long long>(performed),
               static_cast<unsigned long long>(avoided),
               ledger_ok ? "holds" : "VIOLATED");
    server.stop();
    if (!ledger_ok) return 1;

    // ---- JSON -----------------------------------------------------------
    std::ostringstream out;
    out << "{\n"
        << "  \"bench\": \"serve_throughput\",\n"
        << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"n\": " << n << ",\n"
        << "  \"dim\": " << dim << ",\n"
        << "  \"eps\": " << eps << ",\n"
        << "  \"min_pts\": " << min_pts << ",\n"
        << "  \"clients\": " << clients << ",\n"
        << "  \"exactness_checked_points\": " << n << ",\n"
        << "  \"phases\": [\n";
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const PhaseResult& r = phases[i];
      out << "    {\"name\": \"" << r.name << "\", \"clients\": " << r.clients
          << ", \"batch\": " << r.batch << ", \"requests\": " << r.requests
          << ", \"points\": " << r.points << ", \"seconds\": " << r.seconds
          << ", \"qps\": " << r.qps << ", \"points_per_s\": " << r.points_per_s
          << ", \"p50_us\": " << r.p50_us << ", \"p99_us\": " << r.p99_us
          << ", \"server_requests\": " << r.server_requests
          << ", \"server_qps\": " << r.server_qps
          << ", \"server_p50_octave_us\": [" << r.server_p50_lo_us << ", "
          << r.server_p50_hi_us << "]"
          << ", \"telemetry_p50_us\": " << r.tel_p50_us
          << ", \"telemetry_p99_us\": " << r.tel_p99_us
          << "}" << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"serve_ledger\": {\"classify_points\": " << cls
        << ", \"performed\": " << performed << ", \"avoided_exact\": "
        << avoided << ", \"holds\": " << (ledger_ok ? "true" : "false")
        << "},\n"
        << "  \"metrics\": " << bench::metrics_json_object(ms, 0) << "\n"
        << "}\n";
    const Status st = vfs::write_text_file(out_path, out.str());
    if (!st.ok()) throw std::runtime_error(st.to_string());
    bench::row("json written to %s", out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_throughput: error: %s\n", e.what());
    return 1;
  }
}
