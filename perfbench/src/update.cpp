// update_churn: seeded 60/40 streams of inserts and erases of live ids
// through IncrementalMuDbscan, each on top of a base set bulk-inserted in
// Z-order. The stream's inserts land anywhere.

#include <algorithm>
#include <memory>

#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "data/generators.hpp"
#include "gates.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median (one takes about a tenth of a
// second, so one is at the mercy of the host).
constexpr int kSetupReps = 9;
constexpr std::size_t kBase = 12000;
constexpr std::size_t kPool = 50000;  // insert candidates beyond the base
constexpr std::size_t kDim = 2;
constexpr double kInsertShare = 0.6;
// A 60/40 stream grows the live set, and an erase costs more in a larger
// set. So a run replays rounds of this many ops, each from the base set:
// every round sees the same live-set sizes however fast the machine is.
constexpr std::size_t kRoundOps = 3000;
// The point set is fixed; the seed picks each round's stream.
constexpr std::uint64_t kDataSeed = 42;
// The incremental.* counters cover this prefix of the first round, so they
// repeat exactly for a seed.
constexpr std::size_t kCountedOps = 2000;
// Latency samples of each kind reserved up front (a 40 s run records ~50k).
constexpr std::size_t kSampleReserve = std::size_t{1} << 20;

using Engine = udb::IncrementalMuDbscan;

std::unique_ptr<Engine> load_base(const udb::Dataset& base,
                                  const udb::DbscanParams& prm,
                                  std::vector<udb::PointId>& live) {
  auto eng = std::make_unique<Engine>(kDim, prm);
  live.clear();
  for (std::size_t i = 0; i < base.size(); ++i)
    live.push_back(eng->insert(base.point(static_cast<udb::PointId>(i))));
  return eng;
}

}  // namespace

RunResult run_update(const Options& opt, Tracer& tracer) {
  const udb::DbscanParams prm{1.5, 5};
  RunResult r;

  // Setup: generate the points, split them into base set and insert pool,
  // lay the base set out in Z-order and bulk-insert it.
  udb::Dataset base, pool;
  std::unique_ptr<Engine> eng;
  std::vector<udb::PointId> live;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    eng.reset();
    const auto t0 = Clock::now();
    const udb::Dataset all = shuffled(
        udb::gen_blobs(kBase + kPool, kDim, 16, 60.0, 1.0, 0.08, kDataSeed),
        kDataSeed);
    std::vector<udb::PointId> ids(all.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      ids[i] = static_cast<udb::PointId>(i);
    base = all.select({ids.data(), kBase});
    base = base.select(z_order(base, kCellEps * prm.eps, identity_order(kBase)));
    pool = all.select({ids.data() + kBase, kPool});
    eng = load_base(base, prm, live);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<double> ins_us, ers_us, ins_traced_us, ers_traced_us;
  // Reserved (address space only) so that the samples grow RSS by 8 bytes
  // an op rather than in doubling steps: peak_rss_mb would otherwise jump
  // with the op count, that is with machine speed.
  for (auto* v : {&ins_us, &ers_us, &ins_traced_us, &ers_traced_us})
    v->reserve(kSampleReserve);
  double ins_touched = 0, ers_touched = 0, ers_touched_max = 0;
  std::size_t ins_counted = 0, ers_counted = 0;
  Engine::Stats at_prefix{};
  std::uint64_t ops = 0, rounds = 0;
  double stream_s = 0.0;
  const auto start = Clock::now();
  bool time_up = false;
  while (!time_up) {
    if (rounds > 0) {  // untimed reset; the old engine goes first
      eng.reset();
      eng = load_base(base, prm, live);
    }
    udb::Rng rng((opt.seed << 20) + rounds);
    const auto round_start = Clock::now();
    auto now = round_start;
    for (std::size_t k = 0; k < kRoundOps && !time_up; ++k, ++ops) {
      const bool insert = live.empty() || rng.next_double() < kInsertShare;
      const bool traced = opt.trace && ops % 2 == 1;
      const auto before = eng->stats();
      const auto t0 = Clock::now();
      if (insert) {
        const auto p = static_cast<udb::PointId>(rng.uniform_index(kPool));
        Span s(traced ? &tracer : nullptr, "update.insert", ops + 1);
        live.push_back(eng->insert(pool.point(p)));
      } else {
        const std::size_t j = rng.uniform_index(live.size());
        const udb::PointId id = live[j];
        live[j] = live.back();
        live.pop_back();
        bool ok = false;
        {
          Span s(traced ? &tracer : nullptr, "update.erase", ops + 1);
          ok = eng->erase(id);
        }
        if (!ok) r.fail("erase of live id " + std::to_string(id) + " failed");
      }
      now = Clock::now();
      const double us = 1e6 * seconds_between(t0, now);
      (insert ? (traced ? ins_traced_us : ins_us)
              : (traced ? ers_traced_us : ers_us))
          .push_back(us);
      if (ops < kCountedOps) {
        const auto touched =
            static_cast<double>(eng->stats().mcs_touched - before.mcs_touched);
        if (insert) {
          ins_touched += touched;
          ++ins_counted;
        } else {
          ers_touched += touched;
          ers_touched_max = std::max(ers_touched_max, touched);
          ++ers_counted;
        }
        if (ops + 1 == kCountedOps) at_prefix = eng->stats();
      }
      time_up =
          seconds_between(start, now) >= opt.seconds && ops + 1 >= kCountedOps;
    }
    stream_s += seconds_between(round_start, now);
    ++rounds;

    // Exactness gate on every round's final state, outside the clock.
    ++r.attempted;
    if (std::string e = check_canonical(eng->survivors(), prm, eng->result());
        !e.empty())
      r.fail(e);
  }
  r.attempted += ops;

  r.config = {{"n_base", json_number(kBase)},
              {"d", json_number(kDim)},
              {"eps", json_number(prm.eps)},
              {"min_pts", json_number(prm.min_pts)},
              {"threads", json_number(1)},
              {"insert_share", json_number(kInsertShare)},
              {"round_ops", json_number(kRoundOps)},
              {"rounds", json_number(static_cast<double>(rounds))},
              {"counted_ops", json_number(kCountedOps)},
              {"oracle", json_string("result() == canonicalize_clustering("
                                     "mu_dbscan(survivors)) after each "
                                     "round")}};
  const double updates_per_s = static_cast<double>(ops) / stream_s;
  r.extra = {
      {"updates_per_s", updates_per_s, "1/s", ops, "inserts and erases"},
      {"insert_p50_us", quantile(ins_us, 0.5), "us", ins_us.size(), "inserts"},
      {"insert_p99_us", quantile(ins_us, 0.99), "us", ins_us.size(),
       "inserts"},
      {"erase_p50_us", quantile(ers_us, 0.5), "us", ers_us.size(), "erases"},
      {"erase_p99_us", quantile(ers_us, 0.99), "us", ers_us.size(), "erases"},
  };

  if (!opt.trace) {
    r.metrics = {
        {"setup_s", median(setup_s), "s", setup_s.size(),
         "generate + bulk insert of the base set"},
        {"p50_ms", 1e-3 * quantile(ers_us, 0.5), "ms", ers_us.size(),
         "erases"},
        {"throughput_per_s", updates_per_s, "1/s", ops, "inserts and erases"},
        {"peak_rss_mb", peak_rss_mb(), "MB", 1, "process"},
    };
    return r;
  }

  // result() cost on the last round's state.
  std::vector<double> result_ms;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    Span s(&tracer, "update.result", ops + 1 + rep);
    const udb::ClusteringResult res = eng->result();
    s.end();
    result_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
  }
  r.metrics = {
      {"incremental.insert_mcs_touched_mean",
       ins_counted ? ins_touched / static_cast<double>(ins_counted) : 0.0,
       "count", ins_counted, "counted inserts"},
      {"incremental.erase_mcs_touched_mean",
       ers_counted ? ers_touched / static_cast<double>(ers_counted) : 0.0,
       "count", ers_counted, "counted erases"},
      {"incremental.erase_mcs_touched_max", ers_touched_max, "count",
       ers_counted, "counted erases"},
      {"incremental.graph_edges_repaired",
       static_cast<double>(at_prefix.graph_edges_repaired), "count",
       kCountedOps, "base load + counted ops"},
      {"incremental.full_fallbacks",
       static_cast<double>(at_prefix.full_fallbacks), "count", kCountedOps,
       "base load + counted ops"},
      {"incremental.result_ms", median(result_ms), "ms", result_ms.size(),
       "result() calls"},
      {"trace.overhead_ms",
       1e-3 * (quantile(ers_traced_us, 0.5) - quantile(ers_us, 0.5)), "ms",
       ers_traced_us.size(), "traced minus untraced erase p50"},
  };
  return r;
}

}  // namespace perfbench
