// faultharness: scripted fault-scenario matrix for the µDBSCAN-D driver
// (dist/mudbscan_d.hpp, docs/FAULT_MODEL.md §6). Runs, against one dataset:
//
//   * a fault-free baseline (an empty plan: one attempt, no checkpoints);
//   * a single-rank crash injected at each pipeline phase (partition, halo,
//     local, merge);
//   * a drop-rate sweep over the reliable (ack/retry) transport;
//   * a corrupted-payload scenario (checksum-detected, retransmitted).
//
// Every scenario reports the recovery outcome (attempts, crashed ranks and
// phases, full-restart or checkpointed recovery), the virtual-time overhead
// versus the baseline, and whether the clustering stayed *exact* (same core
// set, core partition, and noise set as the fault-free run). Exit status is
// non-zero if any scenario fails to recover exactly.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "data/generators.hpp"
#include "dist/mudbscan_d.hpp"
#include "metrics/exactness.hpp"

namespace {

struct ScenarioRow {
  std::string name;
  std::string outcome;  // "exact", "INEXACT", or "ERROR: ..."
  udb::MuDbscanDStats stats;
  bool ok = false;
};

std::string phases_of(const udb::MuDbscanDStats& st) {
  if (st.crashed_ranks.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < st.crashed_ranks.size(); ++i) {
    if (i) out += ",";
    out += "r" + std::to_string(st.crashed_ranks[i]) + "@" +
           st.crash_phases[i];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    udb::Cli cli(argc, argv);
    const std::string dataset = cli.get_string("dataset", "blobs");
    const std::size_t n = static_cast<std::size_t>(cli.get_int("n", 2000));
    const int ranks = static_cast<int>(cli.get_int("ranks", 4));
    const int crash_rank = static_cast<int>(cli.get_int("crash-rank", 1));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(cli.get_int("seed", 42));
    const bool quick = cli.get_bool("quick", false);

    udb::DbscanParams params;
    udb::Dataset ds = [&] {
      if (dataset == "blobs") {
        params.eps = cli.get_double("eps", 2.5);
        params.min_pts = static_cast<std::uint32_t>(cli.get_int("minpts", 5));
        return udb::gen_blobs(n, 2, 6, 100.0, 1.5, 0.05, seed);
      }
      if (dataset == "moons") {
        params.eps = cli.get_double("eps", 0.08);
        params.min_pts = static_cast<std::uint32_t>(cli.get_int("minpts", 5));
        return udb::gen_two_moons(n, 0.04, seed);
      }
      if (dataset == "galaxy") {
        params.eps = cli.get_double("eps", 4.0);
        params.min_pts = static_cast<std::uint32_t>(cli.get_int("minpts", 8));
        return udb::gen_galaxy(n, {}, seed);
      }
      throw std::invalid_argument("faultharness: unknown --dataset '" +
                                  dataset + "' (blobs|moons|galaxy)");
    }();
    cli.check_unused();
    if (ranks < 2)
      throw std::invalid_argument("faultharness: --ranks must be >= 2");
    if (crash_rank < 0 || crash_rank >= ranks)
      throw std::invalid_argument("faultharness: --crash-rank out of range");

    std::printf("faultharness: dataset=%s n=%zu dim=%zu ranks=%d eps=%g "
                "minpts=%u seed=%llu\n\n",
                dataset.c_str(), ds.size(), ds.dim(), ranks, params.eps,
                params.min_pts, static_cast<unsigned long long>(seed));

    // ---- fault-free baseline (the exactness reference) -------------------
    udb::MuDbscanDStats base_stats;
    const udb::ClusteringResult reference =
        udb::mudbscan_d(ds, params, ranks, &base_stats);
    const double base_vt = base_stats.vtime_final_attempt;
    std::printf("baseline: clusters=%zu core=%zu noise=%zu vtime=%.4fs\n\n",
                reference.num_clusters(), reference.num_core(),
                reference.num_noise(), base_vt);

    std::vector<ScenarioRow> rows;
    const auto run_scenario = [&](const std::string& name,
                                  const udb::mpi::FaultPlan& plan) {
      ScenarioRow row;
      row.name = name;
      udb::DistConfig cfg;
      cfg.plan = plan;
      try {
        const udb::ClusteringResult got =
            udb::mudbscan_d(ds, params, ranks, &row.stats, cfg);
        const udb::ExactnessReport rep = udb::compare_exact(reference, got);
        row.ok = rep.exact();
        row.outcome = row.ok ? "exact" : "INEXACT: " + rep.detail;
      } catch (const std::exception& e) {
        row.outcome = std::string("ERROR: ") + e.what();
      }
      rows.push_back(std::move(row));
    };

    // ---- single-rank crash in each phase ---------------------------------
    for (const char* phase :
         {udb::kFtPointPartition, udb::kFtPointHalo, udb::kFtPointLocal,
          udb::kFtPointMerge}) {
      udb::mpi::FaultPlan plan;
      plan.seed = seed;
      udb::mpi::CrashSpec crash;
      crash.rank = crash_rank;
      crash.at_point = phase;
      plan.crashes.push_back(crash);
      run_scenario(std::string("crash@") + phase, plan);
    }

    // ---- drop-rate sweep over reliable transport -------------------------
    for (double rate : quick ? std::vector<double>{0.05}
                             : std::vector<double>{0.01, 0.05, 0.10, 0.20}) {
      udb::mpi::FaultPlan plan;
      plan.seed = seed;
      plan.reliable = true;
      plan.msg.drop_rate = rate;
      char name[48];
      std::snprintf(name, sizeof name, "drop=%.0f%% (reliable)", rate * 100);
      run_scenario(name, plan);
    }

    // ---- corrupted payloads (includes the halo alltoallv traffic) --------
    {
      udb::mpi::FaultPlan plan;
      plan.seed = seed;
      plan.reliable = true;
      plan.msg.corrupt_rate = quick ? 0.05 : 0.10;
      run_scenario("corrupt payload (reliable)", plan);
    }

    // ---- combined stress: crash + lossy transport ------------------------
    if (!quick) {
      udb::mpi::FaultPlan plan;
      plan.seed = seed;
      plan.reliable = true;
      plan.msg.drop_rate = 0.05;
      plan.msg.corrupt_rate = 0.02;
      udb::mpi::CrashSpec crash;
      crash.rank = crash_rank;
      crash.at_point = udb::kFtPointLocal;
      plan.crashes.push_back(crash);
      run_scenario("crash@local + drop+corrupt", plan);
    }

    // ---- report ----------------------------------------------------------
    std::printf("%-28s %-8s %-9s %-20s %-8s %-9s %-10s %s\n", "scenario",
                "attempts", "restart", "crashes", "retries", "vtime",
                "overhead", "outcome");
    bool all_ok = true;
    for (const ScenarioRow& row : rows) {
      const udb::MuDbscanDStats& st = row.stats;
      const double overhead =
          base_vt > 0 && row.ok ? st.vtime_total / base_vt : 0.0;
      std::printf("%-28s %-8d %-9s %-20s %-8llu %-9.4f %-10s %s\n",
                  row.name.c_str(), st.attempts,
                  st.full_restarts ? "full" : "ckpt",
                  phases_of(st).c_str(),
                  static_cast<unsigned long long>(st.faults.retries),
                  st.vtime_total,
                  row.ok ? (std::to_string(overhead).substr(0, 5) + "x").c_str()
                         : "-",
                  row.outcome.c_str());
      all_ok = all_ok && row.ok;
    }
    std::printf("\n%s\n", all_ok ? "all scenarios recovered exactly"
                                 : "SOME SCENARIOS FAILED");
    return all_ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "faultharness: %s\n", e.what());
    return 2;
  }
}
