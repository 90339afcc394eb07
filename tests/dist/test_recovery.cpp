// µDBSCAN-D recovery tests: a rank crash injected at each
// pipeline phase must still produce the exact DBSCAN clustering (same core
// set, core partition, and noise set as brute force), on several datasets,
// with the recovery path the fault model promises (checkpointed recovery for
// post-partition crashes, full restart for pre-partition crashes).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/brute_dbscan.hpp"
#include "data/generators.hpp"
#include "dist/mudbscan_d.hpp"
#include "rank_records.hpp"
#include "metrics/exactness.hpp"

namespace udb {
namespace {

struct Scenario {
  std::string name;
  Dataset data;
  DbscanParams params;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  out.push_back({"blobs", gen_blobs(700, 2, 5, 100.0, 1.5, 0.05, 1), {2.5, 5}});
  out.push_back({"moons", gen_two_moons(600, 0.04, 2), {0.08, 5}});
  out.push_back({"galaxy", gen_galaxy(800, {}, 3), {4.0, 6}});
  return out;
}

DistConfig crash_cfg(int rank, const char* phase) {
  DistConfig cfg;
  cfg.plan.seed = 42;
  mpi::CrashSpec crash;
  crash.rank = rank;
  crash.at_point = phase;
  cfg.plan.crashes.push_back(crash);
  return cfg;
}

TEST(FtRecovery, FaultFreeRunIsExactInOneAttempt) {
  for (const Scenario& s : scenarios()) {
    const ClusteringResult want = brute_dbscan(s.data, s.params);
    MuDbscanDStats stats;
    const ClusteringResult got =
        mudbscan_d(s.data, s.params, 4, &stats);
    const ExactnessReport rep = compare_exact(want, got);
    EXPECT_TRUE(rep.exact()) << s.name << ": " << rep.detail;
    EXPECT_EQ(stats.attempts, 1);
    EXPECT_EQ(stats.survivor_count, 4);
    EXPECT_TRUE(stats.crashed_ranks.empty());
    EXPECT_GT(stats.vtime_final_attempt, 0.0);
  }
}

TEST(FtRecovery, SingleRankCrashInEachPhaseStaysExact) {
  const std::vector<const char*> phases{kFtPointPartition, kFtPointHalo,
                                        kFtPointLocal, kFtPointMerge};
  for (const Scenario& s : scenarios()) {
    const ClusteringResult want = brute_dbscan(s.data, s.params);
    for (const char* phase : phases) {
      MuDbscanDStats stats;
      const ClusteringResult got =
          mudbscan_d(s.data, s.params, 4, &stats, crash_cfg(1, phase));
      const ExactnessReport rep = compare_exact(want, got);
      EXPECT_TRUE(rep.exact())
          << s.name << " crash@" << phase << ": " << rep.detail;
      EXPECT_EQ(stats.attempts, 2) << s.name << " crash@" << phase;
      ASSERT_EQ(stats.crashed_ranks.size(), 1u);
      EXPECT_EQ(stats.crashed_ranks[0], 1);
      EXPECT_EQ(stats.crash_phases[0], phase);
      EXPECT_EQ(stats.survivor_count, 3);
      // Pre-partition death loses the block assignment: full restart. Any
      // later death recovers from checkpoints.
      EXPECT_EQ(stats.full_restarts, phase == std::string(kFtPointPartition))
          << s.name << " crash@" << phase;
      EXPECT_EQ(stats.faults.crashes, 1u);
      // Recovery overhead is reported in virtual time: the total across
      // attempts strictly exceeds the successful attempt.
      EXPECT_GT(stats.vtime_total, stats.vtime_final_attempt);
      EXPECT_GT(stats.checkpoint_bytes, 0u);
      expect_rank_records(stats, s.data.size(), 3);
    }
  }
}

TEST(FtRecovery, IdlePlanArmsNoRecvTimeout) {
  // A plan that injects nothing is not installed, so even an absurdly short
  // recv timeout cannot mistake a slow rank for a dead one.
  const Dataset data = gen_blobs(700, 2, 5, 100.0, 1.5, 0.05, 1);
  const DbscanParams params{2.5, 5};
  DistConfig cfg;
  cfg.plan.seed = 3;
  cfg.plan.recv_timeout_real = 1e-6;
  MuDbscanDStats stats;
  const ClusteringResult got = mudbscan_d(data, params, 4, &stats, cfg);
  const ExactnessReport rep = compare_exact(brute_dbscan(data, params), got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.faults.timeouts, 0u);
  EXPECT_EQ(stats.checkpoint_bytes, 0u);
  expect_rank_records(stats, data.size(), 4);
}

TEST(FtRecovery, TwoRankCrashesRecover) {
  const Dataset data = gen_blobs(900, 2, 5, 100.0, 1.5, 0.05, 7);
  const DbscanParams params{2.5, 5};
  const ClusteringResult want = brute_dbscan(data, params);

  DistConfig cfg;
  cfg.plan.seed = 5;
  mpi::CrashSpec a;
  a.rank = 1;
  a.at_point = kFtPointHalo;
  mpi::CrashSpec b;
  b.rank = 3;
  b.at_point = kFtPointLocal;
  cfg.plan.crashes = {a, b};

  MuDbscanDStats stats;
  const ClusteringResult got = mudbscan_d(data, params, 4, &stats, cfg);
  const ExactnessReport rep = compare_exact(want, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
  EXPECT_EQ(stats.crashed_ranks.size(), 2u);
  EXPECT_EQ(stats.survivor_count, 2);
  EXPECT_GE(stats.attempts, 2);
}

TEST(FtRecovery, CrashOnTwoRanksOnlyStillProducesResult) {
  const Dataset data = gen_blobs(400, 2, 3, 80.0, 1.5, 0.05, 9);
  const DbscanParams params{2.5, 5};
  const ClusteringResult want = brute_dbscan(data, params);
  MuDbscanDStats stats;
  const ClusteringResult got = mudbscan_d(
      data, params, 2, &stats, crash_cfg(0, kFtPointLocal));
  const ExactnessReport rep = compare_exact(want, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
  EXPECT_EQ(stats.survivor_count, 1);
}

TEST(FtRecovery, ReliableLossyTransportStaysExactWithoutRestart) {
  const Dataset data = gen_blobs(700, 2, 5, 100.0, 1.5, 0.05, 1);
  const DbscanParams params{2.5, 5};
  const ClusteringResult want = brute_dbscan(data, params);

  DistConfig cfg;
  cfg.plan.seed = 13;
  cfg.plan.reliable = true;
  cfg.plan.msg.drop_rate = 0.1;
  cfg.plan.msg.corrupt_rate = 0.05;
  cfg.plan.msg.dup_rate = 0.05;

  MuDbscanDStats stats;
  const ClusteringResult got = mudbscan_d(data, params, 4, &stats, cfg);
  const ExactnessReport rep = compare_exact(want, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_GT(stats.faults.retries, 0u);
}

TEST(FtRecovery, CrashedRanksNeverWriteStaleResults) {
  // The adopter absorbs the dead rank's whole block, so every global id must
  // be labeled by the final attempt (no leftovers from the aborted one).
  const Dataset data = gen_two_moons(500, 0.04, 11);
  const DbscanParams params{0.08, 5};
  const ClusteringResult want = brute_dbscan(data, params);
  MuDbscanDStats stats;
  const ClusteringResult got = mudbscan_d(
      data, params, 3, &stats, crash_cfg(2, kFtPointMerge));
  ASSERT_EQ(got.label.size(), data.size());
  const ExactnessReport rep = compare_exact(want, got);
  EXPECT_TRUE(rep.exact()) << rep.detail;
}

TEST(FtRecovery, AllRanksCrashingThrows) {
  const Dataset data = gen_blobs(200, 2, 2, 50.0, 1.5, 0.05, 4);
  const DbscanParams params{2.5, 5};
  DistConfig cfg;
  for (int r = 0; r < 2; ++r) {
    mpi::CrashSpec crash;
    crash.rank = r;
    crash.at_point = kFtPointHalo;
    cfg.plan.crashes.push_back(crash);
  }
  EXPECT_THROW((void)mudbscan_d(data, params, 2, nullptr, cfg),
               std::runtime_error);
}

TEST(FtRecovery, RejectsBadRankCount) {
  const Dataset data = gen_blobs(100, 2, 2, 50.0, 1.5, 0.05, 4);
  EXPECT_THROW((void)mudbscan_d(data, {2.5, 5}, 0), std::invalid_argument);
}

}  // namespace
}  // namespace udb
