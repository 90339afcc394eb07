// µDBSCAN-D (Section V, Algorithm 9): distributed µDBSCAN over the minimpi
// runtime. Phases: sampling-based kd partitioning → eps-halo exchange →
// local µDBSCAN per rank (on local + halo points) → query-free merge of
// local clusterings. Produces exactly the sequential µDBSCAN (and hence
// classical DBSCAN) clustering.
//
// Reported times are per-phase virtual-time makespans (max over ranks of the
// rank's virtual clock advance in that phase) — see mpi/minimpi.hpp for the
// model. The paper excludes data distribution from its timings; `total`
// likewise excludes t_partition.
//
// Fault tolerance (docs/FAULT_MODEL.md). DistConfig::plan names the faults
// to inject. A plan that injects nothing (no crash, no slowdown, no message
// fault) is not installed: recvs block without a timeout, nothing is
// checkpointed, and the run is one attempt. Otherwise the driver is
// phase-checkpointed — after partition, halo exchange and local clustering
// each rank snapshots its phase output to the CheckpointStore (modeled
// stable storage) — and runs in attempts:
//
//   attempt:  partition -> halo -> local µDBSCAN -> merge
//             (each phase prefixed by a named fault point, kFtPoint*)
//   on a detected rank failure (recv TimeoutError), survivors abort the
//   attempt; the coordinator reassigns the dead rank's partition block to
//   the survivor with the fewest points and starts a recovery attempt over
//   the survivor communicator. Survivors whose point set did not change
//   restore their halo and local-clustering snapshots and replay nothing;
//   the adopter recomputes its halo and local clustering; the merge phase
//   always re-runs (it is the global phase). If the dead rank died before
//   its partition snapshot existed, every snapshot is dropped and the
//   pipeline restarts from scratch over the survivors.
//
// The output is the exact DBSCAN clustering (same core set, same core
// partition, same noise set) regardless of which ranks die when — the
// pipeline is exact for every partition shape, and recovery only changes the
// partition shape.

#pragma once

#include <string>
#include <vector>

#include "common/dataset.hpp"
#include "core/mudbscan.hpp"
#include "dist/merge.hpp"
#include "metrics/clustering.hpp"
#include "mpi/minimpi.hpp"

namespace udb {

// Fault-point names the driver announces (usable in mpi::CrashSpec).
inline constexpr const char* kFtPointPartition = "partition";
inline constexpr const char* kFtPointHalo = "halo";
inline constexpr const char* kFtPointLocal = "local";
inline constexpr const char* kFtPointMerge = "merge";

// Per-rank observability record of the successful attempt (obs run report
// `ranks` section, Table 7 per-rank splits).
struct MuDbscanDRank {
  int rank = 0;  // logical rank: the numbering of the first attempt
  std::uint64_t n_local = 0;
  std::uint64_t n_halo = 0;
  // This rank's own virtual-time delta per phase (not the makespan).
  double t_partition = 0.0;
  double t_halo = 0.0;
  double t_tree = 0.0;
  double t_reach = 0.0;
  double t_cluster = 0.0;
  double t_post = 0.0;
  double t_merge = 0.0;
  std::uint64_t queries_performed = 0;
  std::uint64_t cross_edges = 0;  // merge-phase cross-rank edges found here
  mpi::CommStats comm;            // the attempt's comm totals
};

// Also the stats of pdsdbscan_d and hpdbscan_d, whose t_tree is their index
// build and whose t_reach and t_post are 0.
struct MuDbscanDStats {
  // Virtual-time makespans per phase (paper Tables VII/VIII).
  double t_partition = 0.0;
  double t_halo = 0.0;
  double t_tree = 0.0;
  double t_reach = 0.0;
  double t_cluster = 0.0;
  double t_post = 0.0;
  double t_merge = 0.0;
  double wall_seconds = 0.0;  // real elapsed time of the whole run

  std::uint64_t halo_points_total = 0;
  std::uint64_t cross_edges = 0;
  std::uint64_t union_pairs = 0;
  std::uint64_t queries_performed = 0;  // summed over ranks

  // One record per rank of the successful attempt, in increasing logical
  // rank order: p records, or survivor_count after a recovery.
  std::vector<MuDbscanDRank> ranks;

  // Recovery record.
  int attempts = 0;
  int survivor_count = 0;
  bool full_restarts = false;  // some recovery could not reuse checkpoints
  std::vector<int> crashed_ranks;         // logical ids, in detection order
  std::vector<std::string> crash_phases;  // phase the rank died in
  double vtime_total = 0.0;          // summed makespans over all attempts
  double vtime_final_attempt = 0.0;  // makespan of the successful attempt
  std::uint64_t checkpoint_bytes = 0;
  mpi::FaultCounts faults;  // aggregated over all attempts

  // The paper's comparable "execution time": everything after partitioning.
  [[nodiscard]] double total() const noexcept {
    return t_halo + t_tree + t_reach + t_cluster + t_post + t_merge;
  }
};

struct DistConfig {
  MuDbscanConfig mu;  // per-rank engine; mu.guard also bounds the whole run
  mpi::CostModel cost;
  MergeStrategy merge_strategy = MergeStrategy::AllGatherPairs;
  mpi::FaultPlan plan;  // faults to inject (default: none)
};

// Runs on `nranks` simulated ranks and returns the global clustering (labels
// indexed by global point id). Throws std::invalid_argument if nranks < 1,
// and UNAVAILABLE if every rank dies or nranks + 2 attempts do not complete
// (e.g. persistent unreliable-transport message loss); DEADLINE_EXCEEDED if
// mu.guard's deadline passes first.
[[nodiscard]] ClusteringResult mudbscan_d(const Dataset& global,
                                          const DbscanParams& params,
                                          int nranks,
                                          MuDbscanDStats* stats = nullptr,
                                          const DistConfig& cfg = {});

}  // namespace udb
