// µDBSCAN-SM — the paper's other stated future work ("we intend to extend
// this approach to leverage multiple cores available in each computing
// node", Section VII). The data-parallel decomposition of µDBSCAN-D applies
// unchanged inside a node: spatial partitioning across cores, per-core local
// µDBSCAN, pair merge — only the transport costs change. We therefore
// instantiate µDBSCAN-D on the minimpi runtime with an intra-node cost model
// (shared-memory latency/bandwidth instead of interconnect numbers).
//
// On real multi-socket hardware the ranks would be threads touching disjoint
// partitions; the communication structure and volumes measured here are the
// ones that implementation would exhibit.

#pragma once

#include "dist/mudbscan_d.hpp"

namespace udb {

// Shared-memory transfer model: ~100 ns handoff latency, ~20 GB/s effective
// copy bandwidth.
inline constexpr mpi::CostModel kIntraNodeCost{1e-7, 5e-11};

[[nodiscard]] inline ClusteringResult mudbscan_sm(
    const Dataset& data, const DbscanParams& params, int threads,
    MuDbscanDStats* stats = nullptr, const MuDbscanConfig& cfg = {}) {
  DistConfig dist;
  dist.mu = cfg;
  dist.cost = kIntraNodeCost;
  return mudbscan_d(data, params, threads, stats, dist);
}

}  // namespace udb
