// PDSDBSCAN-D baseline (Patwary et al., SC'12): the disjoint-set parallel
// DBSCAN the paper benchmarks against in Table V / Fig. 5. Same distributed
// pipeline as µDBSCAN-D (kd partitioning, eps-halo, pair merge), but the
// local phase is classical DBSCAN: a single R-tree over local+halo points
// and one eps-neighborhood query per point — no micro-clusters, no saved
// queries.

#pragma once

#include "common/dataset.hpp"
#include "dist/mudbscan_d.hpp"
#include "metrics/clustering.hpp"
#include "mpi/minimpi.hpp"

namespace udb {

// `stats` is filled as by mudbscan_d: t_tree is the local R-tree build,
// t_cluster the query + union pass, and t_reach = t_post = 0.
[[nodiscard]] ClusteringResult pdsdbscan_d(const Dataset& global,
                                           const DbscanParams& params,
                                           int nranks,
                                           MuDbscanDStats* stats = nullptr,
                                           mpi::CostModel cost = {});

}  // namespace udb
