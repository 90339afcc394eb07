// HPDBSCAN-like distributed baseline (Götz et al., MLHPC'15 — rebuilt, see
// DESIGN.md §2): grid-indexed distributed DBSCAN. Cells reduce the *search
// space* of each query but, unlike µDBSCAN and GridDBSCAN, the number of
// queries is not reduced — every point runs one. Unlike the authors' code
// (which the paper observed to deviate from classical DBSCAN), this rebuild
// is exact, so it serves purely as the fast-grid-competitor column of
// Table V.

#pragma once

#include "common/dataset.hpp"
#include "dist/mudbscan_d.hpp"
#include "metrics/clustering.hpp"
#include "mpi/minimpi.hpp"

namespace udb {

// `stats` is filled as by mudbscan_d: t_tree is the grid build, t_cluster
// the query + union pass, and t_reach = t_post = 0.
[[nodiscard]] ClusteringResult hpdbscan_d(const Dataset& global,
                                          const DbscanParams& params,
                                          int nranks,
                                          MuDbscanDStats* stats = nullptr,
                                          mpi::CostModel cost = {});

}  // namespace udb
