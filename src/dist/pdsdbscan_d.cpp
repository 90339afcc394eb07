#include "dist/pdsdbscan_d.hpp"

#include <mutex>

#include "common/timer.hpp"
#include "dist/driver_common.hpp"
#include "dist/merge.hpp"
#include "index/rtree.hpp"
#include "unionfind/union_find.hpp"

namespace udb {

ClusteringResult pdsdbscan_d(const Dataset& global, const DbscanParams& params,
                             int nranks, PdsDbscanDStats* stats,
                             mpi::CostModel cost) {
  mpi::Runtime rt(nranks, cost);
  const std::size_t n = global.size();

  ClusteringResult result;
  result.label.assign(n, kNoise);
  result.is_core.assign(n, 0);

  PdsDbscanDStats agg;
  std::mutex agg_mu;
  WallTimer wall;

  rt.run([&](mpi::Comm& comm) {
    LocalSetup setup = prepare_local(comm, global, params.eps);
    const Dataset& ds = setup.combined;
    const std::size_t m = ds.size();

    double t0 = comm.vtime();
    const RTree tree = RTree::bulk_load_str(ds);
    const double t_build = comm.vtime() - t0;
    comm.barrier();

    t0 = comm.vtime();
    UnionFind uf(m);
    std::vector<std::uint8_t> is_core(m, 0), assigned(m, 0);
    std::vector<PointId> nbhd;
    std::uint64_t queries = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const PointId p = static_cast<PointId>(i);
      nbhd.clear();
      tree.query_ball(ds.point(p), params.eps, nbhd);
      ++queries;
      if (nbhd.size() < params.min_pts) continue;
      is_core[p] = 1;
      assigned[p] = 1;
      for (PointId q : nbhd) {
        if (is_core[q]) {
          uf.union_sets(p, q);
        } else if (!assigned[q]) {
          uf.union_sets(p, q);
          assigned[q] = 1;
        }
      }
    }
    const double t_cluster = comm.vtime() - t0;
    comm.barrier();

    t0 = comm.vtime();
    MergeStats merge_stats;
    DistClustering local = merge_local_clusterings(
        comm, ds.dim(), params.eps, ds.raw(), setup.n_local, setup.gids,
        setup.halo_owner, setup.rank_boxes, uf, is_core, assigned,
        &merge_stats);
    const double t_merge = comm.vtime() - t0;

    scatter_result(setup, local.label, local.is_core, result.label,
                   result.is_core);

    const double m_partition = comm.allreduce_max(setup.t_partition);
    const double m_halo = comm.allreduce_max(setup.t_halo);
    const double m_build = comm.allreduce_max(t_build);
    const double m_cluster = comm.allreduce_max(t_cluster);
    const double m_merge = comm.allreduce_max(t_merge);
    const std::int64_t queries_total =
        comm.allreduce_sum(static_cast<std::int64_t>(queries));

    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(agg_mu);
      agg.t_partition = m_partition;
      agg.t_halo = m_halo;
      agg.t_build = m_build;
      agg.t_cluster = m_cluster;
      agg.t_merge = m_merge;
      agg.queries_performed = static_cast<std::uint64_t>(queries_total);
    }
  });

  agg.wall_seconds = wall.seconds();
  if (stats) *stats = agg;
  return result;
}

}  // namespace udb
