#include "baselines/r_dbscan.hpp"

#include "baselines/uf_labels.hpp"
#include "common/timer.hpp"
#include "index/rtree.hpp"

namespace udb {

ClusteringResult r_dbscan(const Dataset& ds, const DbscanParams& params,
                          RDbscanStats* stats, obs::MetricsRegistry* metrics) {
  const std::size_t n = ds.size();
  WallTimer timer;

  const RTree tree = RTree::bulk_load_str(ds);
  const double build_s = timer.seconds();

  timer.reset();
  UnionFind uf(n);
  std::vector<std::uint8_t> is_core(n, 0);
  std::vector<std::uint8_t> assigned(n, 0);
  std::vector<PointId> nbhd;
  std::uint64_t queries = 0;

  std::uint64_t unions = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PointId p = static_cast<PointId>(i);
    nbhd.clear();
    tree.query_ball(ds.point(p), params.eps, nbhd);
    ++queries;
    if (metrics) metrics->observe(obs::Hist::kNeighborCount, nbhd.size());
    if (nbhd.size() < params.min_pts) continue;
    is_core[p] = 1;
    assigned[p] = 1;
    for (PointId q : nbhd) {
      if (is_core[q]) {
        uf.union_sets(p, q);
        ++unions;
      } else if (!assigned[q]) {
        uf.union_sets(p, q);
        assigned[q] = 1;
        ++unions;
      }
    }
  }

  if (metrics) {
    metrics->add(obs::Counter::kQueriesPerformed, queries);
    metrics->add(obs::Counter::kUnionCalls, unions);
    metrics->add(obs::Counter::kRtreeNodeVisits, tree.node_visits());
    metrics->add(obs::Counter::kRtreeDistanceEvals, tree.distance_evals());
  }
  if (stats) {
    stats->build_seconds = build_s;
    stats->cluster_seconds = timer.seconds();
    stats->queries = queries;
    stats->distance_evals = tree.distance_evals();
  }
  return extract_labels(uf, std::move(is_core), assigned);
}

}  // namespace udb
