#include "dist/hpdbscan_d.hpp"

#include <memory>
#include <optional>

#include "common/distance.hpp"
#include "dist/driver_common.hpp"
#include "index/grid.hpp"

namespace udb {

namespace {

// HPDBSCAN grids with cell side = eps: queries touch the 3^d surrounding
// cells (k = 1). Neighbor-cell lists are memoized lazily per cell.
class GridStep final : public QueryUnionStep {
 public:
  using QueryUnionStep::QueryUnionStep;
  bool build_index() override {
    grid_.emplace(ds_, params_.eps);
    nbr_cache_.resize(grid_->num_cells());
    nbr_known_.assign(grid_->num_cells(), 0);
    return true;
  }
  bool cluster() override {
    const double eps2 = params_.eps * params_.eps;
    query_and_union([&](PointId p, std::vector<PointId>& out) {
      const double* pp = ds_.ptr(p);
      for (Grid::CellId nc : neighbors_of(grid_->cell_of_point(p)))
        for (PointId q : grid_->points_in(nc))
          if (sq_dist(pp, ds_.ptr(q), ds_.dim()) < eps2) out.push_back(q);
    });
    return true;
  }

 private:
  const std::vector<Grid::CellId>& neighbors_of(Grid::CellId c) {
    if (!nbr_known_[c]) {
      grid_->neighbors_within(c, 1, nbr_cache_[c]);
      nbr_known_[c] = 1;
    }
    return nbr_cache_[c];
  }

  std::optional<Grid> grid_;
  std::vector<std::vector<Grid::CellId>> nbr_cache_;
  std::vector<std::uint8_t> nbr_known_;
};

}  // namespace

ClusteringResult hpdbscan_d(const Dataset& global, const DbscanParams& params,
                            int nranks, MuDbscanDStats* stats,
                            mpi::CostModel cost) {
  DistConfig cfg;
  cfg.cost = cost;
  return run_distributed(global, params, nranks, stats, cfg,
                         [&](const Dataset& combined) {
                           return std::make_unique<GridStep>(combined, params);
                         });
}

}  // namespace udb
