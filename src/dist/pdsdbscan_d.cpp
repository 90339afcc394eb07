#include "dist/pdsdbscan_d.hpp"

#include <memory>
#include <optional>

#include "dist/driver_common.hpp"
#include "index/rtree.hpp"

namespace udb {

namespace {

class RTreeStep final : public QueryUnionStep {
 public:
  using QueryUnionStep::QueryUnionStep;
  bool build_index() override {
    tree_.emplace(RTree::bulk_load_str(ds_));
    return true;
  }
  bool cluster() override {
    query_and_union([&](PointId p, std::vector<PointId>& out) {
      tree_->query_ball(ds_.point(p), params_.eps, out);
    });
    return true;
  }

 private:
  std::optional<RTree> tree_;
};

}  // namespace

ClusteringResult pdsdbscan_d(const Dataset& global, const DbscanParams& params,
                             int nranks, MuDbscanDStats* stats,
                             mpi::CostModel cost) {
  DistConfig cfg;
  cfg.cost = cost;
  return run_distributed(global, params, nranks, stats, cfg,
                         [&](const Dataset& combined) {
                           return std::make_unique<RTreeStep>(combined, params);
                         });
}

}  // namespace udb
