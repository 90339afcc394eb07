// The one distributed pipeline (Algorithm 9) and what its three drivers
// plug into it. Every rank takes its contiguous slice of the input (standing
// in for the paper's parallel I/O), runs the sampling-based kd partitioning,
// exchanges eps-halos, clusters its combined local+halo points with the
// driver's local step, and joins the query-free merge. mudbscan_d's local
// step is the µDBSCAN engine; pdsdbscan_d and hpdbscan_d run classical
// DBSCAN's one query per point over an R-tree or an eps-grid.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/dataset.hpp"
#include "dist/kd_partition.hpp"
#include "dist/mudbscan_d.hpp"
#include "unionfind/union_find.hpp"

namespace udb {

// Rank `me`'s contiguous block of the input (the arbitrary pre-partitioning
// order), the input to kd_partition.
inline PartitionResult initial_block(const Dataset& global, int me, int p) {
  const std::size_t n = global.size();
  const std::size_t dim = global.dim();
  const std::size_t lo = n * static_cast<std::size_t>(me) /
                         static_cast<std::size_t>(p);
  const std::size_t hi = n * (static_cast<std::size_t>(me) + 1) /
                         static_cast<std::size_t>(p);
  const auto first = global.raw().begin();
  PartitionResult out;
  out.dim = dim;
  out.coords.assign(first + static_cast<std::ptrdiff_t>(lo * dim),
                    first + static_cast<std::ptrdiff_t>(hi * dim));
  out.gids.resize(hi - lo);
  for (std::size_t i = 0; i < out.gids.size(); ++i) out.gids[i] = lo + i;
  return out;
}

// The combined layout every local clustering and the merge index by: local
// rows first, then the halo copies.
template <class T>
std::vector<T> local_then_halo(std::vector<T> local,
                               const std::vector<T>& halo) {
  local.insert(local.end(), halo.begin(), halo.end());
  return local;
}

// A rank's local clustering over its combined dataset, run as the four
// timed stages of MuDbscanDRank (t_tree, t_reach, t_cluster, t_post). A
// stage returns false when the algorithm has no such stage, and its time is
// then recorded as 0. Afterwards the step holds what the merge reads: a
// union-find and core / assigned flags over combined indices.
class LocalStep {
 public:
  LocalStep() = default;
  LocalStep(const LocalStep&) = delete;
  LocalStep& operator=(const LocalStep&) = delete;
  virtual ~LocalStep() = default;
  virtual bool build_index() { return false; }
  virtual bool find_reachable() { return false; }
  virtual bool cluster() { return false; }
  virtual bool post_process() { return false; }
  [[nodiscard]] virtual UnionFind& uf() = 0;
  [[nodiscard]] virtual const std::vector<std::uint8_t>& core_flags()
      const = 0;
  [[nodiscard]] virtual const std::vector<std::uint8_t>& assigned_flags()
      const = 0;
  [[nodiscard]] virtual std::uint64_t queries_performed() const = 0;
};

// Classical DBSCAN's local step: one eps-query per combined point (halo
// points included), each core joining its core neighbours and claiming its
// unclaimed ones. Subclasses build their index in build_index() and run
// query_and_union over it in cluster().
class QueryUnionStep : public LocalStep {
 public:
  QueryUnionStep(const Dataset& ds, const DbscanParams& params)
      : ds_(ds), params_(params), uf_(ds.size()),
        is_core_(ds.size(), 0), assigned_(ds.size(), 0) {}

  UnionFind& uf() final { return uf_; }
  const std::vector<std::uint8_t>& core_flags() const final {
    return is_core_;
  }
  const std::vector<std::uint8_t>& assigned_flags() const final {
    return assigned_;
  }
  std::uint64_t queries_performed() const final { return queries_; }

 protected:
  // `query(p, out)` appends the ids of p's strict eps-neighbours, p itself
  // included, to `out`.
  template <class Query>
  void query_and_union(Query&& query) {
    std::vector<PointId> nbhd;
    for (std::size_t i = 0; i < ds_.size(); ++i) {
      const PointId p = static_cast<PointId>(i);
      nbhd.clear();
      query(p, nbhd);
      ++queries_;
      if (nbhd.size() < params_.min_pts) continue;
      is_core_[p] = 1;
      assigned_[p] = 1;
      for (PointId q : nbhd) {
        if (is_core_[q]) {
          uf_.union_sets(p, q);
        } else if (!assigned_[q]) {
          uf_.union_sets(p, q);
          assigned_[q] = 1;
        }
      }
    }
  }

  const Dataset& ds_;
  DbscanParams params_;

 private:
  UnionFind uf_;
  std::vector<std::uint8_t> is_core_, assigned_;
  std::uint64_t queries_ = 0;
};

// Makes a rank's local step over its combined dataset, which outlives it.
using MakeLocalStep =
    std::function<std::unique_ptr<LocalStep>(const Dataset& combined)>;

// Runs the pipeline on `nranks` simulated ranks with `make_local` as every
// rank's local clustering; mudbscan_d's contract (mudbscan_d.hpp) holds for
// any exact local step.
[[nodiscard]] ClusteringResult run_distributed(
    const Dataset& global, const DbscanParams& params, int nranks,
    MuDbscanDStats* stats, const DistConfig& cfg,
    const MakeLocalStep& make_local);

}  // namespace udb
