#include "gates.hpp"

#include <cstring>
#include <limits>

#include "baselines/grid_dbscan.hpp"
#include "core/mudbscan.hpp"
#include "metrics/exactness.hpp"

namespace perfbench {

using udb::ClusteringResult;

std::string check_against_grid(const udb::Dataset& ds,
                               const udb::DbscanParams& prm,
                               const ClusteringResult& got) {
  const auto rep = udb::compare_exact(udb::grid_dbscan(ds, prm), got);
  return rep.exact() ? "" : "grid_dbscan oracle: " + rep.detail;
}

std::string check_same_fit(const ClusteringResult& checked,
                           const ClusteringResult& got, bool identical) {
  if (identical)
    return got.label == checked.label && got.is_core == checked.is_core
               ? ""
               : "timed fit differs from the checked fit";
  const auto rep = udb::compare_exact(checked, got);
  return rep.exact() ? "" : "timed fit vs checked fit: " + rep.detail;
}

std::string check_canonical(const udb::Dataset& survivors,
                            const udb::DbscanParams& prm,
                            const ClusteringResult& got) {
  const ClusteringResult want = udb::canonicalize_clustering(
      survivors, prm, udb::mu_dbscan(survivors, prm));
  if (want.label == got.label && want.is_core == got.is_core) return "";
  return "incremental result differs from the canonical batch fit of " +
         std::to_string(survivors.size()) + " survivors";
}

std::vector<Expected> expected_answers(const udb::Dataset& ds,
                                       const udb::DbscanParams& prm,
                                       const ClusteringResult& fit,
                                       const std::vector<double>& queries) {
  const std::size_t dim = ds.dim();
  const double eps2 = prm.eps * prm.eps;
  std::vector<Expected> out(queries.size() / dim);
  for (std::size_t qi = 0; qi < out.size(); ++qi) {
    const double* q = queries.data() + qi * dim;
    udb::PointId bitwise = udb::kInvalidPoint;
    udb::PointId zero = udb::kInvalidPoint;
    udb::PointId best = udb::kInvalidPoint;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const auto id = static_cast<udb::PointId>(i);
      const double* p = ds.ptr(id);
      if (std::memcmp(p, q, dim * sizeof(double)) == 0) {
        bitwise = id;  // ids ascend, so the first bitwise twin is the lowest
        break;
      }
      double d2 = 0.0;
      for (std::size_t k = 0; k < dim; ++k) d2 += (q[k] - p[k]) * (q[k] - p[k]);
      if (!(d2 < eps2)) continue;
      if (d2 == 0.0 && zero == udb::kInvalidPoint) zero = id;
      if (fit.is_core[id] != 0 && d2 < best_d2) {
        best_d2 = d2;
        best = id;
      }
    }
    const udb::PointId twin = bitwise != udb::kInvalidPoint ? bitwise : zero;
    Expected& e = out[qi];
    if (twin != udb::kInvalidPoint) {
      e = {fit.label[twin], fit.kind(twin), true};
    } else if (best != udb::kInvalidPoint) {
      e = {fit.label[best], udb::PointKind::Border, false};
    }
  }
  return out;
}

std::string check_answer(const Expected& want,
                         const udb::serve::Classify& got) {
  if (got.label == want.label && got.kind == want.kind &&
      got.exact_match == want.exact_match)
    return "";
  return "served label " + std::to_string(got.label) + " kind " +
         std::to_string(static_cast<int>(got.kind)) + " exact " +
         std::to_string(got.exact_match) + ", expected label " +
         std::to_string(want.label) + " kind " +
         std::to_string(static_cast<int>(want.kind)) + " exact " +
         std::to_string(want.exact_match);
}

}  // namespace perfbench
