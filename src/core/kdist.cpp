#include "core/kdist.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "index/rtree.hpp"

namespace udb {

std::vector<double> kdist_graph(const Dataset& ds, std::size_t k) {
  if (k == 0) throw std::invalid_argument("kdist_graph: k must be >= 1");
  const std::size_t n = ds.size();
  std::vector<double> out;
  out.reserve(n);
  if (n == 0) return out;

  const RTree tree = RTree::bulk_load_str(ds);

  std::vector<std::pair<PointId, double>> knn;
  for (std::size_t i = 0; i < n; ++i) {
    // k+1 because the query point itself is its own nearest neighbor.
    tree.query_knn(ds.point(static_cast<PointId>(i)), k + 1, knn);
    out.push_back(knn.size() > k ? std::sqrt(knn[k].second)
                                 : std::sqrt(knn.back().second));
  }
  std::sort(out.rbegin(), out.rend());
  return out;
}

double suggest_eps(const Dataset& ds, std::size_t k) {
  const std::vector<double> curve = kdist_graph(ds, k);
  if (curve.empty()) return 0.0;
  if (curve.size() < 3) return curve.back();

  // Kneedle: maximize the distance from the curve to the straight line
  // between its first and last points.
  const double n1 = static_cast<double>(curve.size() - 1);
  const double y0 = curve.front();
  const double y1 = curve.back();
  std::size_t best = 0;
  double best_gap = -1.0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const double t = static_cast<double>(i) / n1;
    const double chord = y0 + (y1 - y0) * t;
    const double gap = chord - curve[i];  // curve is convex-ish below chord
    if (gap > best_gap) {
      best_gap = gap;
      best = i;
    }
  }
  return curve[best];
}

}  // namespace udb
