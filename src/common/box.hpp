// Axis-aligned bounding box (the R-tree literature's MBR) in d dimensions.
//
// Boxes are the only geometric primitive the spatial indexes need: point
// containment, box-box overlap and the point-box distance that decides
// box-ball overlap (for eps-region queries).

#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

namespace udb {

// Squared distance from point `p` to the nearest point of the box [lo, hi]
// (0 inside). Box::min_sq_dist and the µR-tree's flat MBR arrays share it,
// so both filters compare the same value against radius^2.
[[nodiscard]] inline double box_min_sq_dist(const double* lo, const double* hi,
                                            const double* p,
                                            std::size_t dim) noexcept {
  double acc = 0.0;
  for (std::size_t k = 0; k < dim; ++k) {
    double d = 0.0;
    if (p[k] < lo[k])
      d = lo[k] - p[k];
    else if (p[k] > hi[k])
      d = p[k] - hi[k];
    acc += d * d;
  }
  return acc;
}

// Squared distance between two boxes (0 when they meet), summed in
// ascending k like the distance kernels, so it never exceeds the computed
// squared distance of any point of one box to any point of the other.
[[nodiscard]] inline double box_box_min_sq_dist(const double* lo_a,
                                                const double* hi_a,
                                                const double* lo_b,
                                                const double* hi_b,
                                                std::size_t dim) noexcept {
  double acc = 0.0;
  for (std::size_t k = 0; k < dim; ++k) {
    double d = 0.0;
    if (hi_a[k] < lo_b[k])
      d = lo_b[k] - hi_a[k];
    else if (hi_b[k] < lo_a[k])
      d = lo_a[k] - hi_b[k];
    acc += d * d;
  }
  return acc;
}

class Box {
 public:
  Box() = default;

  explicit Box(std::size_t dim)
      : lo_(dim, std::numeric_limits<double>::infinity()),
        hi_(dim, -std::numeric_limits<double>::infinity()) {}

  [[nodiscard]] std::size_t dim() const noexcept { return lo_.size(); }
  [[nodiscard]] double lo(std::size_t k) const noexcept { return lo_[k]; }
  [[nodiscard]] double hi(std::size_t k) const noexcept { return hi_[k]; }
  [[nodiscard]] bool valid() const noexcept {
    for (std::size_t k = 0; k < dim(); ++k)
      if (lo_[k] > hi_[k]) return false;
    return !lo_.empty();
  }

  void expand(std::span<const double> p) noexcept {
    for (std::size_t k = 0; k < dim(); ++k) {
      lo_[k] = std::min(lo_[k], p[k]);
      hi_[k] = std::max(hi_[k], p[k]);
    }
  }

  void expand(const Box& o) noexcept {
    for (std::size_t k = 0; k < dim(); ++k) {
      lo_[k] = std::min(lo_[k], o.lo_[k]);
      hi_[k] = std::max(hi_[k], o.hi_[k]);
    }
  }

  [[nodiscard]] bool contains(std::span<const double> p) const noexcept {
    for (std::size_t k = 0; k < dim(); ++k)
      if (p[k] < lo_[k] || p[k] > hi_[k]) return false;
    return true;
  }

  [[nodiscard]] bool overlaps(const Box& o) const noexcept {
    for (std::size_t k = 0; k < dim(); ++k)
      if (lo_[k] > o.hi_[k] || o.lo_[k] > hi_[k]) return false;
    return true;
  }

  // Squared distance from a point to the nearest point of the box (0 if the
  // point is inside). Used for exact box-ball overlap tests: the eps-ball of
  // `p` intersects the box iff min_sq_dist(p) <= eps^2.
  [[nodiscard]] double min_sq_dist(std::span<const double> p) const noexcept {
    return box_min_sq_dist(lo_.data(), hi_.data(), p.data(), dim());
  }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace udb
