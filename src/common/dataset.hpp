// Core data container for udbscan: a d-dimensional point set stored row-major.
//
// Every algorithm in this library operates on an immutable Dataset and refers
// to points by index (PointId). Coordinates are doubles: the exactness
// guarantee of µDBSCAN rests on strict distance comparisons, and double
// precision keeps the < eps / <= eps boundaries well defined for the
// synthetic workloads used in the benches.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace udb {

using PointId = std::uint32_t;
constexpr PointId kInvalidPoint = static_cast<PointId>(-1);

class Dataset {
 public:
  Dataset() = default;

  // Takes ownership of a row-major coordinate buffer. coords.size() must be a
  // multiple of dim.
  Dataset(std::size_t dim, std::vector<double> coords)
      : dim_(dim), coords_(std::move(coords)) {
    if (dim_ == 0) throw std::invalid_argument("Dataset: dim must be > 0");
    if (coords_.size() % dim_ != 0)
      throw std::invalid_argument("Dataset: coords not a multiple of dim");
  }

  static Dataset empty(std::size_t dim) { return Dataset(dim, {}); }

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return dim_ == 0 ? 0 : coords_.size() / dim_;
  }
  [[nodiscard]] bool empty_points() const noexcept { return coords_.empty(); }

  [[nodiscard]] const double* ptr(PointId i) const noexcept {
    return coords_.data() + static_cast<std::size_t>(i) * dim_;
  }
  [[nodiscard]] std::span<const double> point(PointId i) const noexcept {
    return {ptr(i), dim_};
  }
  [[nodiscard]] double coord(PointId i, std::size_t axis) const noexcept {
    return coords_[static_cast<std::size_t>(i) * dim_ + axis];
  }

  [[nodiscard]] const std::vector<double>& raw() const noexcept {
    return coords_;
  }

  void push_back(std::span<const double> p) {
    if (p.size() != dim_)
      throw std::invalid_argument("Dataset::push_back: wrong dimension");
    coords_.insert(coords_.end(), p.begin(), p.end());
  }

  void reserve(std::size_t npoints) { coords_.reserve(npoints * dim_); }

  // Returns a dataset containing the points at `ids`, in order.
  [[nodiscard]] Dataset select(std::span<const PointId> ids) const {
    Dataset out = Dataset::empty(dim_);
    out.reserve(ids.size());
    for (PointId id : ids) out.push_back(point(id));
    return out;
  }

  // Returns a dataset keeping only the first `keep_dims` coordinates of every
  // point (used by the Fig. 6 dimensionality sweep, which projects the same
  // point set onto dimension prefixes).
  [[nodiscard]] Dataset project(std::size_t keep_dims) const {
    if (keep_dims == 0 || keep_dims > dim_)
      throw std::invalid_argument("Dataset::project: bad keep_dims");
    std::vector<double> out;
    out.reserve(size() * keep_dims);
    for (std::size_t i = 0; i < size(); ++i) {
      const double* p = ptr(static_cast<PointId>(i));
      out.insert(out.end(), p, p + keep_dims);
    }
    return Dataset(keep_dims, std::move(out));
  }

 private:
  std::size_t dim_ = 0;
  std::vector<double> coords_;  // row-major: point i at [i*dim_, (i+1)*dim_)
};

}  // namespace udb
