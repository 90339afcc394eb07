// Micro-clusters (Section IV-A of the paper): a micro-cluster MC(p) is the
// hypersphere of radius eps centred at data point p together with the points
// assigned to it; every point belongs to exactly one MC. The inner circle
// IC(MC) is the subset of members strictly within eps/2 of the centre
// (strict, not the paper's <=: strictness makes Lemma 1's pairwise-< eps
// argument airtight even for adversarial coordinates — see DESIGN.md).
//
// Classification (Fig. 2):
//   DMC (dense):  |IC| >= MinPts — every IC point is core without a query
//                 (Lemma 1), and so is the centre;
//   CMC (core):   |MC| >= MinPts — the centre is core without a query
//                 (Lemma 2);
//   SMC (sparse): everything else.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/dataset.hpp"

namespace udb {

using McId = std::uint32_t;
constexpr McId kInvalidMc = static_cast<McId>(-1);

enum class McKind : std::uint8_t { Sparse, Core, Dense };

// Candidate-MC radius for a ball query: every member lies strictly within
// eps of its MC centre, so any member within `radius` of a query position
// belongs to an MC whose centre is within radius + eps (non-strict: the
// triangle-inequality bound is attained at the boundary). Shared by the
// µR-tree's arbitrary-position queries and the incremental engine's
// micro-cluster-accelerated neighborhood scans.
[[nodiscard]] constexpr double mc_candidate_radius(double radius,
                                                   double eps) noexcept {
  return radius + eps;
}

struct MicroCluster {
  PointId center = kInvalidPoint;
  // Includes the centre. A view into the owning MuRTree's member store (its
  // AuxR-tree leaves, in leaf order); valid for the tree's lifetime.
  std::span<const PointId> members;
  std::uint32_t ic_count = 0;    // members (centre excluded) with dist < eps/2
  std::vector<McId> reach;       // reachable MCs: centres within 3*eps (self included)

  [[nodiscard]] McKind classify(std::uint32_t min_pts) const noexcept {
    if (ic_count >= min_pts) return McKind::Dense;
    if (members.size() >= min_pts) return McKind::Core;
    return McKind::Sparse;
  }
};

}  // namespace udb
