#include "dist/kd_partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/status.hpp"

namespace udb {

namespace {

// First of the user tags the point exchanges use (two per halving round).
constexpr mpi::Tag kTagBase = 1000;

// One rank's view of the recursive halving: current group is [base, base+g).
struct Group {
  int base;
  int size;
};

}  // namespace

PartitionResult kd_partition(mpi::Comm& comm, std::size_t dim,
                             std::vector<double> coords,
                             std::vector<std::uint64_t> gids,
                             const PartitionConfig& cfg) {
  if (coords.size() != gids.size() * dim)
    throw StatusError(
        InvalidArgumentError("kd_partition: coords/gids size mismatch"));
  const int me = comm.rank();

  Group grp{0, comm.size()};
  mpi::Tag tag = kTagBase;

  while (grp.size > 1) {
    const int g_lo = grp.size / 2;
    const int g_hi = grp.size - g_lo;
    const bool in_lower = me < grp.base + g_lo;

    // 1. Axis with the largest spread across the group.
    std::vector<double> local_minmax(2 * dim);
    for (std::size_t k = 0; k < dim; ++k) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (std::size_t i = 0; i < gids.size(); ++i) {
        lo = std::min(lo, coords[i * dim + k]);
        hi = std::max(hi, coords[i * dim + k]);
      }
      local_minmax[k] = lo;
      local_minmax[dim + k] = hi;
    }
    std::vector<std::size_t> counts;
    const std::vector<double> all_minmax =
        comm.allgatherv(local_minmax, &counts, grp.base, grp.size);
    std::size_t axis = 0;
    double best_spread = -1.0;
    for (std::size_t k = 0; k < dim; ++k) {
      double lo = std::numeric_limits<double>::infinity();
      double hi = -lo;
      for (int r = 0; r < grp.size; ++r) {
        lo = std::min(lo, all_minmax[static_cast<std::size_t>(r) * 2 * dim + k]);
        hi = std::max(hi,
                      all_minmax[static_cast<std::size_t>(r) * 2 * dim + dim + k]);
      }
      if (hi - lo > best_spread) {
        best_spread = hi - lo;
        axis = k;
      }
    }

    // 2. Split threshold: the g_lo/g quantile of a pooled per-rank sample
    // (the median for even groups — the paper's sampling-based median).
    std::vector<double> sample;
    const std::size_t take = std::min(cfg.sample_per_rank, gids.size());
    for (std::size_t i = 0; i < take; ++i) {
      // Deterministic stride sample: evenly spaced through the local block.
      const std::size_t idx = i * gids.size() / (take == 0 ? 1 : take);
      sample.push_back(coords[idx * dim + axis]);
    }
    std::vector<double> pooled =
        comm.allgatherv(sample, nullptr, grp.base, grp.size);
    double threshold = 0.0;
    if (pooled.empty()) {
      threshold = 0.0;  // degenerate group with no points anywhere
    } else {
      std::sort(pooled.begin(), pooled.end());
      const double q = static_cast<double>(g_lo) / static_cast<double>(grp.size);
      std::size_t pos = static_cast<std::size_t>(
          q * static_cast<double>(pooled.size()));
      if (pos >= pooled.size()) pos = pooled.size() - 1;
      threshold = pooled[pos];
    }

    // 3. Partition local points; ship the foreign half to a partner in the
    // other sub-group (cyclic mapping handles uneven halves).
    std::vector<double> keep_c, ship_c;
    std::vector<std::uint64_t> keep_g, ship_g;
    for (std::size_t i = 0; i < gids.size(); ++i) {
      const bool lower = coords[i * dim + axis] < threshold;
      auto& dst_c = (lower == in_lower) ? keep_c : ship_c;
      auto& dst_g = (lower == in_lower) ? keep_g : ship_g;
      dst_c.insert(dst_c.end(), coords.begin() + static_cast<std::ptrdiff_t>(i * dim),
                   coords.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim));
      dst_g.push_back(gids[i]);
    }

    int partner;
    if (in_lower) {
      const int my_off = me - grp.base;
      partner = grp.base + g_lo + (my_off % g_hi);
    } else {
      const int my_off = me - (grp.base + g_lo);
      partner = grp.base + (my_off % g_lo);
    }

    // Every rank sends exactly one (coords, gids) pair to its partner and
    // receives from every rank that maps onto it.
    comm.send(partner, tag, ship_c);
    comm.send(partner, tag + 1, ship_g);

    std::vector<int> senders;
    if (in_lower) {
      // Upper ranks whose cyclic partner is me.
      const int my_off = me - grp.base;
      for (int off = 0; off < g_hi; ++off)
        if (off % g_lo == my_off) senders.push_back(grp.base + g_lo + off);
    } else {
      const int my_off = me - (grp.base + g_lo);
      for (int off = 0; off < g_lo; ++off)
        if (off % g_hi == my_off) senders.push_back(grp.base + off);
    }
    coords = std::move(keep_c);
    gids = std::move(keep_g);
    for (int src : senders) {
      std::vector<double> in_c = comm.recv<double>(src, tag);
      std::vector<std::uint64_t> in_g = comm.recv<std::uint64_t>(src, tag + 1);
      coords.insert(coords.end(), in_c.begin(), in_c.end());
      gids.insert(gids.end(), in_g.begin(), in_g.end());
    }
    tag += 2;

    // 4. Narrow to my sub-group.
    if (in_lower) {
      grp.size = g_lo;
    } else {
      grp.base += g_lo;
      grp.size = g_hi;
    }
  }

  PartitionResult out;
  out.dim = dim;
  out.coords = std::move(coords);
  out.gids = std::move(gids);
  return out;
}

}  // namespace udb
