// Sampling-based kd-tree spatial partitioning (Section V-A, following the
// BD-CATS approach the paper cites): log2(p) rounds of recursive halving.
// Each round, the active group picks the axis with the largest spread,
// estimates the median of that axis from a per-rank sample, and exchanges
// points so the lower half of the group keeps coordinates below the median
// and the upper half the rest. Works for any group size (uneven groups split
// at the weighted quantile).

#pragma once

#include <cstdint>
#include <vector>

#include "mpi/minimpi.hpp"

namespace udb {

struct PartitionResult {
  std::size_t dim = 0;
  std::vector<double> coords;        // local points after partitioning
  std::vector<std::uint64_t> gids;   // matching global ids
};

struct PartitionConfig {
  std::size_t sample_per_rank = 128;
};

// Collective over the full communicator: every rank passes its initial block
// of points; returns its spatially partitioned block.
[[nodiscard]] PartitionResult kd_partition(mpi::Comm& comm, std::size_t dim,
                                           std::vector<double> coords,
                                           std::vector<std::uint64_t> gids,
                                           const PartitionConfig& cfg = {});

}  // namespace udb
