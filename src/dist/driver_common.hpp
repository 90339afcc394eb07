// Shared scaffolding for the distributed algorithms: every rank takes its
// contiguous slice of the input (standing in for the paper's parallel I/O),
// runs the sampling-based kd partitioning, and exchanges eps-halos. The
// result is the combined local+halo dataset each local clustering algorithm
// operates on.

#pragma once

#include <vector>

#include "common/dataset.hpp"
#include "dist/halo.hpp"
#include "dist/kd_partition.hpp"
#include "mpi/minimpi.hpp"

namespace udb {

struct LocalSetup {
  Dataset combined;  // local points first, then halo copies
  std::size_t n_local = 0;
  std::vector<std::uint64_t> gids;  // combined (local + halo)
  std::vector<int> halo_owner;      // owner rank per halo point
  std::vector<Box> rank_boxes;
  double t_partition = 0.0;  // this rank's virtual time in partitioning
  double t_halo = 0.0;       // ... and in the halo exchange
};

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

inline LocalSetup prepare_local(mpi::Comm& comm, const Dataset& global,
                                double eps,
                                const PartitionConfig& pcfg = {}) {
  const std::size_t dim = global.dim();
  PartitionResult block = initial_block(global, comm.rank(), comm.size());

  // Phase times are this rank's own virtual-time delta; barriers between
  // phases stop one phase's load imbalance from bleeding into the next
  // phase's measurement (the reported per-phase makespan is the allreduce
  // max of these deltas).
  LocalSetup out;
  const double t0 = comm.vtime();
  PartitionResult part = kd_partition(comm, dim, std::move(block.coords),
                                      std::move(block.gids), pcfg);
  out.t_partition = comm.vtime() - t0;
  comm.barrier();

  const double t1 = comm.vtime();
  HaloResult halo = exchange_halo(comm, dim, part.coords, part.gids, eps);
  out.t_halo = comm.vtime() - t1;
  comm.barrier();

  out.n_local = part.gids.size();
  out.gids = local_then_halo(std::move(part.gids), halo.gids);
  out.halo_owner = std::move(halo.owner);
  out.rank_boxes = std::move(halo.rank_boxes);
  out.combined =
      Dataset(dim, local_then_halo(std::move(part.coords), halo.coords));
  return out;
}

// Scatters a rank's final local labels/core flags into the global result
// arrays (each gid is written by exactly one rank; no synchronization
// needed).
inline void scatter_result(const LocalSetup& setup,
                           const std::vector<std::int64_t>& label,
                           const std::vector<std::uint8_t>& is_core,
                           std::vector<std::int64_t>& global_label,
                           std::vector<std::uint8_t>& global_core) {
  for (std::size_t i = 0; i < setup.n_local; ++i) {
    global_label[setup.gids[i]] = label[i];
    global_core[setup.gids[i]] = is_core[i];
  }
}

}  // namespace udb
