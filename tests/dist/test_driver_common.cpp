// The partition and halo phases of the distributed pipeline (initial block
// slice -> kd partition -> halo exchange, the calls run_rank makes) must
// deliver a combined local+halo view whose local neighborhoods are complete.

#include "dist/driver_common.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/distance.hpp"
#include "data/generators.hpp"
#include "dist/halo.hpp"

namespace udb {
namespace {

struct RankView {
  Dataset combined;  // local points first, then halo copies
  std::size_t n_local = 0;
  std::vector<std::uint64_t> gids;  // combined (local + halo)
  std::vector<int> halo_owner;      // owner rank per halo point
  double t_partition = 0.0;
  double t_halo = 0.0;
};

std::vector<RankView> run_prepare(const Dataset& ds, int p, double eps) {
  mpi::Runtime rt(p);
  std::vector<RankView> out(static_cast<std::size_t>(p));
  rt.run([&](mpi::Comm& comm) {
    // Each rank writes only its own slot.
    RankView& v = out[static_cast<std::size_t>(comm.rank())];
    PartitionResult block = initial_block(ds, comm.rank(), comm.size());
    double t0 = comm.vtime();
    PartitionResult part = kd_partition(
        comm, ds.dim(), std::move(block.coords), std::move(block.gids));
    v.t_partition = comm.vtime() - t0;
    t0 = comm.vtime();
    HaloResult halo = exchange_halo(comm, ds.dim(), part.coords, part.gids, eps);
    v.t_halo = comm.vtime() - t0;
    v.n_local = part.gids.size();
    v.gids = local_then_halo(std::move(part.gids), halo.gids);
    v.halo_owner = std::move(halo.owner);
    v.combined =
        Dataset(ds.dim(), local_then_halo(std::move(part.coords), halo.coords));
  });
  return out;
}

class PrepareLocal : public ::testing::TestWithParam<int> {};

TEST_P(PrepareLocal, LocalPointsPartitionTheInput) {
  const int p = GetParam();
  Dataset ds = gen_blobs(900, 3, 4, 80.0, 4.0, 0.2, 3);
  const auto out = run_prepare(ds, p, 2.0);
  std::vector<std::uint64_t> all;
  for (const auto& s : out)
    all.insert(all.end(), s.gids.begin(), s.gids.begin() + static_cast<std::ptrdiff_t>(s.n_local));
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), ds.size());
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], i);
}

TEST_P(PrepareLocal, CombinedViewHasCompleteNeighborhoods) {
  // For every local point, every global eps-neighbor must be present in the
  // combined (local + halo) dataset — the property local clustering
  // correctness rests on.
  const int p = GetParam();
  const double eps = 2.5;
  Dataset ds = gen_blobs(600, 3, 3, 60.0, 4.0, 0.2, 5);
  const auto out = run_prepare(ds, p, eps);
  const double eps2 = eps * eps;

  for (const auto& s : out) {
    std::vector<std::uint64_t> present(s.gids.begin(), s.gids.end());
    std::sort(present.begin(), present.end());
    for (std::size_t i = 0; i < s.n_local; ++i) {
      const double* x = s.combined.ptr(static_cast<PointId>(i));
      for (std::size_t g = 0; g < ds.size(); ++g) {
        if (sq_dist(x, ds.ptr(static_cast<PointId>(g)), ds.dim()) < eps2) {
          EXPECT_TRUE(std::binary_search(present.begin(), present.end(),
                                         static_cast<std::uint64_t>(g)))
              << "missing neighbor " << g << " of local gid " << s.gids[i];
        }
      }
    }
  }
}

TEST_P(PrepareLocal, CombinedCoordinatesMatchGids) {
  const int p = GetParam();
  Dataset ds = gen_uniform(400, 2, -5.0, 5.0, 7);
  const auto out = run_prepare(ds, p, 1.0);
  for (const auto& s : out) {
    ASSERT_EQ(s.combined.size(), s.gids.size());
    for (std::size_t i = 0; i < s.gids.size(); ++i) {
      for (std::size_t k = 0; k < ds.dim(); ++k) {
        EXPECT_EQ(s.combined.coord(static_cast<PointId>(i), k),
                  ds.coord(static_cast<PointId>(s.gids[i]), k));
      }
    }
  }
}

TEST_P(PrepareLocal, HaloOwnersPointBackToLocalHolders) {
  const int p = GetParam();
  Dataset ds = gen_blobs(500, 3, 3, 50.0, 4.0, 0.2, 9);
  const auto out = run_prepare(ds, p, 2.0);
  // owner_of from the authoritative local partitions.
  std::vector<int> owner_of(ds.size(), -1);
  for (int r = 0; r < p; ++r) {
    const auto& s = out[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < s.n_local; ++i)
      owner_of[s.gids[i]] = r;
  }
  for (int r = 0; r < p; ++r) {
    const auto& s = out[static_cast<std::size_t>(r)];
    for (std::size_t h = 0; h < s.halo_owner.size(); ++h) {
      const std::uint64_t gid = s.gids[s.n_local + h];
      EXPECT_EQ(s.halo_owner[h], owner_of[gid]);
    }
  }
}

TEST_P(PrepareLocal, PhaseTimesAreNonNegative) {
  const int p = GetParam();
  Dataset ds = gen_uniform(300, 2, 0.0, 10.0, 11);
  const auto out = run_prepare(ds, p, 1.0);
  for (const auto& s : out) {
    EXPECT_GE(s.t_partition, 0.0);
    EXPECT_GE(s.t_halo, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, PrepareLocal, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace udb
