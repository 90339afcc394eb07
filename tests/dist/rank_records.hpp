// Shared check of MuDbscanDStats::ranks: one record per rank of the
// successful attempt, in increasing logical rank order, whose per-rank
// counts add up to the run totals.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "dist/mudbscan_d.hpp"

namespace udb {

inline void expect_rank_records(const MuDbscanDStats& st, std::size_t n,
                                std::size_t ranks) {
  ASSERT_EQ(st.ranks.size(), ranks);
  std::uint64_t n_local = 0, n_halo = 0, queries = 0;
  for (std::size_t i = 0; i < st.ranks.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(st.ranks[i - 1].rank, st.ranks[i].rank);
    }
    n_local += st.ranks[i].n_local;
    n_halo += st.ranks[i].n_halo;
    queries += st.ranks[i].queries_performed;
  }
  EXPECT_EQ(n_local, n);
  EXPECT_EQ(n_halo, st.halo_points_total);
  EXPECT_EQ(queries, st.queries_performed);
}

}  // namespace udb
