#include "unionfind/union_find.hpp"

#include <gtest/gtest.h>

#include <unordered_map>
#include <utility>

#include "baselines/uf_labels.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace udb {
namespace {

TEST(UnionFind, SingletonsInitially) {
  UnionFind uf(5);
  for (PointId i = 0; i < 5; ++i) EXPECT_EQ(uf.find(i), i);
  EXPECT_EQ(uf.count_components(), 5u);
}

TEST(UnionFind, UnionMergesTwoSets) {
  UnionFind uf(4);
  uf.union_sets(0, 1);
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_EQ(uf.count_components(), 3u);
}

TEST(UnionFind, UnionIsIdempotent) {
  UnionFind uf(3);
  const PointId r1 = uf.union_sets(0, 1);
  const PointId r2 = uf.union_sets(1, 0);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(uf.count_components(), 2u);
}

TEST(UnionFind, TransitivityViaChains) {
  UnionFind uf(10);
  for (PointId i = 0; i + 1 < 10; ++i) uf.union_sets(i, i + 1);
  EXPECT_TRUE(uf.same(0, 9));
  EXPECT_EQ(uf.count_components(), 1u);
}

TEST(UnionFind, ComponentIdsAreCompactAndConsistent) {
  UnionFind uf(6);
  uf.union_sets(0, 2);
  uf.union_sets(3, 4);
  std::vector<std::uint32_t> ids;
  const std::size_t k = uf.component_ids(ids);
  EXPECT_EQ(k, 4u);
  EXPECT_EQ(ids[0], ids[2]);
  EXPECT_EQ(ids[3], ids[4]);
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_NE(ids[0], ids[3]);
  for (std::uint32_t id : ids) EXPECT_LT(id, k);
}

TEST(UnionFind, FindNeverChangesMembership) {
  // Path halving must not alter which set an element belongs to.
  UnionFind uf(64);
  for (PointId i = 0; i < 32; ++i) uf.union_sets(i, i + 32);
  std::vector<PointId> before(64);
  for (PointId i = 0; i < 64; ++i) before[i] = uf.find(i);
  for (int rep = 0; rep < 3; ++rep)
    for (PointId i = 0; i < 64; ++i) EXPECT_EQ(uf.find(i), before[i]);
}

TEST(UnionFind, RandomizedAgainstNaiveReference) {
  // Property check: compare against a quadratic reference implementation on
  // random union sequences.
  const std::size_t n = 200;
  Rng rng(99);
  UnionFind uf(n);
  std::vector<std::uint32_t> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = static_cast<std::uint32_t>(i);

  for (int step = 0; step < 500; ++step) {
    const PointId a = static_cast<PointId>(rng.uniform_index(n));
    const PointId b = static_cast<PointId>(rng.uniform_index(n));
    uf.union_sets(a, b);
    const std::uint32_t keep = ref[a], kill = ref[b];
    if (keep != kill)
      for (auto& r : ref)
        if (r == kill) r = keep;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_EQ(uf.same(static_cast<PointId>(i), static_cast<PointId>(j)),
                ref[i] == ref[j])
          << i << "," << j;
    }
  }
}

TEST(UnionFind, LargeChainStaysShallowEnough) {
  // Union-by-rank keeps finds cheap even for adversarial chains; this is a
  // smoke guard, not a precise bound.
  const std::size_t n = 100000;
  UnionFind uf(n);
  for (PointId i = 0; i + 1 < n; ++i) uf.union_sets(i, i + 1);
  EXPECT_EQ(uf.count_components(), 1u);
  EXPECT_EQ(uf.find(0), uf.find(static_cast<PointId>(n - 1)));
}

TEST(UnionFind, ConstFindAgreesWithMutatingFind) {
  UnionFind uf(128);
  Rng rng(5);
  for (int step = 0; step < 200; ++step)
    uf.union_sets(static_cast<PointId>(rng.uniform_index(128)),
                  static_cast<PointId>(rng.uniform_index(128)));
  const UnionFind& cuf = uf;
  for (PointId i = 0; i < 128; ++i) {
    const PointId via_const = cuf.find(i);  // no compression
    EXPECT_EQ(via_const, uf.find(i)) << i;
    EXPECT_EQ(cuf.find(i), via_const) << i;  // compression didn't move roots
  }
}

TEST(UnionFind, RootIsComponentMinimum) {
  // The CAS-link rule (larger root points at smaller) makes the final
  // representative of every component its minimum element — the property the
  // parallel engine relies on to compare partitions across thread counts.
  const std::size_t n = 500;
  Rng rng(11);
  UnionFind uf(n);
  std::vector<std::uint32_t> ref(n);
  for (std::size_t i = 0; i < n; ++i) ref[i] = static_cast<std::uint32_t>(i);
  for (int step = 0; step < 800; ++step) {
    const PointId a = static_cast<PointId>(rng.uniform_index(n));
    const PointId b = static_cast<PointId>(rng.uniform_index(n));
    uf.union_sets(a, b);
    const std::uint32_t keep = ref[a], kill = ref[b];
    if (keep != kill)
      for (auto& r : ref)
        if (r == kill) r = keep;
  }
  std::vector<PointId> min_of(n);
  for (std::size_t i = 0; i < n; ++i) min_of[i] = static_cast<PointId>(n);
  for (std::size_t i = 0; i < n; ++i)
    min_of[ref[i]] = std::min(min_of[ref[i]], static_cast<PointId>(i));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(uf.find(static_cast<PointId>(i)), min_of[ref[i]]) << i;
}

TEST(UnionFind, ConcurrentStressMatchesSequentialReplay) {
  // Randomized lock-free stress: apply the same edge list sequentially and
  // concurrently (threads striding over the list, so unions interleave
  // heavily) and require identical find() values everywhere — valid because
  // representatives are component minima under any interleaving. Run under
  // TSan in CI to also certify the absence of data races.
  const std::size_t n = 20000;
  const std::size_t m = 60000;
  Rng rng(2024);
  std::vector<std::pair<PointId, PointId>> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i)
    edges.emplace_back(static_cast<PointId>(rng.uniform_index(n)),
                       static_cast<PointId>(rng.uniform_index(n)));

  UnionFind seq(n);
  for (const auto& [a, b] : edges) seq.union_sets(a, b);

  for (const unsigned nt : {2u, 4u, 8u}) {
    UnionFind par(n);
    ThreadPool pool(nt);
    pool.run([&](unsigned tid) {
      for (std::size_t i = tid; i < edges.size(); i += nt)
        par.union_sets(edges[i].first, edges[i].second);
    });
    const UnionFind& cpar = par;
    EXPECT_EQ(cpar.count_components(), seq.count_components()) << nt;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(cpar.find(static_cast<PointId>(i)),
                seq.find(static_cast<PointId>(i)))
          << "threads=" << nt << " i=" << i;
    }
  }
}

TEST(UnionFind, ConcurrentFindsDuringUnionsStayConsistent) {
  // Readers racing writers: concurrent find() must always return an element
  // of the caller's component (an ancestor), never corrupt the structure.
  const std::size_t n = 4096;
  UnionFind uf(n);
  ThreadPool pool(4);
  pool.run([&](unsigned tid) {
    if (tid == 0) {
      for (PointId i = 0; i + 1 < n; ++i) uf.union_sets(i, i + 1);
    } else {
      Rng rng(100 + tid);
      for (int step = 0; step < 20000; ++step) {
        const PointId x = static_cast<PointId>(rng.uniform_index(n));
        const PointId r = uf.find(x);
        ASSERT_LE(r, x);  // links always point to smaller indices
      }
    }
  });
  EXPECT_EQ(uf.count_components(), 1u);
  for (PointId i = 0; i < n; ++i) ASSERT_EQ(uf.find(i), 0u);
}

TEST(UnionFind, ForwardPassLabelsMatchTheRootMapAfterConcurrentUnions) {
  // Unions and path-halving finds race under the pool. At quiescence every
  // parent must precede its child, and the one-pass labels must equal the
  // root-keyed map definition they replaced: component ids in order of first
  // appearance, and extract_labels numbering clusters by first non-noise
  // point.
  const std::size_t n = 12000;
  Rng rng(77);
  std::vector<std::pair<PointId, PointId>> edges;
  for (std::size_t i = 0; i < 2 * n / 3; ++i)
    edges.emplace_back(static_cast<PointId>(rng.uniform_index(n)),
                       static_cast<PointId>(rng.uniform_index(n)));
  std::vector<std::uint8_t> is_core(n), assigned(n);
  for (std::size_t i = 0; i < n; ++i) {
    is_core[i] = rng.uniform_index(3) == 0;
    assigned[i] = rng.uniform_index(2) == 0;
  }
  for (const unsigned nt : {1u, 4u}) {
    UnionFind uf(n);
    ThreadPool pool(nt);
    pool.run([&](unsigned tid) {
      Rng local(300 + tid);
      for (std::size_t i = tid; i < edges.size(); i += nt) {
        uf.union_sets(edges[i].first, edges[i].second);
        (void)uf.find(static_cast<PointId>(local.uniform_index(n)));
      }
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_LE(uf.parent(static_cast<PointId>(i)), i) << nt;

    const UnionFind& cuf = uf;
    std::vector<std::uint32_t> ids;
    const std::size_t k = cuf.component_ids(ids);
    std::unordered_map<PointId, std::uint32_t> comp_of_root;
    for (std::size_t i = 0; i < n; ++i) {
      const auto [it, fresh] = comp_of_root.try_emplace(
          cuf.find(static_cast<PointId>(i)),
          static_cast<std::uint32_t>(comp_of_root.size()));
      ASSERT_EQ(ids[i], it->second) << "threads=" << nt << " i=" << i;
    }
    EXPECT_EQ(k, comp_of_root.size());

    const ClusteringResult res = extract_labels(cuf, is_core, assigned);
    std::unordered_map<PointId, std::int64_t> label_of_root;
    for (std::size_t i = 0; i < n; ++i) {
      std::int64_t want = kNoise;
      if (is_core[i] || assigned[i])
        want = label_of_root
                   .try_emplace(cuf.find(static_cast<PointId>(i)),
                                static_cast<std::int64_t>(label_of_root.size()))
                   .first->second;
      ASSERT_EQ(res.label[i], want) << "threads=" << nt << " i=" << i;
    }
    EXPECT_EQ(res.is_core, is_core);
  }
}

TEST(UnionFind, EmptyStructure) {
  UnionFind uf(0);
  EXPECT_EQ(uf.size(), 0u);
  EXPECT_EQ(uf.count_components(), 0u);
  std::vector<std::uint32_t> ids;
  EXPECT_EQ(uf.component_ids(ids), 0u);
}

}  // namespace
}  // namespace udb
