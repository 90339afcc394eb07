// Micro benchmarks (google-benchmark): R-tree vs µR-tree construction and
// eps-query cost — the engineering claim behind Section IV-B1 (a two-level
// tree of small AuxR-trees beats one big R-tree on query time).

#include <benchmark/benchmark.h>

#include "core/murtree.hpp"
#include "data/generators.hpp"
#include "index/grid.hpp"
#include "index/rtree.hpp"

namespace {

using namespace udb;

Dataset bench_dataset(std::size_t n) {
  GalaxyConfig cfg;
  return gen_galaxy(n, cfg, 12345);
}

void BM_MuRTreeBuild(benchmark::State& state) {
  const Dataset ds = bench_dataset(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    MuRTree tree(ds, 1.0);
    benchmark::DoNotOptimize(tree.num_mcs());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.size()));
}
BENCHMARK(BM_MuRTreeBuild)->Arg(2000)->Arg(10000)->Arg(40000);

void BM_RTreeEpsQuery(benchmark::State& state) {
  const Dataset ds = bench_dataset(static_cast<std::size_t>(state.range(0)));
  const RTree tree = RTree::bulk_load_str(ds);
  std::vector<PointId> out;
  PointId q = 0;
  for (auto _ : state) {
    out.clear();
    tree.query_ball(ds.point(q), 1.0, out);
    benchmark::DoNotOptimize(out.size());
    q = static_cast<PointId>((q + 7919) % ds.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RTreeEpsQuery)->Arg(10000)->Arg(40000)->Arg(100000);

void BM_MuRTreeEpsQuery(benchmark::State& state) {
  const Dataset ds = bench_dataset(static_cast<std::size_t>(state.range(0)));
  MuRTree tree(ds, 1.0);
  tree.compute_reachable();
  std::vector<std::pair<PointId, double>> out;
  PointId q = 0;
  for (auto _ : state) {
    out.clear();
    tree.query_neighborhood(q, 1.0, out);
    benchmark::DoNotOptimize(out.size());
    q = static_cast<PointId>((q + 7919) % ds.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MuRTreeEpsQuery)->Arg(10000)->Arg(40000)->Arg(100000);

void BM_RTreeBulkLoadStr(benchmark::State& state) {
  const Dataset ds = bench_dataset(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const RTree tree = RTree::bulk_load_str(ds);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ds.size()));
}
BENCHMARK(BM_RTreeBulkLoadStr)->Arg(10000)->Arg(40000);

void BM_GridBuild(benchmark::State& state) {
  const Dataset ds = bench_dataset(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Grid grid(ds, 1.0);
    benchmark::DoNotOptimize(grid.num_cells());
  }
}
BENCHMARK(BM_GridBuild)->Arg(10000)->Arg(40000);

}  // namespace

BENCHMARK_MAIN();
