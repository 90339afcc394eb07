// Merge-strategy ablation (DESIGN.md §4 "micro"): all-gathered pair replay
// vs the paper's distributed union-find ([19], Patwary et al.) for the
// global resolution step of the merge. Labels are identical by construction
// (tested); this bench shows the cost profile of each across rank counts —
// the all-gather broadcasts the pair list to everyone, the distributed UF
// keeps per-rank state but pays synchronous pointer-chasing rounds.

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "data/named.hpp"
#include "dist/mudbscan_d.hpp"

using namespace udb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.5);
  const auto rank_list = cli.get_int_list("ranks", {4, 8, 16});
  const std::string name = cli.get_string("dataset", "FOF");
  cli.check_unused();

  bench::header("Ablation — merge global-resolution strategy",
                "µDBSCAN paper, Section V-C / reference [19] (engineering "
                "ablation, no table)",
                "times are full µDBSCAN-D makespans; merge column isolates "
                "the merge phase");

  NamedDataset nd = make_named_dataset(name, scale);
  bench::row("dataset %s (n = %zu, eps = %.3g, MinPts = %u)", nd.name.c_str(),
             nd.data.size(), nd.params.eps, nd.params.min_pts);
  bench::row("%6s %-22s | %10s %10s %8s %8s", "ranks", "strategy", "total(s)",
             "merge(s)", "edges", "pairs");
  bench::rule();

  for (auto r : rank_list) {
    for (auto strategy : {MergeStrategy::AllGatherPairs,
                          MergeStrategy::DistributedUnionFind}) {
      MuDbscanDStats st;
      DistConfig cfg;
      cfg.merge_strategy = strategy;
      (void)mudbscan_d(nd.data, nd.params, static_cast<int>(r), &st, cfg);
      bench::row("%6lld %-22s | %10.3f %10.3f %8llu %8llu",
                 static_cast<long long>(r),
                 strategy == MergeStrategy::AllGatherPairs
                     ? "allgather-pairs"
                     : "distributed-uf",
                 st.total(), st.t_merge,
                 static_cast<unsigned long long>(st.cross_edges),
                 static_cast<unsigned long long>(st.union_pairs));
    }
  }
  bench::rule();
  bench::row("both strategies produce identical labels (tested); the "
             "distributed UF avoids broadcasting the pair list");
  return 0;
}
