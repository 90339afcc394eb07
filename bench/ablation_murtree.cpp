// Ablation bench (not a paper table — DESIGN.md §4 "micro"): quantifies each
// µDBSCAN design choice by toggling it off:
//   * 2*eps MC-limiting rule (Algorithm 3)
//   * dynamic wndq promotion (Algorithm 6 lines 18-21)
//   * reachable-MC MBR filtration (Section IV-B2)
// All variants remain exact (tested in test_mudbscan.cpp); this bench shows
// what each buys in time, queries and distance evaluations.

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/timer.hpp"
#include "core/mudbscan.hpp"
#include "data/named.hpp"

using namespace udb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 0.5);
  const std::string name = cli.get_string("dataset", "MPAGD");
  cli.check_unused();

  bench::header("Ablation — µDBSCAN design choices toggled individually",
                "engineering ablation for DESIGN.md §4 (not a paper table)",
                "every variant still produces exact DBSCAN clustering");

  NamedDataset nd = make_named_dataset(name, scale);
  bench::row("dataset %s (n = %zu, d = %zu, eps = %.3g, MinPts = %u)",
             nd.name.c_str(), nd.data.size(), nd.data.dim(), nd.params.eps,
             nd.params.min_pts);
  bench::row("%-28s | %9s %9s %9s %12s", "variant", "time(s)", "#MCs",
             "queries", "save%");
  bench::rule();

  struct Variant {
    const char* label;
    MuDbscanConfig cfg;
  };
  MuDbscanConfig full, no2eps, nopromo, nofilt, none;
  no2eps.two_eps_rule = false;
  nopromo.dynamic_promotion = false;
  nofilt.mbr_filtration = false;
  none.two_eps_rule = false;
  none.dynamic_promotion = false;
  none.mbr_filtration = false;

  const Variant variants[] = {
      {"full (paper algorithm)", full},
      {"no 2*eps rule", no2eps},
      {"no dynamic promotion", nopromo},
      {"no MBR filtration", nofilt},
      {"all optimizations off", none},
  };

  for (const auto& v : variants) {
    WallTimer t;
    MuDbscanStats st;
    (void)mu_dbscan(nd.data, nd.params, &st, v.cfg);
    bench::row("%-28s | %9.3f %9zu %9llu %11.1f%%", v.label, t.seconds(),
               st.num_mcs,
               static_cast<unsigned long long>(st.queries_performed),
               100.0 * st.query_save_fraction(nd.data.size()));
  }

  bench::rule();
  return 0;
}
