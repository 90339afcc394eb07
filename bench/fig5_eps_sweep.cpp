// Fig. 5: effect of varying eps on the run time of PDSDBSCAN-D,
// GridDBSCAN-D (grid stand-in) and µDBSCAN-D on the MPAGD100M and FOF56M
// analogs.
//
// Expected shape: µDBSCAN-D lowest at every eps; its % increase with eps is
// far milder than PDSDBSCAN-D's (larger eps means more micro-cluster saves,
// with post-processing growing instead); the grid baseline's time falls with
// eps (fewer, fuller cells).

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "data/named.hpp"
#include "dist/hpdbscan_d.hpp"
#include "dist/mudbscan_d.hpp"
#include "dist/pdsdbscan_d.hpp"

using namespace udb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);
  const int ranks = static_cast<int>(cli.get_int("ranks", 16));
  const auto factors = cli.get_double_list("factors", {0.5, 1.0, 1.5, 2.0, 3.0});
  cli.check_unused();

  bench::header("Fig. 5 — run time vs eps (virtual-time makespan, seconds)",
                "µDBSCAN paper, Fig. 5 (a) MPAGD100M, (b) FOF56M",
                "eps swept as multiples of each dataset's base eps");

  for (const auto& name : {std::string("MPAGD100M"), std::string("FOF56M")}) {
    NamedDataset nd = make_named_dataset(name, scale);
    bench::row("");
    bench::row("dataset %s (n = %zu, base eps = %.3g), ranks = %d",
               nd.name.c_str(), nd.data.size(), nd.params.eps, ranks);
    bench::row("%8s | %12s %12s %12s %8s", "eps", "PDSDBSCAN-D", "GridDBSCAN~",
               "uDBSCAN-D", "save%");
    bench::rule();
    for (double f : factors) {
      DbscanParams prm = nd.params;
      prm.eps *= f;
      MuDbscanDStats pds_st;
      (void)pdsdbscan_d(nd.data, prm, ranks, &pds_st);
      MuDbscanDStats hpd_st;
      (void)hpdbscan_d(nd.data, prm, ranks, &hpd_st);
      MuDbscanDStats mu_st;
      (void)mudbscan_d(nd.data, prm, ranks, &mu_st);
      const double save =
          100.0 * (1.0 - static_cast<double>(mu_st.queries_performed) /
                             static_cast<double>(nd.data.size()));
      bench::row("%8.3g | %12.2f %12.2f %12.2f %7.1f%%", prm.eps,
                 pds_st.total(), hpd_st.total(), mu_st.total(), save);
    }
  }

  bench::rule();
  bench::row("paper Fig. 5: uDBSCAN-D consistently lowest; its runtime grows "
             "far slower with eps than PDSDBSCAN-D");
  return 0;
}
