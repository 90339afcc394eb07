// Table II: run-time comparison of µDBSCAN against the sequential baselines
// (R-DBSCAN, G-DBSCAN, GridDBSCAN) on the eight dataset analogs, plus the
// number of micro-clusters and the fraction of neighborhood queries saved.
//
// Expected shape (paper): µDBSCAN fastest on every dataset; G-DBSCAN
// collapses on sparse data (DGB) and competes on dense high-dim data;
// GridDBSCAN struggles at higher dimensionality; query saves span a wide
// range with FOF/KDDB/3DSRN at the top and DGB at the bottom.

#include <sstream>
#include <stdexcept>

#include "baselines/g_dbscan.hpp"
#include "baselines/grid_dbscan.hpp"
#include "baselines/r_dbscan.hpp"
#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/vfs.hpp"
#include "common/timer.hpp"
#include "core/mudbscan.hpp"
#include "data/named.hpp"
#include "metrics/exactness.hpp"

using namespace udb;

namespace {

struct Table2Row {
  std::string name;
  std::size_t n = 0;
  std::size_t dim = 0;
  double eps = 0.0;
  std::uint32_t min_pts = 0;
  double t_r = 0.0, t_g = -1.0, t_grid = 0.0, t_mu = 0.0;
  std::size_t num_mcs = 0;
  double save_fraction = 0.0;
  bool exact = true;
  std::string metrics_json;  // µDBSCAN-run metrics snapshot embed
  std::string layers_json;   // µDBSCAN-run layer seconds
};

void write_json(const std::string& path, double scale,
                const std::vector<Table2Row>& rows) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"table2_sequential\",\n  \"scale\": " << scale
      << ",\n  \"datasets\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Table2Row& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"n\": " << r.n
        << ", \"dim\": " << r.dim << ", \"eps\": " << r.eps
        << ", \"min_pts\": " << r.min_pts
        << ",\n     \"rdbscan_seconds\": " << r.t_r;
    if (r.t_g >= 0.0) out << ", \"gdbscan_seconds\": " << r.t_g;
    out << ", \"griddbscan_seconds\": " << r.t_grid
        << ", \"mudbscan_seconds\": " << r.t_mu
        << ",\n     \"num_mcs\": " << r.num_mcs
        << ", \"query_save_fraction\": " << r.save_fraction
        << ", \"exact\": " << (r.exact ? "true" : "false")
        << ",\n     \"layers\": " << r.layers_json
        << ",\n     \"metrics\": " << r.metrics_json << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  const Status st = vfs::write_text_file(path, out.str());
  if (!st.ok()) throw std::runtime_error(st.to_string());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);
  const bool skip_slow = cli.get_bool("skip-slow", false);
  const std::string out_path = cli.get_string("out", "");
  cli.check_unused();

  bench::header(
      "Table II — sequential run time (seconds), #MCs, % queries saved",
      "µDBSCAN paper, Table II",
      "datasets are scaled synthetic analogs (see DESIGN.md §2); expect the "
      "ordering and the query-save spread to match the paper, not absolute "
      "seconds");

  const std::vector<std::string> names{"3DSRN", "DGB",   "HHP",    "MPAGB",
                                       "FOF",   "MPAGD", "KDDB14", "KDDB24"};

  bench::row("%-10s %7s %3s %8s %3s | %10s %10s %10s %10s | %8s %7s %6s",
             "dataset", "n", "d", "eps", "mp", "R-DBSCAN", "G-DBSCAN",
             "GridDBSCAN", "uDBSCAN", "#MCs", "save%", "exact");
  bench::rule();

  std::vector<Table2Row> json_rows;
  for (const auto& name : names) {
    NamedDataset nd = make_named_dataset(name, scale);
    const Dataset& ds = nd.data;

    WallTimer t;
    const auto r_res = r_dbscan(ds, nd.params);
    const double t_r = t.seconds();

    double t_g = -1.0;
    ClusteringResult g_res;
    if (!skip_slow) {
      t.reset();
      g_res = g_dbscan(ds, nd.params);
      t_g = t.seconds();
    }

    t.reset();
    const auto grid_res = grid_dbscan(ds, nd.params);
    const double t_grid = t.seconds();

    t.reset();
    MuDbscanStats st;
    obs::MetricsRegistry mu_metrics;
    obs::Tracer mu_tracer;
    MuDbscanConfig mu_cfg;
    mu_cfg.metrics = &mu_metrics;
    mu_cfg.tracer = &mu_tracer;
    const auto mu_res = mu_dbscan(ds, nd.params, &st, mu_cfg);
    const double t_mu = t.seconds();

    // Cross-check exactness across all four algorithms on the bench data.
    bool exact = compare_exact(r_res, mu_res).exact() &&
                 compare_exact(r_res, grid_res).exact();
    if (t_g >= 0.0) exact = exact && compare_exact(r_res, g_res).exact();

    char gbuf[32];
    if (t_g >= 0.0)
      std::snprintf(gbuf, sizeof gbuf, "%10.2f", t_g);
    else
      std::snprintf(gbuf, sizeof gbuf, "%10s", "skipped");

    bench::row("%-10s %7zu %3zu %8.3g %3u | %10.2f %s %10.2f %10.2f | %8zu "
               "%6.1f%% %6s",
               nd.name.c_str(), ds.size(), ds.dim(), nd.params.eps,
               nd.params.min_pts, t_r, gbuf, t_grid, t_mu, st.num_mcs,
               100.0 * st.query_save_fraction(ds.size()),
               exact ? "yes" : "NO!");

    Table2Row jr;
    jr.name = nd.name;
    jr.n = ds.size();
    jr.dim = ds.dim();
    jr.eps = nd.params.eps;
    jr.min_pts = nd.params.min_pts;
    jr.t_r = t_r;
    jr.t_g = t_g;
    jr.t_grid = t_grid;
    jr.t_mu = t_mu;
    jr.num_mcs = st.num_mcs;
    jr.save_fraction = st.query_save_fraction(ds.size());
    jr.exact = exact;
    jr.metrics_json = bench::metrics_json_object(
        mu_metrics.snapshot(), static_cast<std::uint64_t>(ds.size()));
    jr.layers_json = bench::layers_json_object(bench::layer_seconds(mu_tracer));
    json_rows.push_back(std::move(jr));
  }

  bench::rule();
  bench::row("paper Table II: uDBSCAN fastest everywhere; query saves "
             "43.6%%-96.6%%; #MCs << n");
  if (!out_path.empty()) {
    write_json(out_path, scale, json_rows);
    bench::row("json written to %s", out_path.c_str());
  }
  return 0;
}
