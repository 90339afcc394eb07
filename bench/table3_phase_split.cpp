// Table III: percentage split-up of µDBSCAN's execution time across its four
// steps (µR-tree construction, finding reachable groups, clustering, post
// core & noise processing) on the four datasets the paper reports.
//
// Expected shape: tree construction is a large share on 3-D galaxy data;
// post-processing dominates when the query-save fraction is high (3DSRN,
// KDDB14) because wndq-core points shift work into Algorithm 7.
//
// A second table splits each run by layer (the build.* and alg* spans of
// docs/OBSERVABILITY.md); --out writes both, per dataset, as JSON.

#include <sstream>
#include <stdexcept>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/vfs.hpp"
#include "core/mudbscan.hpp"
#include "data/named.hpp"

using namespace udb;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const double scale = cli.get_double("scale", 1.0);
  const std::string out_path = cli.get_string("out", "");
  cli.check_unused();

  bench::header("Table III — % split-up of µDBSCAN step times",
                "µDBSCAN paper, Table III",
                "high query-save datasets shift time into post-processing");

  const std::vector<std::string> names{"3DSRN", "DGB", "MPAGB", "KDDB14"};

  bench::row("%-10s | %8s %8s %10s %8s | %9s %7s", "dataset", "tree%",
             "reach%", "clustering%", "post%", "total(s)", "save%");
  bench::rule();

  std::vector<std::vector<double>> layers;
  std::ostringstream json;
  json << "{\n  \"bench\": \"table3_phase_split\",\n  \"scale\": " << scale
       << ",\n  \"datasets\": [\n";
  for (const auto& name : names) {
    NamedDataset nd = make_named_dataset(name, scale);
    MuDbscanStats st;
    obs::Tracer tracer;
    MuDbscanConfig cfg;
    cfg.tracer = &tracer;
    (void)mu_dbscan(nd.data, nd.params, &st, cfg);
    const double total = st.total();
    bench::row("%-10s | %7.2f%% %7.2f%% %9.2f%% %7.2f%% | %9.2f %6.1f%%",
               nd.name.c_str(), 100.0 * st.t_tree / total,
               100.0 * st.t_reach / total, 100.0 * st.t_cluster / total,
               100.0 * st.t_post / total, total,
               100.0 * st.query_save_fraction(nd.data.size()));
    layers.push_back(bench::layer_seconds(tracer));
    json << "    {\"name\": \"" << nd.name << "\", \"n\": " << nd.data.size()
         << ", \"tree_seconds\": " << st.t_tree
         << ", \"reach_seconds\": " << st.t_reach
         << ", \"cluster_seconds\": " << st.t_cluster
         << ", \"post_seconds\": " << st.t_post
         << ",\n     \"layers\": " << bench::layers_json_object(layers.back())
         << "}" << (layers.size() < names.size() ? "," : "") << "\n";
  }

  bench::rule();
  bench::row("paper Table III: tree 0.7-31%%, reach 0-28%%, clustering "
             "2.6-15%%, post 36-97%%");

  // Per-layer split of the same runs, in ms.
  std::string head = "layer (ms)             ";
  for (const auto& name : names) {
    char cell[32];
    std::snprintf(cell, sizeof cell, " | %10s", name.c_str());
    head += cell;
  }
  bench::row("%s", head.c_str());
  bench::rule();
  for (std::size_t l = 0; l < std::size(bench::kFitLayers); ++l) {
    std::string line = bench::kFitLayers[l];
    line.resize(23, ' ');
    for (const auto& secs : layers) {
      char cell[32];
      std::snprintf(cell, sizeof cell, " | %10.2f", 1e3 * secs[l]);
      line += cell;
    }
    bench::row("%s", line.c_str());
  }
  bench::rule();

  if (!out_path.empty()) {
    json << "  ]\n}\n";
    const Status st = vfs::write_text_file(out_path, json.str());
    if (!st.ok()) {
      std::fprintf(stderr, "table3_phase_split: %s\n", st.to_string().c_str());
      return 1;
    }
    bench::row("json written to %s", out_path.c_str());
  }
  return 0;
}
