// Extension bench (paper Section VII): intra-node multicore µDBSCAN.
//
// Two complementary views, side by side:
//   * MEASURED — the real thread-parallel engine (MuDbscanConfig::num_threads,
//     shared µR-tree + lock-free union-find), wall-clock per thread count,
//     with an exactness check of every parallel run against the sequential
//     clustering (same core set / core partition / noise set).
//   * MODELED — µDBSCAN-SM, µDBSCAN-D's decomposition under a shared-memory
//     transfer model (alpha=100ns, ~20GB/s), plus the interconnect model at
//     the same rank counts, for comparison with the distributed chapter.
//
// Measured speedups depend on the machine: on a single hardware thread the
// parallel engine can only show overhead (the JSON records
// hardware_threads so downstream tooling can interpret the numbers).
// Emits machine-readable JSON with --out (default BENCH_multicore.json); each
// row carries the `layers` object of its final rep (bench::kFitLayers).

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/vfs.hpp"
#include "common/simd.hpp"
#include "common/timer.hpp"
#include "core/mudbscan.hpp"
#include "data/named.hpp"
#include "dist/mudbscan_sm.hpp"
#include "metrics/exactness.hpp"

using namespace udb;

namespace {

struct Row {
  long long threads = 1;
  double measured_s = 0.0;
  double speedup = 1.0;
  bool exact = true;
  double sm_model_s = 0.0;
  double d_model_s = 0.0;
  std::string layers_json;  // final rep's layer seconds
};

struct DatasetReport {
  std::string name;
  std::size_t n = 0;
  double seq_s = 0.0;
  std::string metrics_json;  // sequential-run metrics snapshot embed
  std::vector<Row> rows;
};

// Best-of-reps wall time for one configuration; returns the last result so
// the caller can check exactness and the final rep's layer seconds in
// `layers_json`. `metrics` (optional) receives the final rep's engine
// metrics.
double time_run(const NamedDataset& nd, unsigned threads, int reps,
                ClusteringResult& out, std::string& layers_json,
                obs::MetricsRegistry* metrics = nullptr) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    // Only the final rep feeds the embed and the layers, so they describe
    // one run.
    const bool last = r + 1 == reps;
    obs::Tracer tracer;
    MuDbscanConfig cfg;
    cfg.num_threads = threads;
    cfg.metrics = last ? metrics : nullptr;
    cfg.tracer = last ? &tracer : nullptr;
    WallTimer timer;
    out = mu_dbscan(nd.data, nd.params, nullptr, cfg);
    const double s = timer.seconds();
    if (r == 0 || s < best) best = s;
    if (last)
      layers_json = bench::layers_json_object(bench::layer_seconds(tracer));
  }
  return best;
}

void write_json(const std::string& path, double scale, bool quick, int reps,
                const std::vector<DatasetReport>& reports) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"ext_multicore\",\n"
      << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n"
      << "  \"simd_target\": \"" << simd_target_name(active_simd_target())
      << "\",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"datasets\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const DatasetReport& rep = reports[i];
    out << "    {\n"
        << "      \"name\": \"" << rep.name << "\",\n"
        << "      \"n\": " << rep.n << ",\n"
        << "      \"sequential_seconds\": " << rep.seq_s << ",\n"
        << "      \"metrics\": " << rep.metrics_json << ",\n"
        << "      \"rows\": [\n";
    for (std::size_t j = 0; j < rep.rows.size(); ++j) {
      const Row& r = rep.rows[j];
      out << "        {\"threads\": " << r.threads
          << ", \"measured_seconds\": " << r.measured_s
          << ", \"speedup\": " << r.speedup
          << ", \"exact_vs_sequential\": " << (r.exact ? "true" : "false")
          << ", \"sm_model_seconds\": " << r.sm_model_s
          << ", \"d_model_seconds\": " << r.d_model_s
          << ",\n         \"layers\": " << r.layers_json << "}"
          << (j + 1 < rep.rows.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  const Status st = vfs::write_text_file(path, out.str());
  if (!st.ok()) throw std::runtime_error(st.to_string());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick", false);
  const double scale = cli.get_double("scale", quick ? 0.1 : 1.0);
  const auto threads = cli.get_int_list("threads", {1, 2, 4, 8});
  const int reps = static_cast<int>(cli.get_int("reps", quick ? 1 : 3));
  const std::string out_path =
      cli.get_string("out", "BENCH_multicore.json");
  cli.check_unused();

  bench::header(
      "Extension — intra-node multicore µDBSCAN: measured and modeled",
      "µDBSCAN paper, Section VII future work (not a paper table)",
      "measured = real thread-parallel engine (shared µR-tree, lock-free "
      "union-find); modeled = µDBSCAN-SM/D cost models");
  bench::row("hardware threads: %u (oversubscribed thread counts remain "
             "exact; speedups need real cores)",
             std::thread::hardware_concurrency());

  std::vector<DatasetReport> reports;
  const std::vector<std::string> names{"MPAGD100M", "FOF56M"};
  for (const auto& name : names) {
    NamedDataset nd = make_named_dataset(name, scale);
    DatasetReport rep;
    rep.name = nd.name;
    rep.n = nd.data.size();

    ClusteringResult seq;
    obs::MetricsRegistry seq_metrics;
    std::string seq_layers;
    rep.seq_s = time_run(nd, 1, reps, seq, seq_layers, &seq_metrics);
    rep.metrics_json = bench::metrics_json_object(
        seq_metrics.snapshot(), static_cast<std::uint64_t>(nd.data.size()));

    bench::row("");
    bench::row("dataset %s (n = %zu), sequential engine: %.3f s",
               nd.name.c_str(), nd.data.size(), rep.seq_s);
    bench::row("%8s | %11s %8s %6s | %10s %10s", "threads", "measured(s)",
               "speedup", "exact", "SM-mdl(s)", "D-mdl(s)");
    bench::rule();
    for (auto t : threads) {
      if (t < 1) throw std::invalid_argument("--threads entries must be >= 1");
      Row row;
      row.threads = t;
      if (t == 1) {
        row.measured_s = rep.seq_s;
        row.exact = true;
        row.layers_json = seq_layers;
      } else {
        ClusteringResult got;
        row.measured_s = time_run(nd, static_cast<unsigned>(t), reps, got,
                                  row.layers_json);
        row.exact = compare_exact(seq, got).exact();
      }
      row.speedup = rep.seq_s / std::max(row.measured_s, 1e-12);

      MuDbscanDStats sm, d;
      (void)mudbscan_sm(nd.data, nd.params, static_cast<int>(t), &sm);
      (void)mudbscan_d(nd.data, nd.params, static_cast<int>(t), &d);
      row.sm_model_s = sm.total();
      row.d_model_s = d.total();

      bench::row("%8lld | %11.3f %7.2fx %6s | %10.3f %10.3f", row.threads,
                 row.measured_s, row.speedup, row.exact ? "yes" : "NO",
                 row.sm_model_s, row.d_model_s);
      if (!row.exact) {
        bench::row("EXACTNESS VIOLATION at %lld threads", row.threads);
        return 1;
      }
      rep.rows.push_back(row);
    }
    reports.push_back(std::move(rep));
  }
  bench::rule();

  if (!out_path.empty()) {
    write_json(out_path, scale, quick, reps, reports);
    bench::row("json written to %s", out_path.c_str());
  }
  return 0;
}
