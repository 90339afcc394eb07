// udbscan — command-line clustering tool over the library's public API.
//
//   $ udbscan --input points.csv --eps 1.5 --minpts 5 --out labels.csv
//   $ udbscan --input points.bin --algo rdbscan --eps 2 --minpts 4
//   $ udbscan --input points.csv --algo mudbscan-d --ranks 8 ...
//   $ udbscan --input big.bin --mem-budget-mb 2048 --on-budget degrade
//   $ udbscan --input big.bin --deadline-ms 60000 --on-budget fail
//
// Input: CSV (one point per line) or the UDB1 binary format (autodetected by
// extension .bin). Output: one line per point, "label,is_core" (label -1 is
// noise), preceded by a '#' header. Prints a summary to stdout.
//
// Algorithms: mudbscan (default), rdbscan, gdbscan, griddbscan, brute,
// mudbscan-d (simulated ranks, see --ranks).
//
// Run governance (docs/ROBUSTNESS.md): --deadline-ms and --mem-budget-mb arm
// a RunGuard; for the guarded algorithms (mudbscan, mudbscan-d) a tripped
// limit either fails cleanly (--on-budget fail, the default; exit 3) or falls
// back to sampled approximate DBSCAN (--on-budget degrade, the result is
// flagged APPROXIMATE in the summary and the label file header). Ctrl-C trips
// the cancellation token: the run stops at the next cooperative checkpoint
// and exits with code 4 (a second Ctrl-C force-kills). --quarantine skips
// malformed input rows (reported) instead of failing on the first one.
//
// Observability (docs/OBSERVABILITY.md): --trace-out writes a Chrome
// trace_event JSON of the run's spans (load into Perfetto), --metrics-out
// writes the structured run report (query-avoidance ledger, µR-tree
// internals, histograms, per-rank comm stats), --log-level raises/lowers the
// stderr structured-log threshold (default warn).
//
// Serving handoff (docs/SERVING.md): --snapshot-out persists the fitted
// model (dataset + params + exact labels/core flags + run report) as a
// checksummed UDBM snapshot that udbscan_serve / --snapshot-in can reload
// without re-clustering. --snapshot-in answers classify queries offline from
// such a snapshot:
//
//   $ udbscan --input pts.bin --eps 2 --minpts 5 --snapshot-out model.udbm
//   $ udbscan --snapshot-in model.udbm --classify queries.csv --out ans.csv
//
// The classify output format ("label,kind,exact_match,would_be_core,
// neighbors") is byte-identical to udbscan_query's, so CI diffs served
// answers against this offline recompute.
//
// Exit codes: 0 ok (including a degraded/approximate result), 1 usage or
// input error, 2 missing required flags, 3 deadline/budget exceeded under
// --on-budget fail, 4 cancelled.

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "baselines/brute_dbscan.hpp"
#include "baselines/g_dbscan.hpp"
#include "baselines/grid_dbscan.hpp"
#include "baselines/r_dbscan.hpp"
#include "common/cli.hpp"
#include "common/io.hpp"
#include "common/runguard.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"
#include "common/vfs.hpp"
#include "core/guarded_run.hpp"
#include "core/kdist.hpp"
#include "core/mudbscan.hpp"
#include "dist/mudbscan_d.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serve/classify_csv.hpp"
#include "serve/model.hpp"
#include "serve/snapshot.hpp"

using namespace udb;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int exit_code_for(const Status& s) {
  switch (s.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return 3;
    case StatusCode::kCancelled:
      return 4;
    default:
      return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Owned here (not in the guarded run) so the SIGINT handler can reach it
  // for the whole lifetime of the process.
  static RunGuard guard;
  try {
    Cli cli(argc, argv);
    const std::string input = cli.get_string("input", "");
    const std::string algo = cli.get_string("algo", "mudbscan");
    const std::string out_path = cli.get_string("out", "");
    const double eps = cli.get_positive_double("eps", 1.0);
    const auto min_pts = static_cast<std::uint32_t>(
        cli.get_int_in_range("minpts", 5, 1, 0xFFFFFFFFll));
    const int ranks =
        static_cast<int>(cli.get_int_in_range("ranks", 8, 1, 4096));
    const std::int64_t threads_raw =
        cli.get_int_in_range("threads", 1, 1, 1024);
    const bool suggest = cli.get_bool("suggest-eps", false);
    const bool quarantine = cli.get_bool("quarantine", false);
    const std::int64_t deadline_ms =
        cli.get_int_at_least("deadline-ms", 0, 0);
    const std::int64_t budget_mb =
        cli.get_int_at_least("mem-budget-mb", 0, 0);
    const std::string on_budget_str = cli.get_string("on-budget", "fail");
    const std::string trace_out = cli.get_string("trace-out", "");
    const std::string metrics_out = cli.get_string("metrics-out", "");
    const std::string log_level_str = cli.get_string("log-level", "");
    const std::string snapshot_out = cli.get_string("snapshot-out", "");
    const std::string snapshot_in = cli.get_string("snapshot-in", "");
    const std::string classify_path = cli.get_string("classify", "");
    cli.check_unused();

    if (!log_level_str.empty()) {
      auto lvl = obs::parse_log_level(log_level_str);
      if (!lvl.ok())
        throw std::invalid_argument("--log-level: " +
                                    lvl.status().to_string());
      obs::set_log_level(lvl.value());
    }

    // ---- snapshot serving path: no clustering, answers come from the
    // persisted model (docs/SERVING.md).
    if (!snapshot_in.empty()) {
      if (!snapshot_out.empty())
        throw std::invalid_argument(
            "--snapshot-in and --snapshot-out are mutually exclusive");
      auto loaded_snap = serve::load_model(snapshot_in);
      if (!loaded_snap.ok()) {
        std::fprintf(stderr, "udbscan: error: %s\n",
                     loaded_snap.status().to_string().c_str());
        return 1;
      }
      auto model = serve::ClusterModel::build(std::move(*loaded_snap));
      if (!model.ok()) {
        std::fprintf(stderr, "udbscan: error: %s\n",
                     model.status().to_string().c_str());
        return 1;
      }
      const serve::ClusterModel& m = **model;
      std::printf(
          "model %s: %zu points, %zu dims, eps %g, minpts %u, %zu clusters\n",
          snapshot_in.c_str(), m.size(), m.dim(), m.params().eps,
          m.params().min_pts, m.num_clusters());
      if (classify_path.empty()) return 0;

      ReadOptions qopts;
      qopts.quarantine = quarantine;
      ReadReport qrep;
      auto queries = ends_with(classify_path, ".bin")
                         ? load_binary(classify_path, qopts, &qrep)
                         : load_csv(classify_path, qopts, &qrep);
      if (!queries.ok()) {
        std::fprintf(stderr, "udbscan: error: %s\n",
                     queries.status().to_string().c_str());
        return 1;
      }
      if (queries->dim() != m.dim())
        throw std::invalid_argument(
            "--classify: query dim " + std::to_string(queries->dim()) +
            " does not match model dim " + std::to_string(m.dim()));
      auto answers = m.classify_batch(queries->raw(), queries->size());
      if (!answers.ok()) {
        std::fprintf(stderr, "udbscan: error: %s\n",
                     answers.status().to_string().c_str());
        return 1;
      }
      std::size_t exact = 0;
      for (const serve::Classify& c : *answers) exact += c.exact_match ? 1 : 0;
      std::printf("classified %zu queries (%zu exact matches) without "
                  "re-clustering\n",
                  answers->size(), exact);
      if (!out_path.empty()) {
        std::ostringstream out;
        out << serve::kClassifyCsvHeader << '\n';
        for (const serve::Classify& c : *answers)
          out << serve::classify_csv_row(c) << '\n';
        Status ws = vfs::write_text_file(out_path, out.str());
        if (!ws.ok()) throw StatusError(std::move(ws));
        std::printf("answers written to %s\n", out_path.c_str());
      }
      return 0;
    }
    if (!classify_path.empty())
      throw std::invalid_argument("--classify requires --snapshot-in");

    if (threads_raw > 1 && algo != "mudbscan")
      throw std::invalid_argument(
          "--threads > 1 is only supported by --algo mudbscan (got --algo " +
          algo + ")");
    OnBudget on_budget = OnBudget::kFail;
    if (on_budget_str == "degrade") {
      on_budget = OnBudget::kDegrade;
    } else if (on_budget_str != "fail") {
      throw std::invalid_argument("--on-budget must be 'fail' or 'degrade'");
    }
    const bool guarded = deadline_ms > 0 || budget_mb > 0;
    if (guarded && algo != "mudbscan" && algo != "mudbscan-d")
      throw std::invalid_argument(
          "--deadline-ms/--mem-budget-mb require --algo mudbscan or "
          "mudbscan-d (got --algo " + algo + ")");

    if (input.empty()) {
      std::fprintf(stderr,
                   "usage: udbscan --input points.csv [--algo mudbscan|"
                   "rdbscan|gdbscan|griddbscan|brute|mudbscan-d] "
                   "[--eps E] [--minpts M] [--threads T] [--ranks P] "
                   "[--deadline-ms MS] [--mem-budget-mb MB] "
                   "[--on-budget fail|degrade] [--quarantine] "
                   "[--trace-out trace.json] [--metrics-out report.json] "
                   "[--log-level debug|info|warn|error|off] "
                   "[--snapshot-out model.udbm] [--out labels.csv]\n"
                   "       udbscan --snapshot-in model.udbm "
                   "[--classify queries.csv --out answers.csv]\n");
      return 2;
    }

    ReadOptions ropts;
    ropts.quarantine = quarantine;
    ReadReport rrep;
    auto loaded = ends_with(input, ".bin") ? load_binary(input, ropts, &rrep)
                                           : load_csv(input, ropts, &rrep);
    if (!loaded.ok()) {
      std::fprintf(stderr, "udbscan: error: %s\n",
                   loaded.status().to_string().c_str());
      return 1;
    }
    const Dataset data = std::move(loaded).value();
    const DbscanParams params{eps, min_pts};
    std::printf("loaded %zu points, %zu dims from %s\n", data.size(),
                data.dim(), input.c_str());
    if (rrep.rows_skipped > 0)
      std::printf("quarantined %zu malformed rows\n", rrep.rows_skipped);

    if (suggest) {
      const double rec = suggest_eps(data, min_pts > 1 ? min_pts - 1 : 1);
      std::printf("k-dist knee suggests eps ~= %g for MinPts = %u\n", rec,
                  min_pts);
      return 0;
    }

    // Ctrl-C trips the cancel token; the run stops at the next cooperative
    // checkpoint. Installed even without limits so every guarded run is
    // interruptible.
    install_sigint_cancel(&guard);

    // Observability sinks: spans go to `tracer` (null = fully inert), and
    // the run report is assembled in `report` as the run unfolds.
    obs::Tracer tracer;
    obs::Tracer* tracer_ptr = trace_out.empty() ? nullptr : &tracer;
    obs::RunReportInputs report;
    report.algo = algo;
    report.n = data.size();
    report.dim = data.dim();
    report.eps = eps;
    report.min_pts = min_pts;
    report.threads = static_cast<unsigned>(threads_raw);
    report.ranks = algo == "mudbscan-d" ? ranks : 1;

    WallTimer timer;
    ClusteringResult result;
    MuDbscanStats mu_stats;
    obs::MetricsRegistry baseline_metrics;  // for the non-guarded algorithms
    bool approximate = false;
    if (algo == "mudbscan" || algo == "mudbscan-d") {
      GuardedRunOptions opts;
      opts.limits.deadline_seconds =
          static_cast<double>(deadline_ms) / 1000.0;
      opts.limits.memory_budget_bytes =
          static_cast<std::size_t>(budget_mb) * 1024 * 1024;
      opts.on_budget = on_budget;
      opts.mu.num_threads = static_cast<unsigned>(threads_raw);
      opts.mu.tracer = tracer_ptr;
      opts.ranks = algo == "mudbscan-d" ? ranks : 1;
      auto run = run_guarded(data, params, opts, &guard);
      if (!run.ok()) {
        std::fprintf(stderr, "udbscan: error: %s\n",
                     run.status().to_string().c_str());
        return exit_code_for(run.status());
      }
      GuardedRunReport rep = std::move(run).value();
      result = std::move(rep.result);
      mu_stats = rep.stats;
      approximate = rep.approximate;
      if (rep.approximate)
        std::printf(
            "APPROXIMATE result: exact run abandoned (%s); sampled fallback "
            "with rho = %g (%zu sample points)\n",
            rep.degrade_reason.to_string().c_str(), rep.sample_rho,
            rep.sample_size);
      if (budget_mb > 0)
        std::printf("guarded memory peak: %.1f MB of %lld MB budget\n",
                    static_cast<double>(rep.mem_peak_bytes) / (1024.0 * 1024.0),
                    static_cast<long long>(budget_mb));
      report.approximate = rep.approximate;
      report.metrics = std::move(rep.metrics);
      for (const auto& w : rep.workers)
        report.workers.push_back({w.busy_seconds, w.jobs});
      report.has_guard = true;
      report.mem_peak_bytes = rep.mem_peak_bytes;
      report.mem_budget_bytes = opts.limits.memory_budget_bytes;
      report.deadline_seconds = opts.limits.deadline_seconds;
      report.guard_checkpoints = rep.guard_checkpoints;
      if (algo == "mudbscan-d") {
        const MuDbscanDStats& d = rep.dist_stats;
        report.phases = {{"partition", d.t_partition}, {"halo", d.t_halo},
                         {"build_tree", d.t_tree},     {"find_reachable", d.t_reach},
                         {"cluster", d.t_cluster},     {"post_process", d.t_post},
                         {"merge", d.t_merge}};
        for (const MuDbscanDRank& r : d.ranks) {
          obs::RunReportInputs::Rank out;
          out.rank = r.rank;
          out.n_local = r.n_local;
          out.n_halo = r.n_halo;
          out.t_partition = r.t_partition;
          out.t_halo = r.t_halo;
          out.t_local = r.t_tree + r.t_reach + r.t_cluster + r.t_post;
          out.t_merge = r.t_merge;
          out.queries_performed = r.queries_performed;
          out.msgs_sent = r.comm.msgs_sent;
          out.bytes_sent = r.comm.bytes_sent;
          out.msgs_recv = r.comm.msgs_recv;
          out.bytes_recv = r.comm.bytes_recv;
          out.retries = r.comm.retries;
          out.timeouts = r.comm.timeouts;
          report.rank_stats.push_back(out);
        }
      } else if (!approximate) {
        report.phases = {{"build_tree", mu_stats.t_tree},
                         {"find_reachable", mu_stats.t_reach},
                         {"cluster", mu_stats.t_cluster},
                         {"post_process", mu_stats.t_post}};
      }
    } else if (algo == "rdbscan") {
      result = r_dbscan(data, params, nullptr, &baseline_metrics);
    } else if (algo == "gdbscan") {
      result = g_dbscan(data, params, nullptr, &baseline_metrics);
    } else if (algo == "griddbscan") {
      result = grid_dbscan(data, params, nullptr, &baseline_metrics);
    } else if (algo == "brute") {
      result = brute_dbscan(data, params, &baseline_metrics);
    } else {
      throw std::invalid_argument("unknown --algo " + algo);
    }
    const double elapsed = timer.seconds();
    if (algo != "mudbscan" && algo != "mudbscan-d")
      report.metrics = baseline_metrics.snapshot();
    report.seconds = elapsed;

    std::printf("%s: %.3f s — %zu clusters, %zu core, %zu border, %zu noise\n",
                algo.c_str(), elapsed, result.num_clusters(),
                result.num_core(), result.num_border(), result.num_noise());
    if (algo == "mudbscan" && !approximate) {
      std::printf("micro-clusters: %zu, queries saved: %.1f%%\n",
                  mu_stats.num_mcs,
                  100.0 * mu_stats.query_save_fraction(data.size()));
    }
    if (!trace_out.empty()) {
      Status ts = tracer.write_chrome_trace(trace_out);
      if (!ts.ok()) {
        std::fprintf(stderr, "udbscan: error: %s\n", ts.to_string().c_str());
        return 1;
      }
      std::printf("trace written to %s (%zu spans)\n", trace_out.c_str(),
                  tracer.events().size());
    }
    if (!metrics_out.empty()) {
      Status ms = obs::write_run_report(report, metrics_out);
      if (!ms.ok()) {
        std::fprintf(stderr, "udbscan: error: %s\n", ms.to_string().c_str());
        return 1;
      }
      std::printf("run report written to %s\n", metrics_out.c_str());
    }

    if (!snapshot_out.empty()) {
      if (approximate) {
        // A sampled fallback is not the exact clustering; persisting it
        // would let a serving layer answer with approximate labels that
        // claim exactness. Refuse loudly.
        std::fprintf(stderr,
                     "udbscan: error: refusing --snapshot-out for an "
                     "APPROXIMATE (degraded) result\n");
        return 1;
      }
      serve::ModelSnapshot snap;
      snap.data = data;
      snap.params = params;
      snap.result = result;
      snap.report_json = obs::run_report_json(report);
      Status ss = serve::save_model(snap, snapshot_out);
      if (!ss.ok()) {
        std::fprintf(stderr, "udbscan: error: %s\n", ss.to_string().c_str());
        return 1;
      }
      std::printf("model snapshot written to %s\n", snapshot_out.c_str());
    }

    if (!out_path.empty()) {
      std::ostringstream out;
      out << "# label,is_core (label -1 = noise)"
          << (approximate ? " — APPROXIMATE (sampled fallback)" : "") << '\n';
      for (std::size_t i = 0; i < result.size(); ++i)
        out << result.label[i] << ','
            << static_cast<int>(result.is_core[i]) << '\n';
      Status ws = vfs::write_text_file(out_path, out.str());
      if (!ws.ok()) throw StatusError(std::move(ws));
      std::printf("labels written to %s\n", out_path.c_str());
    }
    return 0;
  } catch (const StatusError& e) {
    std::fprintf(stderr, "udbscan: error: %s\n", e.what());
    return exit_code_for(e.status());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "udbscan: error: %s\n", e.what());
    return 1;
  }
}
