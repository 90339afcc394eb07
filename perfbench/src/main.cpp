// perfbench: times the library's public entry points from outside.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   perfbench --selftest
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. The lines before it give the run's config and the op-kind
// figures; the same record is written to DIR. Exit status is 0 only when
// every checked output was exact.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "common/simd.hpp"
#include "common/sysinfo.hpp"
#include "common.hpp"
#include "selftest.hpp"
#include "workloads.hpp"

namespace perfbench {

// VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it would
// report the launching Python process's peak.
double peak_rss_mb() {
  return static_cast<double>(udb::peak_rss_bytes()) / (1024.0 * 1024.0);
}

namespace {

// Per-layer metrics every traced run prints, in BENCHMARK.json's order; a
// layer a workload does not drive reads 0 there.
const std::vector<std::pair<const char*, const char*>>& per_layer_metrics() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"phase.build_tree_s", "s"},
      {"phase.find_reachable_s", "s"},
      {"phase.cluster_s", "s"},
      {"phase.post_process_s", "s"},
      {"phase.extract_result_s", "s"},
      {"murtree.num_mcs", "count"},
      {"murtree.deferred_points", "count"},
      {"murtree.aux_trees_searched", "count"},
      {"index.rtree_node_visits", "count"},
      {"index.rtree_distance_evals", "count"},
      {"simd.kernel_blocks", "count"},
      {"simd.kernel_tail_points", "count"},
      {"simd.computed_bytes", "B"},
      {"simd.ops_per_byte", "ops/B"},
      {"engine.queries_performed", "count"},
      {"engine.query_savings", "ratio"},
      {"engine.wndq_core_points", "count"},
      {"unionfind.union_calls", "count"},
      {"unionfind.post_core_distance_evals", "count"},
      {"parallel.busy_s", "s"},
      {"parallel.efficiency", "ratio"},
      {"parallel.speedup_vs_1t", "ratio"},
      {"incremental.insert_mcs_touched_mean", "count"},
      {"incremental.erase_mcs_touched_mean", "count"},
      {"incremental.erase_mcs_touched_max", "count"},
      {"incremental.graph_edges_repaired", "count"},
      {"incremental.full_fallbacks", "count"},
      {"incremental.result_ms", "ms"},
      {"serve.classify_exact_us", "us"},
      {"serve.classify_search_us", "us"},
      {"serve.codec_us", "us"},
      {"serve.wire_us", "us"},
      {"serve.exact_match_ratio", "ratio"},
      {"client.gen_late_us", "us"},
      {"trace.overhead_ms", "ms"},
  };
  return names;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fit_galaxy3d|update_churn|"
               "serve_classify --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n       perfbench --selftest\n");
}

std::string metrics_object(const std::vector<Metric>& ms, bool detail) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    out += (i ? ", " : "") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (detail && m.samples > 0)
      out += ", \"samples\": " + std::to_string(m.samples) +
             ", \"over\": " + json_string(m.over);
    out += "}";
  }
  return out + "}";
}

// Puts the per-layer metrics in their published order, with 0 for a layer
// this workload does not drive.
std::vector<Metric> all_layers(const std::vector<Metric>& got) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : got) by_name.insert_or_assign(m.name, m);
  std::vector<Metric> out;
  for (const auto& [name, unit] : per_layer_metrics()) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      out.push_back({name, 0.0, unit});
      continue;
    }
    if (it->second.unit != unit) {
      std::fprintf(stderr, "metric %s has unit %s, published as %s\n", name,
                   it->second.unit.c_str(), unit);
      std::exit(70);
    }
    out.push_back(it->second);
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    std::fprintf(stderr, "unpublished per-layer metric %s\n",
                 by_name.begin()->first.c_str());
    std::exit(70);
  }
  return out;
}

int run(const Options& opt) {
  Tracer tracer;
  RunResult r;
  if (opt.workload == "fit_galaxy3d")
    r = run_fit(opt, tracer);
  else if (opt.workload == "update_churn")
    r = run_update(opt, tracer);
  else if (opt.workload == "serve_classify")
    r = run_serve(opt, tracer);
  else {
    usage();
    return 2;
  }
  if (opt.trace) r.metrics = all_layers(r.metrics);

  std::string config = "{\"workload\": " + json_string(opt.workload) +
                       ", \"seed\": " + std::to_string(opt.seed) +
                       ", \"heldout_seed\": " + std::to_string(kHeldOutSeed) +
                       ", \"seconds\": " + json_number(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "1" : "0") +
                       ", \"simd_target\": " +
                       json_string(udb::simd_target_name(
                           udb::active_simd_target()));
  for (const auto& [k, v] : r.config)
    config += ", " + json_string(k) + ": " + v;
  config += "}";
  const double error_rate =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);

  if (opt.trace) {
    tracer.print_layer_table(opt.workload);
    if (!opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/trace-" + opt.workload +
                               "-seed" + std::to_string(opt.seed) + ".json";
      if (!tracer.write_chrome(path))
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  for (const std::string& f : r.failures)
    std::fprintf(stderr, "MISMATCH: %s\n", f.c_str());

  const std::string extra = metrics_object(r.extra, true);
  std::printf("config %s\n", config.c_str());
  std::printf("extra %s\n", extra.c_str());
  std::printf("error_rate %s (%llu failed / %llu attempted)\n",
              json_number(error_rate).c_str(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/run-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"config\": %s,\n \"metrics\": %s,\n \"extra\": %s,\n "
                   "\"attempted\": %llu, \"failed\": %llu, \"error_rate\": "
                   "%s}\n",
                   config.c_str(), metrics_object(r.metrics, true).c_str(),
                   extra.c_str(), static_cast<unsigned long long>(r.attempted),
                   static_cast<unsigned long long>(r.failed),
                   json_number(error_rate).c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_object(r.metrics, false).c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest();
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds > 0.0)) {
        usage();
        return 2;
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage();
        return 2;
      }
      opt.trace = v[0] == '1';
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || !have_seed) {
    usage();
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
