// Shared helpers for the table/figure bench binaries: uniform ASCII table
// output and a standard header explaining the scaled-reproduction context.

#pragma once

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace udb::bench {

inline void header(const char* experiment, const char* paper_ref,
                   const char* note) {
  std::printf("==========================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  if (note && note[0]) std::printf("Note: %s\n", note);
  std::printf("==========================================================\n");
}

// printf-style row helper so bench code stays table-shaped.
inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

inline void rule() {
  std::printf("----------------------------------------------------------\n");
}

// Serializes a metrics snapshot as a self-contained JSON object (the same
// shape as the run report's ledger/murtree/counters/histograms sections), for
// embedding into the BENCH_*.json files. `points` sizes the ledger's
// query_savings denominator.
inline std::string metrics_json_object(const obs::MetricsSnapshot& snap,
                                       std::uint64_t points) {
  obs::JsonWriter w;
  w.begin_object();
  obs::write_metrics_snapshot(w, snap, points);
  w.end_object();
  return w.str();
}

// The fit's layers: the µR-tree build spans and the algorithm spans, named
// as in docs/OBSERVABILITY.md, in pipeline order.
inline constexpr const char* kFitLayers[] = {
    "build.assign",     "build.aux_trees",         "build.inner_circles",
    "build.reachable",  "alg4.process_mcs",        "alg6.process_rem_points",
    "alg7.post_core",   "alg8.post_noise"};

// Seconds per fit layer: the durations of the tracer's spans of that name,
// summed (a tracer that saw one fit holds one span of each).
inline std::vector<double> layer_seconds(const obs::Tracer& tracer) {
  std::vector<double> secs(std::size(kFitLayers), 0.0);
  for (const obs::TraceEvent& e : tracer.events())
    for (std::size_t i = 0; i < secs.size(); ++i)
      if (std::string_view(e.name) == kFitLayers[i])
        secs[i] += static_cast<double>(e.dur_ns) * 1e-9;
  return secs;
}

// The "layers" object of a BENCH_*.json row: layer name -> seconds.
inline std::string layers_json_object(const std::vector<double>& secs) {
  obs::JsonWriter w;
  w.begin_object();
  for (std::size_t i = 0; i < secs.size(); ++i) {
    w.key(kFitLayers[i]);
    w.value(secs[i]);
  }
  w.end_object();
  return w.str();
}

}  // namespace udb::bench
