// The three workloads. Each builds its inputs from the seed, sets up several
// times (setup_s is their median), checks exactness outside every timed
// window, then times one kind of operation for opt.seconds.

#pragma once

#include "common.hpp"

namespace perfbench {

// With opt.trace set, a workload alternates traced and untraced operations,
// records spans into `tracer` and returns per-layer metrics.
RunResult run_fit(const Options& opt, Tracer& tracer);     // fit_galaxy3d
RunResult run_update(const Options& opt, Tracer& tracer);  // update_churn
RunResult run_serve(const Options& opt, Tracer& tracer);   // serve_classify

// Peak resident set size of this process so far.
double peak_rss_mb();

}  // namespace perfbench
