// Shared pieces of the benchmark: run options, the metric record a workload
// hands back, quantiles, and the span recorder the traced run wraps the
// library's public calls in.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/dataset.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Development used seeds 1..20; claims must also hold on this one.
inline constexpr std::uint64_t kHeldOutSeed = 20261017;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // run records and span files are written here
};

struct Metric {
  Metric(std::string n, double v, std::string u, std::size_t count = 0,
         std::string what = "")
      : name(std::move(n)), value(v), unit(std::move(u)), samples(count),
        over(std::move(what)) {}

  std::string name;
  double value;
  std::string unit;
  std::size_t samples;  // population the value is taken from
  std::string over;     // which operations that population holds
};

struct RunResult {
  // End-to-end metrics (trace off) or per-layer metrics (trace on).
  std::vector<Metric> metrics;
  // Op-kind figures printed beside the end-to-end metrics.
  std::vector<Metric> extra;
  // Config, as preformatted JSON values keyed by name.
  std::vector<std::pair<std::string, std::string>> config;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few mismatch descriptions

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// 0..n-1 in order.
std::vector<udb::PointId> identity_order(std::size_t n);

// A permutation of 0..n-1 drawn from `seed`.
std::vector<udb::PointId> shuffled_order(std::size_t n, std::uint64_t seed);

// `order` rearranged so that cells of side `cell` follow the Morton curve;
// points within a cell keep their order in `order`. Workloads lay points out
// this way, as a spatially sorted file stores them: in a random layout most
// of an operation's time is cache misses, and it follows the shared host's
// memory traffic rather than the code.
std::vector<udb::PointId> z_order(const udb::Dataset& ds, double cell,
                                  std::vector<udb::PointId> order);

// The cell side the workloads pass to z_order, in units of eps.
inline constexpr double kCellEps = 2.0;

// The points of `ds` in an order drawn from `seed`. Workloads keep each
// dataset's structure fixed and let the seed choose order, stream and queries.
udb::Dataset shuffled(const udb::Dataset& ds, std::uint64_t seed);

std::string json_number(double v);
std::string json_string(const std::string& s);

// Spans recorded by the benchmark around public library calls: name, start,
// end, parent span, trace id. Kept in memory and written at the end.
struct SpanRecord {
  const char* name;
  std::uint64_t trace_id;
  std::int32_t parent;  // index into the span list, -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Tracer {
 public:
  Tracer();
  std::int32_t open(const char* name, std::uint64_t trace_id);
  void close(std::int32_t idx);
  [[nodiscard]] double duration_s(std::int32_t idx) const {
    const SpanRecord& s = spans_[static_cast<std::size_t>(idx)];
    return 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  }

  // Chrome trace_event JSON; returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

  // Per span name: count, total and self time (duration minus the time its
  // direct children cover), and each name's self time as a share of the
  // time covered by root spans.
  void print_layer_table(const std::string& title) const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

// RAII span. A null tracer records nothing, which is how the end-to-end runs
// call the same code with the wrappers off.
class Span {
 public:
  Span(Tracer* t, const char* name, std::uint64_t trace_id = 0)
      : t_(t), idx_(t ? t->open(name, trace_id) : -1) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Closes the span; returns its duration in seconds (0 when untraced).
  double end() {
    if (t_ == nullptr) return 0.0;
    t_->close(idx_);
    const double d = t_->duration_s(idx_);
    t_ = nullptr;
    return d;
  }

 private:
  Tracer* t_;
  std::int32_t idx_;
};

}  // namespace perfbench
