#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "common/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

std::vector<udb::PointId> identity_order(std::size_t n) {
  std::vector<udb::PointId> order(n);
  std::iota(order.begin(), order.end(), udb::PointId{0});
  return order;
}

std::vector<udb::PointId> shuffled_order(std::size_t n, std::uint64_t seed) {
  std::vector<udb::PointId> order = identity_order(n);
  udb::Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  return order;
}

std::vector<udb::PointId> z_order(const udb::Dataset& ds, double cell,
                                  std::vector<udb::PointId> order) {
  const std::size_t dim = ds.dim();
  const auto bits = static_cast<unsigned>(63 / dim);
  const double top = std::ldexp(1.0, static_cast<int>(bits)) - 1.0;
  std::vector<double> lo(dim, std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < ds.size(); ++i)
    for (std::size_t k = 0; k < dim; ++k)
      lo[k] = std::min(lo[k], ds.ptr(static_cast<udb::PointId>(i))[k]);
  std::vector<std::pair<std::uint64_t, udb::PointId>> keyed(order.size());
  std::vector<std::uint64_t> c(dim);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const double* p = ds.ptr(order[i]);
    for (std::size_t k = 0; k < dim; ++k)
      c[k] = static_cast<std::uint64_t>(
          std::min(top, std::floor((p[k] - lo[k]) / cell)));
    std::uint64_t key = 0;
    for (unsigned b = bits; b-- > 0;)
      for (std::size_t k = 0; k < dim; ++k) key = (key << 1) | ((c[k] >> b) & 1);
    keyed[i] = {key, order[i]};
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  return order;
}

udb::Dataset shuffled(const udb::Dataset& ds, std::uint64_t seed) {
  return ds.select(shuffled_order(ds.size(), seed));
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

Tracer::Tracer() : epoch_(Clock::now()) {
  // Reserved up front so a timed span never pays for a reallocation.
  spans_.reserve(1u << 20);
  stack_.reserve(64);
}

std::int32_t Tracer::open(const char* name, std::uint64_t trace_id) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  if (trace_id == 0 && parent >= 0)
    trace_id = spans_[static_cast<std::size_t>(parent)].trace_id;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back({name, trace_id, parent, 0, 0});
  stack_.push_back(idx);
  spans_.back().start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  return idx;
}

void Tracer::close(std::int32_t idx) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count();
  spans_[static_cast<std::size_t>(idx)].end_ns = now;
  if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"trace_id\":%llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                 static_cast<int>(s.parent),
                 static_cast<unsigned long long>(s.trace_id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Tracer::print_layer_table(const std::string& title) const {
  struct Row {
    std::size_t order = 0;
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child_time(spans_.size(), 0.0);
  double root_total = 0.0;
  for (const SpanRecord& s : spans_) {
    const double d = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] += d;
    else
      root_total += d;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double d = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    auto [it, fresh] = rows.try_emplace(s.name);
    if (fresh) it->second.order = rows.size();
    it->second.count += 1;
    it->second.total += d;
    it->second.self += d - child_time[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.order < b.second.order;
  });
  std::printf("layer table: %s (%zu spans, %.3f s under root spans)\n",
              title.c_str(), spans_.size(), root_total);
  std::printf("  %-26s %8s %12s %12s %12s %8s\n", "span", "count", "total_s",
              "self_s", "self/call_us", "share");
  for (const auto& [name, r] : sorted)
    std::printf("  %-26s %8zu %12.6f %12.6f %12.3f %7.2f%%\n", name.c_str(),
                r.count, r.total, r.self,
                1e6 * r.self / static_cast<double>(r.count),
                root_total > 0.0 ? 100.0 * r.self / root_total : 0.0);
}

}  // namespace perfbench
