// benchdiff — the perf regression gate: compares a fresh bench JSON artifact
// against the committed baseline (BENCH_serve.json / BENCH_kernel.json /
// BENCH_multicore.json / BENCH_update.json / BENCH_table2.json) with
// per-metric tolerances, so CI can fail a PR that quietly slows the serving
// path or the SIMD kernels, or changes the engine's work.
//
//   $ benchdiff --baseline BENCH_serve.json --fresh build/serve.json
//   $ benchdiff --baseline BENCH_kernel.json --fresh f.json --speedup-tolerance 0.30
//
// The comparator dispatches on the artifact's "bench" field:
//
//   serve_throughput  every phase's qps must be >= baseline * (1 - tol),
//                     tol --qps-tolerance (default 0.10); the serve ledger
//                     invariant must hold in the fresh run. Latency deltas
//                     are reported but not gated (they follow qps).
//   micro_kernel      every (dim, block, target) SIMD speedup must be
//                     >= baseline * (1 - tol), tol --speedup-tolerance
//                     (default 0.25 — kernel microbenches are noisy).
//   ext_multicore     correctness gate, not a timing gate: every thread
//                     count must stay exact vs sequential and the per-dataset
//                     query ledger (performed / avoided) must match the
//                     baseline bit-for-bit — the counts are deterministic, so
//                     any drift means the algorithm changed.
//   table2_sequential correctness gate at one scale: every fresh dataset
//                     row must report exact=true, and its deterministic
//                     µDBSCAN counts (n, num_mcs, queries performed /
//                     avoided, union calls, provisional noise) must match
//                     the baseline bit-for-bit. Timings are reported only.
//   update_throughput every workload's speedup_vs_refit must be
//                     >= baseline * (1 - tol), tol --speedup-tolerance; its
//                     updates_per_sec must be >= the baseline workload's
//                     absolute updates_per_sec_floor (the ratio alone moves
//                     with the batch refit it divides by); and every fresh
//                     workload must report exact=true (the incremental
//                     engine's answer matched the canonicalized batch
//                     refit).
//
// Exit codes, distinct per failure class so CI can branch without parsing:
//   0  comparable and within tolerance
//   1  regression (a gated metric fell outside tolerance)
//   2  bad arguments / unreadable file / JSON parse error
//   4  artifacts are not comparable (different bench, config, or shape) —
//      the gate is meaningless, which is different from a regression

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/vfs.hpp"

using namespace udb;

namespace {

// Outcome severity, ordered so we can keep the worst one seen.
enum class Outcome { kPass = 0, kRegression = 1, kIncomparable = 4 };

struct Gate {
  Outcome worst = Outcome::kPass;
  void note(Outcome o) {
    if (static_cast<int>(o) > static_cast<int>(worst)) worst = o;
  }
};

json::Value load(const std::string& path) {
  auto bytes = vfs::read_file(path);
  if (!bytes.ok())
    throw std::invalid_argument(path + ": " + bytes.status().to_string());
  json::Value doc;
  const std::string text(bytes->begin(), bytes->end());
  if (Status st = json::parse(text, doc); !st.ok())
    throw std::invalid_argument(path + ": " + st.to_string());
  return doc;
}

double num(const json::Value& v, const char* path, bool& ok) {
  const json::Value* f = v.find_path(path);
  if (f == nullptr || !f->is_number()) {
    ok = false;
    return 0.0;
  }
  return f->number;
}

// Config comparability: the named scalar fields must match exactly (numbers,
// bools, or strings). A mismatch makes the whole diff meaningless.
bool same_config(const json::Value& a, const json::Value& b,
                 const std::vector<const char*>& keys) {
  for (const char* key : keys) {
    const json::Value* x = a.find(key);
    const json::Value* y = b.find(key);
    if ((x == nullptr) != (y == nullptr)) return false;
    if (x == nullptr) continue;
    if (x->kind != y->kind) return false;
    if (x->is_number() && x->number != y->number) return false;
    if (x->is_bool() && x->boolean != y->boolean) return false;
    if (x->is_string() && x->string != y->string) return false;
  }
  return true;
}

// The element of array `arr` whose "name" field equals `name`, or null.
const json::Value* find_named(const json::Value& arr, const std::string& name) {
  for (const json::Value& cand : arr.array) {
    const json::Value* n = cand.find("name");
    if (n != nullptr && n->is_string() && n->string == name) return &cand;
  }
  return nullptr;
}

double pct(double base, double fresh) {
  return base == 0.0 ? 0.0 : 100.0 * (fresh - base) / base;
}

// ---- serve_throughput -----------------------------------------------------

void diff_serve(const json::Value& base, const json::Value& fresh,
                double qps_tol, Gate& gate) {
  if (!same_config(base, fresh,
                   {"n", "dim", "eps", "min_pts", "clients", "quick"})) {
    std::printf("serve: bench configs differ (n/dim/eps/min_pts/clients/"
                "quick) — not comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  const json::Value* bp = base.find("phases");
  const json::Value* fp = fresh.find("phases");
  if (bp == nullptr || !bp->is_array() || fp == nullptr || !fp->is_array()) {
    std::printf("serve: missing phases array — not comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  for (const json::Value& bphase : bp->array) {
    const std::string name =
        bphase.find("name") ? bphase.find("name")->string_or("?") : "?";
    const json::Value* fphase = find_named(*fp, name);
    if (fphase == nullptr) {
      std::printf("serve: phase %-16s missing from fresh run — not "
                  "comparable\n",
                  name.c_str());
      gate.note(Outcome::kIncomparable);
      continue;
    }
    bool ok = true;
    const double bq = num(bphase, "qps", ok), fq = num(*fphase, "qps", ok);
    if (!ok) {
      std::printf("serve: phase %-16s missing qps — not comparable\n",
                  name.c_str());
      gate.note(Outcome::kIncomparable);
      continue;
    }
    const bool pass = fq >= bq * (1.0 - qps_tol);
    std::printf("serve: phase %-16s qps %10.1f -> %10.1f (%+6.1f%%, floor "
                "-%2.0f%%)  %s\n",
                name.c_str(), bq, fq, pct(bq, fq), qps_tol * 100.0,
                pass ? "ok" : "REGRESSION");
    if (!pass) gate.note(Outcome::kRegression);
    // Latency is reported, not gated: it tracks qps and load, and double
    // gating one slowdown would just double the flake rate.
    bool lat_ok = true;
    const double bp99 = num(bphase, "p99_us", lat_ok);
    const double fp99 = num(*fphase, "p99_us", lat_ok);
    if (lat_ok)
      std::printf("serve: phase %-16s p99 %9.0fus -> %8.0fus (%+6.1f%%, "
                  "informational)\n",
                  name.c_str(), bp99, fp99, pct(bp99, fp99));
  }
  // The exactness ledger must hold in the fresh run — a perf PR that breaks
  // the performed+avoided bookkeeping is a correctness regression.
  const json::Value* holds = fresh.find_path("serve_ledger.holds");
  if (holds == nullptr || !holds->is_bool() || !holds->boolean) {
    std::printf("serve: fresh serve_ledger invariant does not hold  "
                "REGRESSION\n");
    gate.note(Outcome::kRegression);
  }
}

// ---- micro_kernel ---------------------------------------------------------

void diff_kernel(const json::Value& base, const json::Value& fresh,
                 double speedup_tol, Gate& gate) {
  if (!same_config(base, fresh, {"selected_target"})) {
    std::printf("kernel: selected SIMD target differs — not comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  const json::Value* br = base.find("results");
  const json::Value* fr = fresh.find("results");
  if (br == nullptr || !br->is_array() || fr == nullptr || !fr->is_array()) {
    std::printf("kernel: missing results array — not comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  for (const json::Value& brow : br->array) {
    bool ok = true;
    const double dim = num(brow, "dim", ok), block = num(brow, "block", ok);
    const json::Value* frow = nullptr;
    for (const json::Value& cand : fr->array) {
      bool cok = true;
      if (num(cand, "dim", cok) == dim && num(cand, "block", cok) == block &&
          cok) {
        frow = &cand;
        break;
      }
    }
    if (!ok || frow == nullptr) {
      std::printf("kernel: row dim=%g block=%g missing from fresh run — not "
                  "comparable\n",
                  dim, block);
      gate.note(Outcome::kIncomparable);
      continue;
    }
    const json::Value* bt = brow.find("targets");
    const json::Value* ft = frow->find("targets");
    if (bt == nullptr || !bt->is_object() || ft == nullptr ||
        !ft->is_object()) {
      gate.note(Outcome::kIncomparable);
      continue;
    }
    for (const auto& [target, bval] : bt->object) {
      if (target == "scalar") continue;  // speedup 1 by construction
      const json::Value* fval = ft->find(target);
      if (fval == nullptr) continue;  // target not built here: skip, no gate
      bool sok = true;
      const double bs = num(bval, "speedup", sok);
      const double fs = num(*fval, "speedup", sok);
      if (!sok) continue;
      const bool pass = fs >= bs * (1.0 - speedup_tol);
      if (!pass || fs < bs)
        std::printf("kernel: dim=%-2g block=%-4g %-7s speedup %5.2fx -> "
                    "%5.2fx (%+6.1f%%, floor -%2.0f%%)  %s\n",
                    dim, block, target.c_str(), bs, fs, pct(bs, fs),
                    speedup_tol * 100.0, pass ? "ok" : "REGRESSION");
      if (!pass) gate.note(Outcome::kRegression);
    }
  }
}

// ---- ext_multicore --------------------------------------------------------

void diff_multicore(const json::Value& base, const json::Value& fresh,
                    Gate& gate) {
  if (!same_config(base, fresh, {"scale", "quick"})) {
    std::printf("multicore: bench configs differ (scale/quick) — not "
                "comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  const json::Value* bd = base.find("datasets");
  const json::Value* fd = fresh.find("datasets");
  if (bd == nullptr || !bd->is_array() || fd == nullptr || !fd->is_array()) {
    std::printf("multicore: missing datasets array — not comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  for (const json::Value& bds : bd->array) {
    const std::string name =
        bds.find("name") ? bds.find("name")->string_or("?") : "?";
    const json::Value* fds = find_named(*fd, name);
    if (fds == nullptr) {
      std::printf("multicore: dataset %-12s missing from fresh run — not "
                  "comparable\n",
                  name.c_str());
      gate.note(Outcome::kIncomparable);
      continue;
    }
    // Ledger equality: the query counts are deterministic per dataset, so
    // any drift means the algorithm (not the machine) changed.
    for (const char* key :
         {"metrics.query_ledger.queries_performed",
          "metrics.query_ledger.avoided_total", "n"}) {
      bool ok = true;
      const double bv = num(bds, key, ok), fv = num(*fds, key, ok);
      if (!ok || bv != fv) {
        std::printf("multicore: %-12s %s %12.0f -> %12.0f  REGRESSION\n",
                    name.c_str(), key, bv, fv);
        gate.note(Outcome::kRegression);
      }
    }
    // Exactness: every thread count must still match sequential exactly.
    const json::Value* rows = fds->find("rows");
    if (rows == nullptr || !rows->is_array()) {
      gate.note(Outcome::kIncomparable);
      continue;
    }
    for (const json::Value& row : rows->array) {
      const json::Value* exact = row.find("exact_vs_sequential");
      bool tok = true;
      const double threads = num(row, "threads", tok);
      if (exact == nullptr || !exact->is_bool() || !exact->boolean) {
        std::printf("multicore: %-12s threads=%g not exact vs sequential  "
                    "REGRESSION\n",
                    name.c_str(), threads);
        gate.note(Outcome::kRegression);
      }
    }
    std::printf("multicore: %-12s ledger and exactness checked  ok\n",
                name.c_str());
  }
}

// ---- table2_sequential ----------------------------------------------------

void diff_table2(const json::Value& base, const json::Value& fresh,
                 Gate& gate) {
  if (!same_config(base, fresh, {"scale"})) {
    std::printf("table2: bench scales differ — not comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  const json::Value* bd = base.find("datasets");
  const json::Value* fd = fresh.find("datasets");
  if (bd == nullptr || !bd->is_array() || fd == nullptr || !fd->is_array()) {
    std::printf("table2: missing datasets array — not comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  for (const json::Value& brow : bd->array) {
    const std::string name =
        brow.find("name") ? brow.find("name")->string_or("?") : "?";
    const json::Value* frow = find_named(*fd, name);
    if (frow == nullptr) {
      std::printf("table2: dataset %-9s missing from fresh run — not "
                  "comparable\n",
                  name.c_str());
      gate.note(Outcome::kIncomparable);
      continue;
    }
    const json::Value* exact = frow->find("exact");
    bool pass = exact != nullptr && exact->is_bool() && exact->boolean;
    if (!pass)
      std::printf("table2: %-9s fresh µDBSCAN run not exact  REGRESSION\n",
                  name.c_str());
    // The µDBSCAN counts are deterministic for a dataset and scale, so any
    // drift means the algorithm (not the machine) changed.
    for (const char* key :
         {"n", "num_mcs", "metrics.query_ledger.queries_performed",
          "metrics.query_ledger.avoided_total", "metrics.counters.union_calls",
          "metrics.counters.noise_provisional"}) {
      bool ok = true;
      const double bv = num(brow, key, ok), fv = num(*frow, key, ok);
      if (!ok || bv != fv) {
        std::printf("table2: %-9s %s %12.0f -> %12.0f  REGRESSION\n",
                    name.c_str(), key, bv, fv);
        pass = false;
      }
    }
    if (!pass) gate.note(Outcome::kRegression);
    // Timings are reported, not gated: the gate is the work, not the host.
    std::string timings;
    for (const char* algo : {"rdbscan", "gdbscan", "griddbscan", "mudbscan"}) {
      const std::string key = std::string(algo) + "_seconds";
      bool ok = true;
      const double bt = num(brow, key.c_str(), ok);
      const double ft = num(*frow, key.c_str(), ok);
      char buf[96];
      if (ok) {
        std::snprintf(buf, sizeof buf, " %s %.4f->%.4fs", algo, bt, ft);
        timings += buf;
      }
    }
    std::printf("table2: %-9s exactness and counts %s; informational:%s\n",
                name.c_str(), pass ? "ok" : "REGRESSION", timings.c_str());
  }
}

// ---- update_throughput ----------------------------------------------------

void diff_update(const json::Value& base, const json::Value& fresh,
                 double speedup_tol, Gate& gate) {
  if (!same_config(base, fresh,
                   {"n", "dim", "eps", "min_pts", "updates", "quick"})) {
    std::printf("update: bench configs differ (n/dim/eps/min_pts/updates/"
                "quick) — not comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  const json::Value* bw = base.find("workloads");
  const json::Value* fw = fresh.find("workloads");
  if (bw == nullptr || !bw->is_array() || fw == nullptr || !fw->is_array()) {
    std::printf("update: missing workloads array — not comparable\n");
    gate.note(Outcome::kIncomparable);
    return;
  }
  for (const json::Value& bwl : bw->array) {
    const std::string name =
        bwl.find("name") ? bwl.find("name")->string_or("?") : "?";
    const json::Value* fwl = find_named(*fw, name);
    if (fwl == nullptr) {
      std::printf("update: workload %-12s missing from fresh run — not "
                  "comparable\n",
                  name.c_str());
      gate.note(Outcome::kIncomparable);
      continue;
    }
    const json::Value* exact = fwl->find("exact");
    if (exact == nullptr || !exact->is_bool() || !exact->boolean) {
      std::printf("update: workload %-12s fresh run not exact vs batch refit"
                  "  REGRESSION\n",
                  name.c_str());
      gate.note(Outcome::kRegression);
    }
    bool ok = true;
    const double bs = num(bwl, "speedup_vs_refit", ok);
    const double fs = num(*fwl, "speedup_vs_refit", ok);
    if (!ok) {
      std::printf("update: workload %-12s missing speedup_vs_refit — not "
                  "comparable\n",
                  name.c_str());
      gate.note(Outcome::kIncomparable);
      continue;
    }
    const bool pass = fs >= bs * (1.0 - speedup_tol);
    std::printf("update: workload %-12s speedup %8.1fx -> %8.1fx (%+6.1f%%, "
                "floor -%2.0f%%)  %s\n",
                name.c_str(), bs, fs, pct(bs, fs), speedup_tol * 100.0,
                pass ? "ok" : "REGRESSION");
    if (!pass) gate.note(Outcome::kRegression);
    bool uok = true;
    const double bu = num(bwl, "updates_per_sec", uok);
    const double floor = num(bwl, "updates_per_sec_floor", uok);
    const double fu = num(*fwl, "updates_per_sec", uok);
    if (!uok) {
      std::printf("update: workload %-12s missing updates_per_sec or its "
                  "floor — not comparable\n",
                  name.c_str());
      gate.note(Outcome::kIncomparable);
      continue;
    }
    const bool above = fu >= floor;
    std::printf("update: workload %-12s updates/s %9.0f -> %9.0f (%+6.1f%%, "
                "floor %.0f)  %s\n",
                name.c_str(), bu, fu, pct(bu, fu), floor,
                above ? "ok" : "REGRESSION");
    if (!above) gate.note(Outcome::kRegression);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const std::string baseline_path = cli.get_string("baseline", "");
    const std::string fresh_path = cli.get_string("fresh", "");
    const double qps_tol = cli.get_positive_double("qps-tolerance", 0.10);
    const double speedup_tol =
        cli.get_positive_double("speedup-tolerance", 0.25);
    cli.check_unused();

    if (baseline_path.empty() || fresh_path.empty()) {
      std::fprintf(stderr,
                   "usage: benchdiff --baseline BENCH_x.json --fresh new.json "
                   "[--qps-tolerance 0.10] [--speedup-tolerance 0.25]\n");
      return 2;
    }

    const json::Value base = load(baseline_path);
    const json::Value fresh = load(fresh_path);
    const std::string bkind =
        base.find("bench") ? base.find("bench")->string_or("") : "";
    const std::string fkind =
        fresh.find("bench") ? fresh.find("bench")->string_or("") : "";
    if (bkind.empty() || bkind != fkind) {
      std::fprintf(stderr,
                   "benchdiff: bench kinds differ (baseline '%s' vs fresh "
                   "'%s') — not comparable\n",
                   bkind.c_str(), fkind.c_str());
      return 4;
    }

    Gate gate;
    if (bkind == "serve_throughput") {
      diff_serve(base, fresh, qps_tol, gate);
    } else if (bkind == "micro_kernel") {
      diff_kernel(base, fresh, speedup_tol, gate);
    } else if (bkind == "ext_multicore") {
      diff_multicore(base, fresh, gate);
    } else if (bkind == "update_throughput") {
      diff_update(base, fresh, speedup_tol, gate);
    } else if (bkind == "table2_sequential") {
      diff_table2(base, fresh, gate);
    } else {
      std::fprintf(stderr, "benchdiff: no comparator for bench '%s'\n",
                   bkind.c_str());
      return 4;
    }

    const bool pass = gate.worst == Outcome::kPass;
    std::printf("benchdiff: %s (%s vs %s)\n",
                pass ? "PASS"
                     : (gate.worst == Outcome::kRegression ? "REGRESSION"
                                                           : "INCOMPARABLE"),
                baseline_path.c_str(), fresh_path.c_str());
    return static_cast<int>(gate.worst);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "benchdiff: error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchdiff: error: %s\n", e.what());
    return 2;
  }
}
