// Tests for the observability runtime (src/obs/): metrics registry sharding
// and merge determinism, concurrent increment/snapshot safety (run under TSan
// in CI), span nesting/ordering invariants, the disabled-mode zero-allocation
// guarantees promised by the obs headers, and the run-report JSON schema
// (golden key set — breaking changes must bump schema_version).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/runguard.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "mpi/minimpi.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter. This test binary replaces operator new/delete
// with counting forwarders so the disabled-mode zero-allocation contracts in
// obs/trace.hpp ("fully inert") and obs/log.hpp ("allocates nothing") are
// actually enforced, not just documented.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};
}  // namespace

// The replacements below back ::operator new with malloc/posix_memalign, so
// operator delete correctly forwards to free; GCC's pairing heuristic cannot
// see that and warns at unrelated call sites.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t sz) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz != 0 ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void* operator new(std::size_t sz, std::align_val_t al) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      std::max(sizeof(void*), static_cast<std::size_t>(al));
  void* p = nullptr;
  if (posix_memalign(&p, align, sz != 0 ? sz : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz, std::align_val_t al) {
  return ::operator new(sz, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace udb {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry.
// ---------------------------------------------------------------------------

TEST(Metrics, CountersAndHistogramsBasics) {
  obs::MetricsRegistry reg;
  reg.add(obs::Counter::kQueriesPerformed);
  reg.add(obs::Counter::kQueriesPerformed, 4);
  reg.add(obs::Counter::kUnionCalls, 7);
  reg.observe(obs::Hist::kNeighborCount, 5);
  reg.observe(obs::Hist::kNeighborCount, 3);
  reg.observe(obs::Hist::kNeighborCount, 9);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kQueriesPerformed), 5u);
  EXPECT_EQ(snap.counter(obs::Counter::kUnionCalls), 7u);
  EXPECT_EQ(snap.counter(obs::Counter::kMcDense), 0u);

  const obs::HistSnapshot& h = snap.hist(obs::Hist::kNeighborCount);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 17u);
  EXPECT_EQ(h.min, 3u);
  EXPECT_EQ(h.max, 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 17.0 / 3.0);

  const obs::HistSnapshot& empty = snap.hist(obs::Hist::kMcSize);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.min, UINT64_MAX);
  EXPECT_EQ(empty.max, 0u);
}

TEST(Metrics, HistBucketPlacement) {
  // Bucket 0 holds value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(obs::hist_bucket(0), 0u);
  EXPECT_EQ(obs::hist_bucket(1), 1u);
  EXPECT_EQ(obs::hist_bucket(2), 2u);
  EXPECT_EQ(obs::hist_bucket(3), 2u);
  EXPECT_EQ(obs::hist_bucket(4), 3u);
  EXPECT_EQ(obs::hist_bucket(8), 4u);
  EXPECT_EQ(obs::hist_bucket(UINT64_MAX), 64u);

  obs::MetricsRegistry reg;
  reg.observe(obs::Hist::kMcSize, 0);
  reg.observe(obs::Hist::kMcSize, 3);
  reg.observe(obs::Hist::kMcSize, 3);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistSnapshot& h = snap.hist(obs::Hist::kMcSize);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < obs::kHistBuckets; ++b)
    bucket_total += h.buckets[b];
  EXPECT_EQ(bucket_total, h.count);
}

TEST(Metrics, MergeFromAddsSnapshots) {
  obs::MetricsRegistry child;
  child.add(obs::Counter::kQueriesPerformed, 10);
  child.observe(obs::Hist::kNeighborCount, 2);

  obs::MetricsRegistry parent;
  parent.add(obs::Counter::kQueriesPerformed, 1);
  parent.merge_from(child.snapshot());
  parent.merge_from(child.snapshot());

  const obs::MetricsSnapshot snap = parent.snapshot();
  EXPECT_EQ(snap.counter(obs::Counter::kQueriesPerformed), 21u);
  EXPECT_EQ(snap.hist(obs::Hist::kNeighborCount).count, 2u);
  EXPECT_EQ(snap.hist(obs::Hist::kNeighborCount).sum, 4u);
}

// Writers on several threads while the main thread snapshots concurrently.
// Run under TSan in CI: the single-writer relaxed-store / acquire-load cells
// must be race-free. Totals are exact once the writers have joined, and the
// mid-flight snapshots are monotone (every cell only grows).
TEST(Metrics, ConcurrentIncrementSnapshotStress) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;

  obs::MetricsRegistry reg;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &go] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        reg.add(obs::Counter::kQueriesPerformed);
        reg.observe(obs::Hist::kNeighborCount, i & 1023);
      }
    });
  }
  go.store(true, std::memory_order_release);

  std::uint64_t prev = 0;
  for (int i = 0; i < 200; ++i) {
    const obs::MetricsSnapshot mid = reg.snapshot();
    const std::uint64_t now = mid.counter(obs::Counter::kQueriesPerformed);
    EXPECT_GE(now, prev);
    EXPECT_LE(now, kThreads * kPerThread);
    prev = now;
  }
  for (auto& w : workers) w.join();

  const obs::MetricsSnapshot fin = reg.snapshot();
  EXPECT_EQ(fin.counter(obs::Counter::kQueriesPerformed),
            kThreads * kPerThread);
  const obs::HistSnapshot& h = fin.hist(obs::Hist::kNeighborCount);
  EXPECT_EQ(h.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < obs::kHistBuckets; ++b)
    bucket_total += h.buckets[b];
  EXPECT_EQ(bucket_total, h.count);
}

// Concurrent merge_from into one run-level parent (the rank-engine pattern in
// core/guarded_run.cpp) must lose nothing.
TEST(Metrics, ConcurrentMergeFrom) {
  constexpr int kThreads = 8;
  obs::MetricsRegistry parent;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&parent, t] {
      obs::MetricsRegistry child;
      child.add(obs::Counter::kUnionCalls, static_cast<std::uint64_t>(t + 1));
      parent.merge_from(child.snapshot());
    });
  }
  for (auto& w : workers) w.join();
  // 1 + 2 + ... + kThreads
  EXPECT_EQ(parent.snapshot().counter(obs::Counter::kUnionCalls),
            static_cast<std::uint64_t>(kThreads * (kThreads + 1) / 2));
}

// ---------------------------------------------------------------------------
// Tracer / spans.
// ---------------------------------------------------------------------------

TEST(Trace, SpanNestingAndOrdering) {
  obs::Tracer tracer;
  {
    obs::Span parent(&tracer, "parent");
    { obs::Span child(&tracer, "child"); }
  }
  std::thread worker([&tracer] { obs::Span s(&tracer, "worker"); });
  worker.join();

  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 3u);

  auto find = [&events](const char* name) {
    return std::find_if(
        events.begin(), events.end(),
        [name](const obs::TraceEvent& e) { return std::string(e.name) == name; });
  };
  const auto child = find("child");
  const auto parent = find("parent");
  const auto worker_ev = find("worker");
  ASSERT_NE(child, events.end());
  ASSERT_NE(parent, events.end());
  ASSERT_NE(worker_ev, events.end());

  // RAII close order: the child completes (and is recorded) before its
  // enclosing parent, and its interval is contained in the parent's.
  EXPECT_LT(child - events.begin(), parent - events.begin());
  EXPECT_GE(child->start_ns, parent->start_ns);
  EXPECT_LE(child->start_ns + child->dur_ns, parent->start_ns + parent->dur_ns);

  // Same thread => same tid; a different thread gets a different tid.
  EXPECT_EQ(child->tid, parent->tid);
  EXPECT_NE(worker_ev->tid, parent->tid);
}

TEST(Trace, EndIsIdempotent) {
  obs::Tracer tracer;
  {
    obs::Span s(&tracer, "once");
    s.end();
    s.end();  // second end (and the destructor) must not re-record
  }
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(Trace, TracePidScoping) {
  obs::Tracer tracer;
  const int prev = obs::set_trace_pid(7);
  { obs::Span s(&tracer, "ranked"); }
  obs::set_trace_pid(prev);
  { obs::Span s(&tracer, "unranked"); }

  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].pid, 7);
  EXPECT_EQ(events[1].pid, prev);
}

TEST(Trace, WriteChromeTraceProducesJsonArray) {
  obs::Tracer tracer;
  { obs::Span s(&tracer, "phase.cluster"); }
  const std::string path = testing::TempDir() + "udb_test_trace.json";
  ASSERT_TRUE(tracer.write_chrome_trace(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string doc;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) doc.append(buf, got);
  std::fclose(f);
  std::remove(path.c_str());

  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.front(), '[');  // Chrome trace_event JSON array format
  EXPECT_NE(doc.find("\"phase.cluster\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"thread_cpu_ms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Disabled-mode zero-allocation contracts.
// ---------------------------------------------------------------------------

TEST(ObsOverhead, DisabledModeAllocatesNothing) {
  // Warm the TLS shard (registration allocates once per thread per registry)
  // and anything lazily initialized in the log path.
  obs::MetricsRegistry reg;
  reg.add(obs::Counter::kQueriesPerformed);
  reg.observe(obs::Hist::kNeighborCount, 1);
  RunGuard guard;
  (void)guard.check("warmup");
  const obs::LogLevel prev_level = obs::log_level();
  obs::set_log_level(obs::LogLevel::kWarn);

  const std::uint64_t before = g_alloc_calls.load(std::memory_order_relaxed);

  // Warm metrics hot path: TLS cache hit, single-writer cell stores.
  for (int i = 0; i < 1000; ++i) {
    reg.add(obs::Counter::kQueriesPerformed);
    reg.observe(obs::Hist::kNeighborCount, static_cast<std::uint64_t>(i));
  }
  // Null-tracer spans are fully inert (obs/trace.hpp contract).
  for (int i = 0; i < 1000; ++i) {
    obs::Span s(nullptr, "inert");
    s.end();
  }
  // Suppressed log lines format nothing (obs/log.hpp contract).
  for (int i = 0; i < 1000; ++i)
    obs::LogLine(obs::LogLevel::kDebug, "test", "suppressed")
        .kv("i", i)
        .kv("x", 1.5);
  // Guard checkpoints without an attached registry: one relaxed pointer load
  // of obs cost, and the OK status never touches the heap.
  for (int i = 0; i < 1000; ++i) (void)guard.check("hot");

  const std::uint64_t after = g_alloc_calls.load(std::memory_order_relaxed);
  obs::set_log_level(prev_level);
  EXPECT_EQ(after - before, 0u);
}

// ---------------------------------------------------------------------------
// Logger.
// ---------------------------------------------------------------------------

TEST(Log, ParseLogLevel) {
  EXPECT_EQ(obs::parse_log_level("debug").value(), obs::LogLevel::kDebug);
  EXPECT_EQ(obs::parse_log_level("info").value(), obs::LogLevel::kInfo);
  EXPECT_EQ(obs::parse_log_level("warn").value(), obs::LogLevel::kWarn);
  EXPECT_EQ(obs::parse_log_level("error").value(), obs::LogLevel::kError);
  EXPECT_EQ(obs::parse_log_level("off").value(), obs::LogLevel::kOff);
  EXPECT_FALSE(obs::parse_log_level("WARN").ok());
  EXPECT_FALSE(obs::parse_log_level("verbose").ok());
  EXPECT_FALSE(obs::parse_log_level("").ok());
}

TEST(Log, LevelGate) {
  const obs::LogLevel prev = obs::log_level();
  obs::set_log_level(obs::LogLevel::kError);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kWarn));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kError));
  obs::set_log_level(obs::LogLevel::kOff);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kError));
  obs::set_log_level(prev);
}

// ---------------------------------------------------------------------------
// JSON writer + run report schema.
// ---------------------------------------------------------------------------

TEST(Report, JsonWriterCommasAndNesting) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("a", 1);
  w.key("b");
  w.begin_array();
  w.value(1);
  w.value("x");
  w.end_array();
  w.kv("c", true);
  w.kv("d", 1.5);
  w.key("e");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[1,"x"],"c":true,"d":1.5,"e":{}})");
}

TEST(Report, JsonWriterEscapesStrings) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("s", "q\"\n\\");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"s\":\"q\\\"\\n\\\\\"}");
}

TEST(Report, MetricsSnapshotLedgerArithmetic) {
  obs::MetricsRegistry reg;
  reg.add(obs::Counter::kQueriesPerformed, 60);
  reg.add(obs::Counter::kQueriesAvoidedDmc, 30);
  reg.add(obs::Counter::kQueriesAvoidedCmc, 8);
  reg.add(obs::Counter::kQueriesAvoidedPromotion, 2);

  obs::JsonWriter w;
  w.begin_object();
  obs::write_metrics_snapshot(w, reg.snapshot(), 100);
  w.end_object();
  const std::string& doc = w.str();
  EXPECT_NE(doc.find("\"queries_performed\":60"), std::string::npos);
  EXPECT_NE(doc.find("\"avoided_total\":40"), std::string::npos);
  EXPECT_NE(doc.find("\"query_savings\":0.4"), std::string::npos);
}

// Golden key set of the run report. This pins schema_version 2 (v1 plus the
// "incremental" section): removing or renaming any of these keys is a
// breaking change and must bump the version (and docs/OBSERVABILITY.md).
TEST(Report, RunReportSchemaGoldenKeys) {
  obs::RunReportInputs in;
  in.algo = "mudbscan";
  in.n = 100;
  in.dim = 2;
  in.eps = 0.5;
  in.min_pts = 5;
  in.threads = 4;
  in.ranks = 2;
  in.seconds = 1.25;
  in.phases = {{"build_tree", 0.5}, {"cluster", 0.75}};
  in.metrics.counters[static_cast<std::size_t>(
      obs::Counter::kQueriesPerformed)] = 70;
  in.workers = {{0.4, 10}, {0.35, 9}};
  in.has_guard = true;
  in.mem_peak_bytes = 1 << 20;
  in.mem_budget_bytes = 1 << 22;
  in.deadline_seconds = 30.0;
  in.guard_checkpoints = 42;
  obs::RunReportInputs::Rank r0;
  r0.rank = 0;
  r0.n_local = 50;
  r0.msgs_sent = 3;
  in.rank_stats = {r0};

  const std::string doc = obs::run_report_json(in);
  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.substr(doc.size() - 2), "}\n");

  const char* keys[] = {
      "\"schema_version\":2", "\"run\":",
      "\"tool\":",            "\"algo\":",
      "\"n\":",               "\"dim\":",
      "\"eps\":",             "\"min_pts\":",
      "\"threads\":",         "\"ranks\":",
      "\"seconds\":",         "\"approximate\":",
      "\"simd_target\":",     "\"kernel_blocks\":",
      "\"kernel_tail_points\":",
      "\"phases\":",          "\"build_tree\":0.5",
      "\"query_ledger\":",    "\"points\":",
      "\"queries_performed\":", "\"avoided\":",
      "\"dmc\":",             "\"cmc\":",
      "\"wndq_promotion\":",  "\"grid_dense_cell\":",
      "\"gdbscan_dense_group\":", "\"avoided_total\":",
      "\"query_savings\":",   "\"murtree\":",
      "\"num_mcs\":",         "\"smc\":",
      "\"deferred_points\":", "\"wndq_core_points\":",
      "\"aux_trees_searched\":", "\"rtree_node_visits\":",
      "\"rtree_distance_evals\":", "\"unionfind\":",
      "\"union_calls\":",     "\"post_core_distance_evals\":",
      "\"post_core_mc_pairs\":", "\"post_core_mc_pairs_skipped\":",
      "\"incremental\":",     "\"mcs_touched\":",
      "\"graph_edges_repaired\":", "\"full_fallbacks\":",
      "\"counters\":",        "\"histograms\":",
      "\"buckets\":",         "\"threadpool\":",
      "\"workers\":",         "\"busy_seconds\":",
      "\"jobs\":",            "\"runguard\":",
      "\"mem_peak_bytes\":",  "\"mem_budget_bytes\":",
      "\"deadline_seconds\":", "\"checkpoints\":",
      "\"ranks\":[",          "\"rank\":",
      "\"n_local\":",         "\"n_halo\":",
      "\"phase_seconds\":",   "\"partition\":",
      "\"halo\":",            "\"local\":",
      "\"merge\":",           "\"scatter\":",
      "\"comm\":",            "\"msgs_sent\":",
      "\"bytes_sent\":",      "\"msgs_recv\":",
      "\"bytes_recv\":",      "\"retries\":",
      "\"timeouts\":",
  };
  for (const char* key : keys)
    EXPECT_NE(doc.find(key), std::string::npos) << "missing key " << key;
}

TEST(Report, EmptySectionsOmitted) {
  obs::RunReportInputs in;
  in.algo = "brute";
  const std::string doc = obs::run_report_json(in);
  EXPECT_EQ(doc.find("\"runguard\""), std::string::npos);
  EXPECT_EQ(doc.find("\"ranks\":["), std::string::npos);
}

// ---------------------------------------------------------------------------
// Integration: RunGuard checkpoint gaps, CommStats, the engine ledger.
// ---------------------------------------------------------------------------

TEST(RunGuardObs, CheckpointGapHistogram) {
  RunGuard guard;
  obs::MetricsRegistry reg;
  guard.set_metrics(&reg);
  ASSERT_TRUE(guard.check("a").ok());
  ASSERT_TRUE(guard.check("b").ok());
  ASSERT_TRUE(guard.check("c").ok());
  // First check on this thread only primes the gap cache; the next two each
  // record one gap.
  EXPECT_EQ(reg.snapshot().hist(obs::Hist::kCheckpointGapUs).count, 2u);

  guard.set_metrics(nullptr);
  ASSERT_TRUE(guard.check("d").ok());
  EXPECT_EQ(reg.snapshot().hist(obs::Hist::kCheckpointGapUs).count, 2u);
  EXPECT_EQ(guard.checkpoints_passed(), 4u);  // a..d all counted
}

TEST(CommStatsObs, SnapshotSubtract) {
  mpi::CommStats before{10, 1000, 5, 500, 1, 0};
  mpi::CommStats after{14, 1600, 9, 900, 2, 1};
  const mpi::CommStats delta = after - before;
  EXPECT_EQ(delta.msgs_sent, 4u);
  EXPECT_EQ(delta.bytes_sent, 600u);
  EXPECT_EQ(delta.msgs_recv, 4u);
  EXPECT_EQ(delta.bytes_recv, 400u);
  EXPECT_EQ(delta.retries, 1u);
  EXPECT_EQ(delta.timeouts, 1u);

  mpi::CommStats total{};
  total += delta;
  total += delta;
  EXPECT_EQ(total.msgs_sent, 8u);
  EXPECT_EQ(total.bytes_sent, 1200u);
}

// The paper's cost-model identity as an end-to-end invariant: for the
// one-thread engine every point either runs its neighborhood query or is
// skipped for exactly one ledger reason, so performed + avoided == n.
TEST(LedgerIntegration, SequentialLedgerSumsToN) {
  const std::size_t n = 2000;
  const Dataset ds = gen_blobs(n, 2, 5, 10.0, 0.4, 0.05, 42);

  obs::MetricsRegistry reg;
  MuDbscanConfig cfg;
  cfg.metrics = &reg;
  MuDbscanStats st;
  (void)mu_dbscan(ds, DbscanParams{0.5, 5}, &st, cfg);

  const obs::MetricsSnapshot snap = reg.snapshot();
  const std::uint64_t performed =
      snap.counter(obs::Counter::kQueriesPerformed);
  const std::uint64_t avoided =
      snap.counter(obs::Counter::kQueriesAvoidedDmc) +
      snap.counter(obs::Counter::kQueriesAvoidedCmc) +
      snap.counter(obs::Counter::kQueriesAvoidedPromotion);
  EXPECT_EQ(performed + avoided, n);
  EXPECT_EQ(performed, st.queries_performed);

  // The classification counters line up with the engine's own stats, and
  // every performed query landed one neighbor-count observation.
  EXPECT_EQ(snap.counter(obs::Counter::kMcDense), st.dmc);
  EXPECT_EQ(snap.counter(obs::Counter::kMcCore), st.cmc);
  EXPECT_EQ(snap.counter(obs::Counter::kMcSparse), st.smc);
  EXPECT_EQ(snap.hist(obs::Hist::kNeighborCount).count, performed);
}

// The identity must also hold with the thread-parallel engine (promotion may
// shift counts between performed and avoided_promotion, never the sum).
TEST(LedgerIntegration, ParallelLedgerSumsToN) {
  const std::size_t n = 2000;
  const Dataset ds = gen_blobs(n, 2, 5, 10.0, 0.4, 0.05, 43);

  obs::MetricsRegistry reg;
  MuDbscanConfig cfg;
  cfg.metrics = &reg;
  cfg.num_threads = 4;
  (void)mu_dbscan(ds, DbscanParams{0.5, 5}, nullptr, cfg);

  const obs::MetricsSnapshot snap = reg.snapshot();
  const std::uint64_t performed =
      snap.counter(obs::Counter::kQueriesPerformed);
  const std::uint64_t avoided =
      snap.counter(obs::Counter::kQueriesAvoidedDmc) +
      snap.counter(obs::Counter::kQueriesAvoidedCmc) +
      snap.counter(obs::Counter::kQueriesAvoidedPromotion);
  EXPECT_EQ(performed + avoided, n);
}

}  // namespace
}  // namespace udb
