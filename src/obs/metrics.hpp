// Metrics registry: counters and log-scale histograms with per-thread sharded
// storage (docs/OBSERVABILITY.md).
//
// Design goals, in order:
//   1. The hot query path (Algorithm 6's per-point skip check) must pay at
//      most a TLS lookup plus one relaxed store per event when metrics are
//      collected, and a single relaxed load when a registry is absent.
//   2. Snapshots must be deterministic: shards are merged in registration
//      order, and every counter is additive, so the merged totals are
//      independent of thread scheduling (the *values* of a few counters still
//      depend on benign promotion races — see src/core/mudbscan.hpp).
//   3. No global singleton. A registry is owned by whoever needs one (engine,
//      guarded run, bench rep) and merged upward explicitly, so concurrent
//      engines (one per simulated rank) never contend on shared cells.
//
// Sharding: each thread that touches a registry gets its own cache-line
// padded Shard. Cells are std::atomic<uint64_t> written single-writer with a
// relaxed load+store pair (not an RMW — the owner is the only writer, readers
// only see the cell at snapshot time), so the fast path is a plain store on
// every mainstream ISA and TSan sees a properly-synchronized access. Shards
// live in a std::deque so registration never relocates existing shards out
// from under their owning threads.
//
// The TLS shard cache is keyed by a process-unique registry id that is never
// reused, so a stale cache entry from a destroyed registry can never alias a
// live one.

#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace udb::obs {

// ---------------------------------------------------------------------------
// Catalog. Adding an entry: extend the enum, then counter_name()/counter_unit()
// (or hist_*) in metrics.cpp, then the catalog table in docs/OBSERVABILITY.md.
// ---------------------------------------------------------------------------

enum class Counter : std::uint32_t {
  // Query-avoidance ledger (the paper's central cost model). These four sum
  // to exactly n at every thread count; across thread counts only
  // kQueriesPerformed <-> kQueriesAvoidedPromotion can trade one-for-one.
  kQueriesPerformed = 0,       // epsilon-neighborhood queries actually run
  kQueriesAvoidedDmc,          // skipped: point in a dense micro-cluster
  kQueriesAvoidedCmc,          // skipped: MC centre already proven core
  kQueriesAvoidedPromotion,    // skipped: promoted core during Alg 6/8
  kQueriesAvoidedDenseCell,    // grid_dbscan: point in a dense cell
  kQueriesAvoidedDenseGroup,   // g_dbscan: point in a dense group

  // Micro-cluster classification (Algorithm 4).
  kMcDense,                    // DMC count
  kMcCore,                     // CMC count
  kMcSparse,                   // SMC count
  kMcDeferredPoints,           // points deferred out of undersized MCs
  kWndqCorePoints,             // cores proven Without Neighborhood Density Query
  kPostCoreDistanceEvals,      // Alg 7 candidate distance evaluations
  kPostCoreMcPairs,            // Alg 7 (MC, reachable MC) pairs checked
  kPostCoreMcPairsSkipped,     // ... skipped: both sides already one set

  // Clustering structure maintenance.
  kNoiseProvisional,           // points provisionally marked noise in Alg 6
  kBorderRepaired,             // provisional noise re-attached in Alg 8
  kUnionCalls,                 // union-find unite() invocations

  // muR-tree internals.
  kAuxTreesSearched,           // AuxR-trees searched by queries and gathers
  kRtreeNodeVisits,            // R-tree nodes tested (µR-tree: AuxR-trees)
  kRtreeDistanceEvals,         // leaf / candidate-block distance evaluations
  kKernelBlocks,               // SoA blocks handed to the SIMD kernel
  kKernelTailPoints,           // scanned points in a block's scalar tail

  // Serving layer (src/serve/, docs/SERVING.md). The classify ledger mirrors
  // the engine's query-avoidance ledger: every classify answer is produced
  // either by a muR-tree neighborhood search (performed) or by the
  // exact-match fast path (avoided), so at any quiesced snapshot
  //   kServeClassifyPerformed + kServeClassifyAvoidedExact
  //     == kServeClassifyPoints.
  kServeRequests,              // protocol requests handled (all types)
  kServeErrors,                // requests answered with a non-OK status
  kServeDeadlineExceeded,      // requests aborted by the per-request deadline
  kServeClassifyPoints,        // classify answers produced
  kServeClassifyPerformed,     // ... via a muR-tree neighborhood search
  kServeClassifyAvoidedExact,  // ... via the exact-match fast path
  kServeNeighborQueries,       // neighbors() searches run
  kServePointInfoLookups,      // point_info answers produced
  kServeModelRefreshes,        // served-model swaps (refresh())

  // Serving robustness (CRC envelope + overload protection + retrying
  // client; docs/SERVING.md failure-mode matrix).
  kServeCorruptFrames,         // frames refused by the transport (CRC / framing)
  kServeShedLoad,              // requests shed RESOURCE_EXHAUSTED (admission)
  kServeShedConnections,       // connections shed at accept (budget full)
  kServeIdleDisconnects,       // connections closed by the idle timeout
  kServeAcceptRetries,         // accept() failures absorbed by backoff
  kServeClientRetries,         // client: attempts beyond the first
  kServeClientFailovers,       // client: endpoint switches on failure
  kServeClientGiveUps,         // client: requests failed after all attempts

  // Incremental maintenance (src/core/incremental.*, docs/INCREMENTAL.md).
  // Every insert/erase runs micro-cluster-accelerated neighborhood scans and
  // a scoped cluster-graph repair; these counters expose the blast radius.
  kIncMcsTouched,              // candidate MCs scanned across update queries
  kIncGraphEdgesRepaired,      // cluster-graph repairs: unions + split relabels
  kIncFullFallbacks,           // updates that exceeded the blast-radius cap

  kNumCounters,
};

enum class Hist : std::uint32_t {
  kNeighborCount = 0,  // |N_eps(p)| per performed query
  kReachableLen,       // reachable-MC list length per micro-cluster
  kMcSize,             // micro-cluster population
  kCheckpointGapUs,    // microseconds between RunGuard cooperative checkpoints
  kServeRequestUs,     // serving: wall microseconds per protocol request
  kServeBatchSize,     // serving: points per classify batch request
  kServeIdleWaitUs,    // serving: idle microseconds before a timeout disconnect
  kServeAcceptBackoffUs,  // serving: microseconds slept per accept() backoff
  kIncBlastRadius,     // micro-clusters touched per incremental update
  kNumHists,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kNumCounters);
inline constexpr std::size_t kNumHists =
    static_cast<std::size_t>(Hist::kNumHists);

// Log2 buckets: bucket 0 holds value 0, bucket b >= 1 holds values with
// bit_width == b, i.e. [2^(b-1), 2^b). 64-bit values need bit_width up to 64.
inline constexpr std::size_t kHistBuckets = 65;

inline constexpr std::size_t hist_bucket(std::uint64_t v) {
  return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
}

const char* counter_name(Counter c);
const char* counter_unit(Counter c);
const char* hist_name(Hist h);
const char* hist_unit(Hist h);

// ---------------------------------------------------------------------------
// Snapshot: plain (non-atomic) merged view, safe to copy and serialize.
// ---------------------------------------------------------------------------

struct HistSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = UINT64_MAX;  // UINT64_MAX when count == 0
  std::uint64_t max = 0;
  std::uint64_t buckets[kHistBuckets] = {};

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  void merge(const HistSnapshot& o) {
    count += o.count;
    sum += o.sum;
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
    for (std::size_t b = 0; b < kHistBuckets; ++b) buckets[b] += o.buckets[b];
  }
};

struct MetricsSnapshot {
  std::uint64_t counters[kNumCounters] = {};
  HistSnapshot hists[kNumHists] = {};

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const HistSnapshot& hist(Hist h) const {
    return hists[static_cast<std::size_t>(h)];
  }
  void merge(const MetricsSnapshot& o) {
    for (std::size_t i = 0; i < kNumCounters; ++i) counters[i] += o.counters[i];
    for (std::size_t i = 0; i < kNumHists; ++i) hists[i].merge(o.hists[i]);
  }
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Hot path. Safe from any thread; each thread writes only its own shard.
  void add(Counter c, std::uint64_t n = 1) {
    Shard& s = shard();
    cell_add(s.counters[static_cast<std::size_t>(c)], n);
  }

  void observe(Hist h, std::uint64_t v) {
    Shard& s = shard();
    HistShard& hs = s.hists[static_cast<std::size_t>(h)];
    cell_add(hs.buckets[hist_bucket(v)], 1);
    cell_add(hs.count, 1);
    cell_add(hs.sum, v);
    // min/max cells are also single-writer; relaxed load + store suffices.
    if (v < hs.min.load(std::memory_order_relaxed))
      hs.min.store(v, std::memory_order_relaxed);
    if (v > hs.max.load(std::memory_order_relaxed))
      hs.max.store(v, std::memory_order_relaxed);
  }

  // Merges all shards in registration order (deterministic) into a plain
  // snapshot. Safe to call while writers are active: each cell is read with
  // an acquire load, so the snapshot is a consistent-enough monotone view;
  // for exact totals call it after the writing threads have quiesced (all
  // engine call sites do).
  MetricsSnapshot snapshot() const;

  // Adds a finished snapshot into this registry's shard for the calling
  // thread. Used to merge an engine's registry into a run-level parent
  // (thread-safe: concurrent rank engines may merge at once).
  void merge_from(const MetricsSnapshot& snap);

 private:
  struct HistShard {
    std::atomic<std::uint64_t> buckets[kHistBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{UINT64_MAX};
    std::atomic<std::uint64_t> max{0};
  };
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> counters[kNumCounters] = {};
    HistShard hists[kNumHists] = {};
  };

  // Single-writer accumulate: not an RMW because only the owning thread
  // writes this cell. Readers (snapshot) pair with acquire loads.
  static void cell_add(std::atomic<std::uint64_t>& cell, std::uint64_t n) {
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_release);
  }

  Shard& shard();
  Shard& register_shard();  // slow path: takes reg_mu_

  const std::uint64_t id_;  // process-unique, never reused
  mutable std::mutex reg_mu_;
  std::deque<Shard> shards_;  // deque: stable addresses across registration
};

}  // namespace udb::obs
