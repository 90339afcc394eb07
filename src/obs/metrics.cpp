#include "obs/metrics.hpp"

namespace udb::obs {

namespace {

// Process-unique registry ids. Never reused, so a thread-local cache entry
// left behind by a destroyed registry can never false-hit a live one.
std::atomic<std::uint64_t> g_next_registry_id{1};

}  // namespace

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kQueriesPerformed: return "queries_performed";
    case Counter::kQueriesAvoidedDmc: return "queries_avoided_dmc";
    case Counter::kQueriesAvoidedCmc: return "queries_avoided_cmc";
    case Counter::kQueriesAvoidedPromotion: return "queries_avoided_promotion";
    case Counter::kQueriesAvoidedDenseCell: return "queries_avoided_dense_cell";
    case Counter::kQueriesAvoidedDenseGroup:
      return "queries_avoided_dense_group";
    case Counter::kMcDense: return "mc_dense";
    case Counter::kMcCore: return "mc_core";
    case Counter::kMcSparse: return "mc_sparse";
    case Counter::kMcDeferredPoints: return "mc_deferred_points";
    case Counter::kWndqCorePoints: return "wndq_core_points";
    case Counter::kPostCoreDistanceEvals: return "post_core_distance_evals";
    case Counter::kPostCoreMcPairs: return "post_core_mc_pairs";
    case Counter::kPostCoreMcPairsSkipped:
      return "post_core_mc_pairs_skipped";
    case Counter::kNoiseProvisional: return "noise_provisional";
    case Counter::kBorderRepaired: return "border_repaired";
    case Counter::kUnionCalls: return "union_calls";
    case Counter::kAuxTreesSearched: return "aux_trees_searched";
    case Counter::kRtreeNodeVisits: return "rtree_node_visits";
    case Counter::kRtreeDistanceEvals: return "rtree_distance_evals";
    case Counter::kKernelBlocks: return "kernel_blocks";
    case Counter::kKernelTailPoints: return "kernel_tail_points";
    case Counter::kServeRequests: return "serve_requests";
    case Counter::kServeErrors: return "serve_errors";
    case Counter::kServeDeadlineExceeded: return "serve_deadline_exceeded";
    case Counter::kServeClassifyPoints: return "serve_classify_points";
    case Counter::kServeClassifyPerformed: return "serve_classify_performed";
    case Counter::kServeClassifyAvoidedExact:
      return "serve_classify_avoided_exact";
    case Counter::kServeNeighborQueries: return "serve_neighbor_queries";
    case Counter::kServePointInfoLookups: return "serve_point_info_lookups";
    case Counter::kServeModelRefreshes: return "serve_model_refreshes";
    case Counter::kServeCorruptFrames: return "serve_corrupt_frames";
    case Counter::kServeShedLoad: return "serve_shed_load";
    case Counter::kServeShedConnections: return "serve_shed_connections";
    case Counter::kServeIdleDisconnects: return "serve_idle_disconnects";
    case Counter::kServeAcceptRetries: return "serve_accept_retries";
    case Counter::kServeClientRetries: return "serve_client_retries";
    case Counter::kServeClientFailovers: return "serve_client_failovers";
    case Counter::kServeClientGiveUps: return "serve_client_give_ups";
    case Counter::kIncMcsTouched: return "inc_mcs_touched";
    case Counter::kIncGraphEdgesRepaired: return "inc_graph_edges_repaired";
    case Counter::kIncFullFallbacks: return "inc_full_fallbacks";
    case Counter::kNumCounters: break;
  }
  return "unknown";
}

const char* counter_unit(Counter c) {
  switch (c) {
    case Counter::kQueriesPerformed:
    case Counter::kQueriesAvoidedDmc:
    case Counter::kQueriesAvoidedCmc:
    case Counter::kQueriesAvoidedPromotion:
    case Counter::kQueriesAvoidedDenseCell:
    case Counter::kQueriesAvoidedDenseGroup:
      return "queries";
    case Counter::kMcDense:
    case Counter::kMcCore:
    case Counter::kMcSparse:
      return "micro-clusters";
    case Counter::kMcDeferredPoints:
    case Counter::kWndqCorePoints:
    case Counter::kNoiseProvisional:
    case Counter::kBorderRepaired:
      return "points";
    case Counter::kPostCoreDistanceEvals:
    case Counter::kRtreeDistanceEvals:
      return "distance-evals";
    case Counter::kPostCoreMcPairs:
    case Counter::kPostCoreMcPairsSkipped:
      return "mc-pairs";
    case Counter::kUnionCalls: return "calls";
    case Counter::kAuxTreesSearched: return "descents";
    case Counter::kRtreeNodeVisits: return "nodes";
    case Counter::kKernelBlocks: return "blocks";
    case Counter::kKernelTailPoints: return "points";
    case Counter::kServeRequests:
    case Counter::kServeErrors:
    case Counter::kServeDeadlineExceeded:
      return "requests";
    case Counter::kServeClassifyPoints:
    case Counter::kServeClassifyPerformed:
    case Counter::kServeClassifyAvoidedExact:
    case Counter::kServePointInfoLookups:
      return "points";
    case Counter::kServeNeighborQueries: return "queries";
    case Counter::kServeModelRefreshes: return "swaps";
    case Counter::kServeCorruptFrames: return "frames";
    case Counter::kServeShedConnections:
    case Counter::kServeIdleDisconnects:
      return "connections";
    case Counter::kServeShedLoad:
    case Counter::kServeClientGiveUps:
      return "requests";
    case Counter::kServeAcceptRetries:
    case Counter::kServeClientRetries:
      return "retries";
    case Counter::kServeClientFailovers: return "failovers";
    case Counter::kIncMcsTouched: return "micro-clusters";
    case Counter::kIncGraphEdgesRepaired: return "repairs";
    case Counter::kIncFullFallbacks: return "updates";
    case Counter::kNumCounters: break;
  }
  return "";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kNeighborCount: return "neighbor_count";
    case Hist::kReachableLen: return "reachable_list_len";
    case Hist::kMcSize: return "mc_size";
    case Hist::kCheckpointGapUs: return "checkpoint_gap_us";
    case Hist::kServeRequestUs: return "serve_request_us";
    case Hist::kServeBatchSize: return "serve_batch_size";
    case Hist::kServeIdleWaitUs: return "serve_idle_wait_us";
    case Hist::kServeAcceptBackoffUs: return "serve_accept_backoff_us";
    case Hist::kIncBlastRadius: return "inc_blast_radius";
    case Hist::kNumHists: break;
  }
  return "unknown";
}

const char* hist_unit(Hist h) {
  switch (h) {
    case Hist::kNeighborCount: return "points";
    case Hist::kReachableLen: return "micro-clusters";
    case Hist::kMcSize: return "points";
    case Hist::kCheckpointGapUs: return "microseconds";
    case Hist::kServeRequestUs: return "microseconds";
    case Hist::kServeBatchSize: return "points";
    case Hist::kServeIdleWaitUs: return "microseconds";
    case Hist::kServeAcceptBackoffUs: return "microseconds";
    case Hist::kIncBlastRadius: return "micro-clusters";
    case Hist::kNumHists: break;
  }
  return "";
}

MetricsRegistry::MetricsRegistry()
    : id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::Shard& MetricsRegistry::shard() {
  // One-entry cache: engine phases run one registry at a time per thread, so
  // a single slot hits nearly always. Keyed by the never-reused registry id.
  struct Cache {
    std::uint64_t id = 0;
    Shard* shard = nullptr;
  };
  thread_local Cache cache;
  if (cache.id == id_) return *cache.shard;
  Shard& s = register_shard();
  cache.id = id_;
  cache.shard = &s;
  return s;
}

MetricsRegistry::Shard& MetricsRegistry::register_shard() {
  std::lock_guard<std::mutex> lk(reg_mu_);
  return shards_.emplace_back();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lk(reg_mu_);
  // Registration order is deterministic given a deterministic thread
  // schedule; more importantly every merge below is commutative and
  // associative, so the totals are order-independent regardless.
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < kNumCounters; ++i)
      out.counters[i] += s.counters[i].load(std::memory_order_acquire);
    for (std::size_t i = 0; i < kNumHists; ++i) {
      const HistShard& hs = s.hists[i];
      HistSnapshot& ho = out.hists[i];
      ho.count += hs.count.load(std::memory_order_acquire);
      ho.sum += hs.sum.load(std::memory_order_acquire);
      const std::uint64_t mn = hs.min.load(std::memory_order_acquire);
      const std::uint64_t mx = hs.max.load(std::memory_order_acquire);
      if (mn < ho.min) ho.min = mn;
      if (mx > ho.max) ho.max = mx;
      for (std::size_t b = 0; b < kHistBuckets; ++b)
        ho.buckets[b] += hs.buckets[b].load(std::memory_order_acquire);
    }
  }
  return out;
}

void MetricsRegistry::merge_from(const MetricsSnapshot& snap) {
  Shard& s = shard();
  for (std::size_t i = 0; i < kNumCounters; ++i)
    if (snap.counters[i] != 0) cell_add(s.counters[i], snap.counters[i]);
  for (std::size_t i = 0; i < kNumHists; ++i) {
    const HistSnapshot& hi = snap.hists[i];
    if (hi.count == 0) continue;
    HistShard& hs = s.hists[i];
    cell_add(hs.count, hi.count);
    cell_add(hs.sum, hi.sum);
    if (hi.min < hs.min.load(std::memory_order_relaxed))
      hs.min.store(hi.min, std::memory_order_relaxed);
    if (hi.max > hs.max.load(std::memory_order_relaxed))
      hs.max.store(hi.max, std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistBuckets; ++b)
      if (hi.buckets[b] != 0) cell_add(hs.buckets[b], hi.buckets[b]);
  }
}

}  // namespace udb::obs
