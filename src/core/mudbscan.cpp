#include "core/mudbscan.hpp"

#include <atomic>
#include <span>
#include <stdexcept>
#include <utility>

#include "baselines/uf_labels.hpp"
#include "common/distance.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/mudbscan_engine.hpp"
#include "obs/trace.hpp"

namespace udb {

namespace {

// Atomic view of a byte flag shared between threads in the parallel phases.
inline std::atomic_ref<std::uint8_t> flag(std::vector<std::uint8_t>& v,
                                          PointId i) {
  return std::atomic_ref<std::uint8_t>(v[i]);
}

// Sequential-loop checkpoint stride (Algorithms 4/6). The parallel paths
// checkpoint per chunk via parallel_for_chunked instead.
constexpr std::size_t kSeqCheckStride = 1024;

// Algorithm 7/8 work chunks (wndq / noise points). A guarded loop checks
// once per chunk, so 256 wndq points bound the cancellation latency.
constexpr std::size_t kPostCoreChunk = 256;
constexpr std::size_t kPostNoiseChunk = 64;

// wndq_ byte values double as query-avoidance reason codes: any nonzero
// value means "tagged, skip the query" (all existing truthiness checks keep
// working), and the value records WHY for the Algorithm 6 skip-site ledger.
// A tag is claimed exactly once (plain first-write in the thread-exclusive
// Algorithm 4 paths, compare-exchange from 0 in the concurrent promotion
// path), so a DMC/CMC tag is never overwritten by a later promotion and the
// dmc/cmc avoidance counts are deterministic at every thread count.
enum WndqReason : std::uint8_t {
  kWndqNone = 0,
  kWndqDmc = 1,        // inner-circle member of a dense MC (Lemma 1)
  kWndqCmc = 2,        // centre of a core MC (Lemma 2)
  kWndqPromotion = 3,  // dynamically promoted (Algorithm 6 lines 18-21)
};

// Per-reason skip totals accumulated at the Algorithm 6 skip site. Each
// point is tested exactly once, so performed + avoided[*] == n.
struct AvoidedLedger {
  std::uint64_t by_reason[4] = {};
  void count(std::uint8_t reason) { ++by_reason[reason & 3]; }
  [[nodiscard]] std::uint64_t dmc() const { return by_reason[kWndqDmc]; }
  [[nodiscard]] std::uint64_t cmc() const { return by_reason[kWndqCmc]; }
  [[nodiscard]] std::uint64_t promotion() const {
    return by_reason[kWndqPromotion];
  }
  void merge(const AvoidedLedger& o) {
    for (int r = 0; r < 4; ++r) by_reason[r] += o.by_reason[r];
  }
};

}  // namespace

MuDbscanEngine::MuDbscanEngine(const Dataset& ds, const DbscanParams& params,
                               MuDbscanConfig cfg)
    : ds_(&ds), params_(params), cfg_(cfg), uf_(ds.size()) {
  if (params_.min_pts == 0)
    throw std::invalid_argument("MuDbscan: MinPts must be >= 1");
  const std::size_t n = ds.size();

  // Run-guard setup: an external guard is shared (distributed ranks all point
  // at the run's guard); limits without a guard get an engine-owned one.
  guard_ = cfg_.guard;
  if (guard_ == nullptr &&
      (cfg_.deadline_seconds > 0.0 || cfg_.mem_budget_bytes > 0)) {
    owned_guard_ = std::make_unique<RunGuard>(
        RunLimits{cfg_.deadline_seconds, cfg_.mem_budget_bytes});
    guard_ = owned_guard_.get();
  }
  // Per-point flag vectors (4 bytes) + the union-find parent array.
  if (guard_)
    flags_charge_.acquire_throw(guard_, n * (4 + sizeof(PointId)),
                                "engine flags + union-find");

  is_core_.assign(n, 0);
  wndq_.assign(n, 0);
  assigned_.assign(n, 0);
  // CSR invariant: noise_off_.size() == noise_pts_.size() + 1 from the start,
  // so the Algorithm 8 scan and per-thread merging need no lazy init.
  noise_off_.assign(1, 0);
  if (cfg_.num_threads > 1)
    pool_ = std::make_unique<ThreadPool>(cfg_.num_threads);
}

MuDbscanEngine::~MuDbscanEngine() {
  if (cfg_.metrics != nullptr) cfg_.metrics->merge_from(metrics_.snapshot());
}

void MuDbscanEngine::build_tree() {
  obs::Span span(cfg_.tracer, "phase.build_tree");
  WallTimer timer;
  MuRTree::Config tcfg;
  tcfg.two_eps_rule = cfg_.two_eps_rule;
  tcfg.guard = guard_;
  tcfg.tracer = cfg_.tracer;
  tree_ = std::make_unique<MuRTree>(*ds_, params_.eps, tcfg, pool_.get());
  tree_->compute_inner_circles(pool_.get());
  stats.num_mcs = tree_->num_mcs();
  stats.t_tree = timer.seconds();
}

void MuDbscanEngine::find_reachable() {
  obs::Span span(cfg_.tracer, "phase.find_reachable");
  WallTimer timer;
  tree_->compute_reachable(pool_.get());
  stats.t_reach = timer.seconds();
}

void MuDbscanEngine::cluster() {
  if (pool_) {
    cluster_parallel();
    return;
  }
  obs::Span phase_span(cfg_.tracer, "phase.cluster");
  WallTimer timer;
  const std::size_t n = ds_->size();
  const double eps = params_.eps;
  const double half2 = (eps / 2.0) * (eps / 2.0);
  const std::uint32_t min_pts = params_.min_pts;
  // Hot-loop counters accumulate in locals and publish to the registry once
  // per phase; only the per-query histogram observation hits the registry
  // inside the loop (a TLS lookup + a few relaxed stores, dwarfed by the
  // tree descent it accounts for).
  std::uint64_t unions = 0;
  std::uint64_t noise_provisional = 0;
  AvoidedLedger avoided;

  // --- Algorithm 4: PROCESS-MICRO-CLUSTERS ------------------------------
  // DMC: every inner-circle point is core (Lemma 1) and so is the centre
  // (its eps-ball contains IC plus itself); CMC: the centre is core
  // (Lemma 2). Either way all members are united with the centre — they are
  // directly density-reachable from it.
  obs::Span alg4_span(cfg_.tracer, "alg4.process_mcs");
  for (McId z = 0; z < tree_->num_mcs(); ++z) {
    if (guard_ && z % kSeqCheckStride == 0)
      guard_->check_throw("algorithm 4");
    const MicroCluster& mc = tree_->mc(z);
    const McKind kind = mc.classify(min_pts);
    if (kind == McKind::Sparse) {
      ++stats.smc;
      continue;
    }
    if (kind == McKind::Dense) {
      ++stats.dmc;
      const double* c = ds_->ptr(mc.center);
      for (PointId q : mc.members) {
        if (q != mc.center &&
            sq_dist(c, ds_->ptr(q), ds_->dim()) >= half2)
          continue;  // outside the inner circle: border for the time being
        if (!wndq_[q]) {
          wndq_[q] = kWndqDmc;
          is_core_[q] = 1;
          ++stats.wndq_core_points;
        }
      }
    } else {  // Core MC
      ++stats.cmc;
      if (!wndq_[mc.center]) {
        wndq_[mc.center] = kWndqCmc;
        is_core_[mc.center] = 1;
        ++stats.wndq_core_points;
      }
    }
    for (PointId q : mc.members) {
      uf_.union_sets(mc.center, q);
      assigned_[q] = 1;
    }
    unions += mc.members.size();
  }
  alg4_span.end();

  // --- Algorithm 6: PROCESS-REM-POINTS ----------------------------------
  obs::Span alg6_span(cfg_.tracer, "alg6.process_rem_points");
  std::vector<std::pair<PointId, double>> nbhd;
  for (std::size_t i = 0; i < n; ++i) {
    if (guard_ && i % kSeqCheckStride == 0)
      guard_->check_throw("algorithm 6");
    const PointId p = static_cast<PointId>(i);
    if (wndq_[p]) {  // query saved; ledger by reason code
      avoided.count(wndq_[p]);
      continue;
    }
    ++stats.queries_performed;

    nbhd.clear();
    tree_->query_neighborhood(p, eps, nbhd, cfg_.mbr_filtration);
    metrics_.observe(obs::Hist::kNeighborCount, nbhd.size());

    if (nbhd.size() < min_pts) {
      // Non-core: border if some already-known core is in range, otherwise
      // provisional noise with the neighborhood remembered for Algorithm 8.
      bool attached = assigned_[p] != 0;
      if (!attached) {
        for (const auto& [q, d2] : nbhd) {
          if (is_core_[q]) {
            uf_.union_sets(q, p);
            ++unions;
            assigned_[p] = 1;
            attached = true;
            break;
          }
        }
      }
      if (!attached) {
        ++noise_provisional;
        noise_pts_.push_back(p);
        for (const auto& [q, d2] : nbhd)
          if (q != p) noise_nbrs_.push_back(q);
        noise_off_.push_back(static_cast<std::uint32_t>(noise_nbrs_.size()));
      }
      continue;
    }

    // Core point.
    is_core_[p] = 1;
    assigned_[p] = 1;

    // Dynamic wndq promotion (Algorithm 6 lines 18-21): if >= MinPts of the
    // neighbors sit strictly within eps/2 of p, they are pairwise strictly
    // within eps of each other, so each of them is core — no query needed.
    if (cfg_.dynamic_promotion) {
      std::size_t inner = 0;
      for (const auto& [q, d2] : nbhd)
        if (d2 < half2) ++inner;
      if (inner >= min_pts) {
        for (const auto& [q, d2] : nbhd) {
          if (d2 < half2 && !is_core_[q]) {
            is_core_[q] = 1;
            if (!wndq_[q]) {
              wndq_[q] = kWndqPromotion;
              ++stats.wndq_core_points;
            }
          }
        }
      }
    }

    for (const auto& [q, d2] : nbhd) {
      if (is_core_[q]) {
        uf_.union_sets(p, q);
        ++unions;
        assigned_[q] = 1;
      } else if (!assigned_[q]) {
        uf_.union_sets(p, q);
        ++unions;
        assigned_[q] = 1;
      }
    }
  }
  stats.avoided_dmc = avoided.dmc();
  stats.avoided_cmc = avoided.cmc();
  stats.avoided_promotion = avoided.promotion();
  metrics_.add(obs::Counter::kQueriesPerformed, stats.queries_performed);
  metrics_.add(obs::Counter::kQueriesAvoidedDmc, avoided.dmc());
  metrics_.add(obs::Counter::kQueriesAvoidedCmc, avoided.cmc());
  metrics_.add(obs::Counter::kQueriesAvoidedPromotion, avoided.promotion());
  metrics_.add(obs::Counter::kMcDense, stats.dmc);
  metrics_.add(obs::Counter::kMcCore, stats.cmc);
  metrics_.add(obs::Counter::kMcSparse, stats.smc);
  metrics_.add(obs::Counter::kUnionCalls, unions);
  metrics_.add(obs::Counter::kNoiseProvisional, noise_provisional);
  charge_scratch();
  stats.t_cluster = timer.seconds();
}

// Thread-parallel Algorithms 4 + 6, exact-equivalent to the sequential path
// above (full argument in docs/PARALLEL.md). Sketch:
//   * Algorithm 4 parallelizes over MCs: every point belongs to exactly one
//     MC, so member flag writes are exclusive to the owning thread; only the
//     lock-free union-find is shared.
//   * Algorithm 6 parallelizes over points. Core points publish is_core_
//     with seq_cst BEFORE scanning their neighborhood; for any two
//     concurrently-queried core neighbors the store/load pattern is Dekker's,
//     so at least one side observes the other and performs the union. Border
//     points are claimed with an atomic exchange on assigned_ (exactly one
//     core adopts an unassigned non-core neighbor — the classic parallel
//     DBSCAN border race). Missed late-promoted cores are repaired by
//     Algorithms 7/8 exactly as in the sequential engine.
//   * wndq counts and the provisional-noise CSR go to per-thread accumulators
//     merged after the join, so the Algorithm 8 input keeps its layout.
void MuDbscanEngine::cluster_parallel() {
  obs::Span phase_span(cfg_.tracer, "phase.cluster");
  WallTimer timer;
  const std::size_t n = ds_->size();
  const double eps = params_.eps;
  const double half2 = (eps / 2.0) * (eps / 2.0);
  const std::uint32_t min_pts = params_.min_pts;
  ThreadPool* pool = pool_.get();
  const unsigned nt = pool->num_threads();

  // --- Algorithm 4 (parallel over MCs) ----------------------------------
  obs::Span alg4_span(cfg_.tracer, "alg4.process_mcs");
  struct alignas(64) McAccum {
    std::uint64_t dmc = 0, cmc = 0, smc = 0;
    std::uint64_t unions = 0;
    std::uint64_t wndq = 0;
  };
  std::vector<McAccum> mc_acc(nt);
  parallel_for_chunked(
      pool, tree_->num_mcs(), 16,
      [&](std::size_t begin, std::size_t end, unsigned tid) {
        McAccum& acc = mc_acc[tid];
        for (std::size_t zi = begin; zi < end; ++zi) {
          const MicroCluster& mc = tree_->mc(static_cast<McId>(zi));
          const McKind kind = mc.classify(min_pts);
          if (kind == McKind::Sparse) {
            ++acc.smc;
            continue;
          }
          if (kind == McKind::Dense) {
            ++acc.dmc;
            const double* c = ds_->ptr(mc.center);
            for (PointId q : mc.members) {
              if (q != mc.center &&
                  sq_dist(c, ds_->ptr(q), ds_->dim()) >= half2)
                continue;
              // q is exclusive to this MC (hence this thread): plain writes.
              if (!wndq_[q]) {
                wndq_[q] = kWndqDmc;
                is_core_[q] = 1;
                ++acc.wndq;
              }
            }
          } else {  // Core MC
            ++acc.cmc;
            if (!wndq_[mc.center]) {
              wndq_[mc.center] = kWndqCmc;
              is_core_[mc.center] = 1;
              ++acc.wndq;
            }
          }
          for (PointId q : mc.members) {
            uf_.union_sets(mc.center, q);
            assigned_[q] = 1;
          }
          acc.unions += mc.members.size();
        }
      },
      guard_);
  std::uint64_t unions = 0;
  for (const McAccum& acc : mc_acc) {
    stats.dmc += acc.dmc;
    stats.cmc += acc.cmc;
    stats.smc += acc.smc;
    unions += acc.unions;
    stats.wndq_core_points += acc.wndq;
  }
  alg4_span.end();

  // --- Algorithm 6 (parallel over points) -------------------------------
  obs::Span alg6_span(cfg_.tracer, "alg6.process_rem_points");
  struct alignas(64) PtAccum {
    std::uint64_t queries = 0;
    std::uint64_t unions = 0;
    std::uint64_t wndq = 0;
    AvoidedLedger avoided;
    std::vector<PointId> noise_pts;
    std::vector<std::uint32_t> noise_len;  // neighbors stored per noise point
    std::vector<PointId> noise_nbrs;
    std::vector<std::pair<PointId, double>> nbhd;  // query scratch
  };
  std::vector<PtAccum> pt_acc(nt);

  parallel_for_chunked(
      pool, n, 64, [&](std::size_t begin, std::size_t end, unsigned tid) {
        PtAccum& acc = pt_acc[tid];
        auto& nbhd = acc.nbhd;
        for (std::size_t i = begin; i < end; ++i) {
          const PointId p = static_cast<PointId>(i);
          // A concurrent promotion may land after this check — p then runs a
          // redundant (but harmless) query, exactly like a sequential run
          // that promoted p after its turn. The skip site runs exactly once
          // per point, so the per-reason ledger sums with `queries` to n.
          const std::uint8_t reason =
              flag(wndq_, p).load(std::memory_order_relaxed);
          if (reason) {
            acc.avoided.count(reason);
            continue;
          }
          ++acc.queries;

          nbhd.clear();
          tree_->query_neighborhood(p, eps, nbhd, cfg_.mbr_filtration);
          metrics_.observe(obs::Hist::kNeighborCount, nbhd.size());

          if (nbhd.size() < min_pts) {
            bool attached =
                flag(assigned_, p).load(std::memory_order_acquire) != 0;
            if (!attached) {
              for (const auto& [q, d2] : nbhd) {
                if (flag(is_core_, q).load(std::memory_order_seq_cst)) {
                  // Claim before union: a concurrent core may adopt p via the
                  // same exchange, and only the exchange winner unions — a
                  // load/union/store here would let both unions run and
                  // bridge two clusters through non-core p.
                  if (!flag(assigned_, p)
                           .exchange(1, std::memory_order_acq_rel)) {
                    uf_.union_sets(q, p);
                    ++acc.unions;
                  }
                  attached = true;
                  break;
                }
              }
            }
            if (!attached) {
              // Conservative: a neighbor may become core after this scan;
              // Algorithm 8 re-checks the stored neighborhood against the
              // final core flags and repairs the label.
              acc.noise_pts.push_back(p);
              std::uint32_t len = 0;
              for (const auto& [q, d2] : nbhd)
                if (q != p) {
                  acc.noise_nbrs.push_back(q);
                  ++len;
                }
              acc.noise_len.push_back(len);
            }
            continue;
          }

          // Core point: publish the flag BEFORE scanning neighbors (seq_cst;
          // Dekker pairing with other queried cores — see docs/PARALLEL.md).
          flag(is_core_, p).store(1, std::memory_order_seq_cst);
          flag(assigned_, p).store(1, std::memory_order_release);

          if (cfg_.dynamic_promotion) {
            std::size_t inner = 0;
            for (const auto& [q, d2] : nbhd)
              if (d2 < half2) ++inner;
            if (inner >= min_pts) {
              for (const auto& [q, d2] : nbhd) {
                if (d2 >= half2) continue;
                const bool was_core =
                    flag(is_core_, q).exchange(1, std::memory_order_seq_cst);
                if (!was_core) {
                  // Claim the tag only if untagged (compare-exchange from 0,
                  // not a blind exchange): an Algorithm 4 DMC/CMC reason is
                  // never overwritten, keeping the dmc/cmc ledger counts
                  // deterministic at every thread count.
                  std::uint8_t expected = kWndqNone;
                  if (flag(wndq_, q).compare_exchange_strong(
                          expected, kWndqPromotion,
                          std::memory_order_relaxed))
                    ++acc.wndq;
                }
              }
            }
          }

          for (const auto& [q, d2] : nbhd) {
            if (flag(is_core_, q).load(std::memory_order_seq_cst)) {
              uf_.union_sets(p, q);
              ++acc.unions;
              flag(assigned_, q).store(1, std::memory_order_release);
            } else if (!flag(assigned_, q)
                            .exchange(1, std::memory_order_acq_rel)) {
              // Atomically adopted q as this cluster's border point; exactly
              // one core wins this exchange (the parallel-DBSCAN border
              // race), mirroring the sequential first-claimer rule.
              uf_.union_sets(p, q);
              ++acc.unions;
            }
          }
        }
      },
      guard_);
  alg6_span.end();

  // Per-thread scratch is the phase's hidden allocation: charge its actual
  // footprint while it coexists with the merged engine buffers, then let it
  // go out of scope (the ScopedCharge releases with it).
  ScopedCharge thread_scratch;
  if (guard_) {
    std::size_t scratch_bytes = 0;
    for (const PtAccum& acc : pt_acc)
      scratch_bytes += vector_bytes(acc.noise_pts) +
                       vector_bytes(acc.noise_len) +
                       vector_bytes(acc.noise_nbrs) + vector_bytes(acc.nbhd);
    thread_scratch.acquire_throw(guard_, scratch_bytes,
                                 "per-thread scratch buffers");
  }

  AvoidedLedger avoided;
  std::uint64_t noise_provisional = 0;
  for (PtAccum& acc : pt_acc) {
    stats.queries_performed += acc.queries;
    avoided.merge(acc.avoided);
    unions += acc.unions;
    noise_provisional += acc.noise_pts.size();
    stats.wndq_core_points += acc.wndq;
    noise_pts_.insert(noise_pts_.end(), acc.noise_pts.begin(),
                      acc.noise_pts.end());
    noise_nbrs_.insert(noise_nbrs_.end(), acc.noise_nbrs.begin(),
                       acc.noise_nbrs.end());
    for (std::uint32_t len : acc.noise_len)
      noise_off_.push_back(noise_off_.back() + len);
  }
  stats.avoided_dmc = avoided.dmc();
  stats.avoided_cmc = avoided.cmc();
  stats.avoided_promotion = avoided.promotion();
  // Single post-join publish: the registry merge order is the deterministic
  // accumulator order above, not worker scheduling.
  metrics_.add(obs::Counter::kQueriesPerformed, stats.queries_performed);
  metrics_.add(obs::Counter::kQueriesAvoidedDmc, avoided.dmc());
  metrics_.add(obs::Counter::kQueriesAvoidedCmc, avoided.cmc());
  metrics_.add(obs::Counter::kQueriesAvoidedPromotion, avoided.promotion());
  metrics_.add(obs::Counter::kMcDense, stats.dmc);
  metrics_.add(obs::Counter::kMcCore, stats.cmc);
  metrics_.add(obs::Counter::kMcSparse, stats.smc);
  metrics_.add(obs::Counter::kUnionCalls, unions);
  metrics_.add(obs::Counter::kNoiseProvisional, noise_provisional);
  charge_scratch();
  stats.t_cluster = timer.seconds();
}

void MuDbscanEngine::charge_scratch() {
  if (!guard_) return;
  scratch_charge_.acquire_throw(
      guard_,
      vector_bytes(noise_pts_) + vector_bytes(noise_off_) +
          vector_bytes(noise_nbrs_),
      "engine noise CSR");
}

void MuDbscanEngine::finalize_metrics() {
  metrics_.add(obs::Counter::kWndqCorePoints, stats.wndq_core_points);
  metrics_.add(obs::Counter::kMcDeferredPoints, tree_->deferred_points());
  metrics_.add(obs::Counter::kAuxTreesSearched, tree_->aux_trees_searched());
  const MuRTree::IndexCounters ic = tree_->index_counters();
  metrics_.add(obs::Counter::kRtreeNodeVisits, ic.node_visits);
  metrics_.add(obs::Counter::kRtreeDistanceEvals, ic.distance_evals);
  metrics_.add(obs::Counter::kKernelBlocks, ic.kernel_blocks);
  metrics_.add(obs::Counter::kKernelTailPoints, ic.kernel_tail_points);
  for (McId z = 0; z < tree_->num_mcs(); ++z) {
    const MicroCluster& mc = tree_->mc(z);
    metrics_.observe(obs::Hist::kMcSize, mc.members.size());
    metrics_.observe(obs::Hist::kReachableLen, mc.reach.size());
  }
}

// One code path at every thread count (no pool: the loops run inline). Once
// cluster() joins, is_core_ is read-only; Algorithm 7 writes only the
// lock-free union-find and Algorithm 8 only its own noise point's flag.
void MuDbscanEngine::post_process() {
  obs::Span phase_span(cfg_.tracer, "phase.post_process");
  WallTimer timer;
  const double eps = params_.eps, eps2 = eps * eps;
  const std::uint32_t min_pts = params_.min_pts;
  struct alignas(64) PostAccum {
    std::uint64_t pairs = 0, pairs_skipped = 0, evals = 0;
    std::uint64_t unions = 0, repaired = 0;
  };
  std::vector<PostAccum> acc(pool_ ? pool_->num_threads() : 1);

  // --- Algorithm 7: POST-PROCESSING-CORE --------------------------------
  // wndq-core points never ran a query, so their unions with cores of
  // *other* clusters may be missing: each wndq point p is united with every
  // core q strictly within eps in the filtered reachable MCs of MC(p). The
  // worklist is gathered MC by MC, so the loop runs per MC pair (z, r),
  // r in z.reach, over z's wndq points. If one set already holds those
  // points and r's cores, the pair is skipped; else, per point, the MBR
  // filter, a skip when p shares the set of r's cores, and a scan of r's
  // cores in other sets. Sets only merge, so a skip never goes stale and the
  // final sets are those of the per-point scan; a concurrent union can only
  // make a skip a stale negative (a redundant check).
  obs::Span alg7_span(cfg_.tracer, "alg7.post_core");
  ScopedCharge work_charge;
  work_charge.acquire_throw(guard_, stats.wndq_core_points * sizeof(PointId),
                            "algorithm 7 worklist");
  std::vector<PointId> work;
  work.reserve(stats.wndq_core_points);
  for (McId z = 0; z < tree_->num_mcs(); ++z)
    for (PointId q : tree_->mc(z).members)
      if (wndq_[q]) work.push_back(q);
  // The one set holding every core of `pts` (points of `mc`), or
  // kInvalidPoint when they span several sets or there are none. Algorithm 4
  // united every member of a non-sparse MC with its centre.
  const auto core_set = [&](const MicroCluster& mc,
                            std::span<const PointId> pts) {
    if (mc.classify(min_pts) != McKind::Sparse) return uf_.find(mc.center);
    PointId set = kInvalidPoint;
    for (PointId p : pts) {
      if (!is_core_[p]) continue;
      const PointId s = uf_.find(p);
      if (set != kInvalidPoint && s != set) return kInvalidPoint;
      set = s;
    }
    return set;
  };
  parallel_for_chunked(
      pool_.get(), work.size(), kPostCoreChunk,
      [&](std::size_t begin, std::size_t end, unsigned tid) {
        PostAccum& a = acc[tid];
        for (std::size_t run = begin; run < end;) {
          const McId z = tree_->mc_of_point(work[run]);
          std::size_t run_end = run + 1;
          while (run_end < end && tree_->mc_of_point(work[run_end]) == z)
            ++run_end;
          const std::span<const PointId> pts(&work[run], run_end - run);
          const MicroCluster& mz = tree_->mc(z);
          PointId z_set = core_set(mz, pts);
          for (McId r : mz.reach) {
            const MicroCluster& mr = tree_->mc(r);
            ++a.pairs;
            const PointId r_set = core_set(mr, mr.members);
            if (z_set != kInvalidPoint) z_set = uf_.find(z_set);
            if (r_set != kInvalidPoint && r_set == z_set) {
              ++a.pairs_skipped;
              continue;
            }
            for (PointId p : pts) {
              const auto pt = ds_->point(p);
              if (cfg_.mbr_filtration &&
                  !tree_->mc_overlaps_ball(r, pt.data(), eps))
                continue;
              if (r_set != kInvalidPoint && uf_.find(r_set) == uf_.find(p))
                continue;
              for (PointId q : mr.members) {
                if (!is_core_[q]) continue;
                if (uf_.find(q) == uf_.find(p)) continue;
                ++a.evals;
                if (sq_dist(pt.data(), ds_->ptr(q), ds_->dim()) < eps2) {
                  uf_.union_sets(p, q);
                  ++a.unions;
                }
              }
            }
          }
          run = run_end;
        }
      },
      guard_);
  alg7_span.end();

  // --- Algorithm 8: POST-PROCESSING-NOISE -------------------------------
  // A provisional noise point whose stored neighborhood now contains a core
  // point (one promoted to wndq-core after the noise point was processed)
  // is in fact a border point.
  obs::Span alg8_span(cfg_.tracer, "alg8.post_noise");
  parallel_for_chunked(
      pool_.get(), noise_pts_.size(), kPostNoiseChunk,
      [&](std::size_t begin, std::size_t end, unsigned tid) {
        PostAccum& a = acc[tid];
        for (std::size_t i = begin; i < end; ++i) {
          const PointId p = noise_pts_[i];
          if (assigned_[p]) continue;
          for (std::uint32_t j = noise_off_[i]; j < noise_off_[i + 1]; ++j) {
            const PointId q = noise_nbrs_[j];
            if (is_core_[q]) {
              uf_.union_sets(q, p);
              ++a.unions;
              ++a.repaired;
              assigned_[p] = 1;
              break;
            }
          }
        }
      },
      guard_);
  alg8_span.end();

  std::uint64_t unions = 0, repaired = 0;
  for (const PostAccum& a : acc) {
    stats.post_core_mc_pairs += a.pairs;
    stats.post_core_mc_pairs_skipped += a.pairs_skipped;
    stats.post_core_distance_evals += a.evals;
    unions += a.unions;
    repaired += a.repaired;
  }
  metrics_.add(obs::Counter::kPostCoreMcPairs, stats.post_core_mc_pairs);
  metrics_.add(obs::Counter::kPostCoreMcPairsSkipped,
               stats.post_core_mc_pairs_skipped);
  metrics_.add(obs::Counter::kPostCoreDistanceEvals,
               stats.post_core_distance_evals);
  metrics_.add(obs::Counter::kUnionCalls, unions);
  metrics_.add(obs::Counter::kBorderRepaired, repaired);
  finalize_metrics();
  stats.t_post = timer.seconds();
}

ClusteringResult MuDbscanEngine::extract_result() const {
  // uf_ is const in this context, which selects the non-compressing
  // read-only find — no const_cast needed.
  return extract_labels(std::as_const(uf_), is_core_, assigned_);
}

void MuDbscanEngine::query_neighborhood(
    PointId p, std::vector<std::pair<PointId, double>>& out) const {
  tree_->query_neighborhood(p, params_.eps, out);
}

ClusteringResult mu_dbscan(const Dataset& ds, const DbscanParams& params,
                           MuDbscanStats* stats, const MuDbscanConfig& cfg) {
  MuDbscanEngine engine(ds, params, cfg);
  engine.run_all();
  if (stats) *stats = engine.stats;
  return engine.extract_result();
}

}  // namespace udb
