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

// Counts of Algorithms 4/6 for one chunk, thread or run: the MC census,
// queries, unions, wndq tags, and the per-reason skip totals of the
// Algorithm 6 skip site. Each point is tested there exactly once, so
// queries + avoided[*] == n.
struct Tally {
  std::uint64_t dmc = 0, cmc = 0, smc = 0;
  std::uint64_t queries = 0, unions = 0, wndq = 0;
  std::uint64_t avoided[4] = {};  // indexed by WndqReason
  void merge(const Tally& o) {
    dmc += o.dmc;
    cmc += o.cmc;
    smc += o.smc;
    queries += o.queries;
    unions += o.unions;
    wndq += o.wndq;
    for (int r = 0; r < 4; ++r) avoided[r] += o.avoided[r];
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

// Algorithms 4 + 6: one code path at every thread count (full argument in
// docs/PARALLEL.md). Sketch:
//   * Algorithm 4 runs over MCs: every point belongs to exactly one MC, so
//     member flag writes are exclusive to the thread owning the MC; only the
//     lock-free union-find is shared.
//   * Algorithm 6 runs over points. Core points publish is_core_ with
//     seq_cst BEFORE scanning their neighborhood; for any two
//     concurrently-queried core neighbors the store/load pattern is Dekker's,
//     so at least one side observes the other and performs the union. Border
//     points are claimed with an atomic exchange on assigned_ (exactly one
//     core adopts an unassigned non-core neighbor — the classic parallel
//     DBSCAN border race). Missed late-promoted cores are repaired by
//     Algorithms 7/8.
//   * Counts and the provisional-noise CSR go to per-thread accumulators
//     merged in tid order after the join. With no pool the loops run inline
//     over ascending chunks into one accumulator, so a one-thread run makes
//     the same unions in the same order and lists noise in point order.
void MuDbscanEngine::cluster() {
  obs::Span phase_span(cfg_.tracer, "phase.cluster");
  WallTimer timer;
  const std::size_t n = ds_->size();
  const double eps = params_.eps;
  const double half2 = (eps / 2.0) * (eps / 2.0);
  const std::uint32_t min_pts = params_.min_pts;

  // Hot counters live in a chunk-local Tally and are added to the thread's
  // accumulator once per chunk: the atomic byte accesses below may alias any
  // escaped memory, so a counter behind a reference would be reloaded and
  // stored on every iteration.
  struct alignas(64) Accum {
    Tally tally;
    // Provisional noise (Algorithm 8 input) in the engine's CSR layout.
    std::vector<PointId> noise_pts;
    std::vector<std::uint32_t> noise_off{0};
    std::vector<PointId> noise_nbrs;
    std::vector<std::pair<PointId, double>> nbhd;  // query scratch
  };
  std::vector<Accum> acc(pool_ ? pool_->num_threads() : 1);

  // --- Algorithm 4: PROCESS-MICRO-CLUSTERS ------------------------------
  // DMC: every inner-circle point is core (Lemma 1) and so is the centre
  // (its eps-ball contains IC plus itself); CMC: the centre is core
  // (Lemma 2). Either way all members are united with the centre — they are
  // directly density-reachable from it.
  obs::Span alg4_span(cfg_.tracer, "alg4.process_mcs");
  parallel_for_chunked(
      pool_.get(), tree_->num_mcs(), 16,
      [&](std::size_t begin, std::size_t end, unsigned tid) {
        Tally t;
        for (std::size_t zi = begin; zi < end; ++zi) {
          const MicroCluster& mc = tree_->mc(static_cast<McId>(zi));
          const McKind kind = mc.classify(min_pts);
          if (kind == McKind::Sparse) {
            ++t.smc;
            continue;
          }
          if (kind == McKind::Dense) {
            ++t.dmc;
            const double* c = ds_->ptr(mc.center);
            for (PointId q : mc.members) {
              if (q != mc.center &&
                  sq_dist(c, ds_->ptr(q), ds_->dim()) >= half2)
                continue;  // outside the inner circle: border for now
              // q is exclusive to this MC (hence this thread): plain writes.
              if (!wndq_[q]) {
                wndq_[q] = kWndqDmc;
                is_core_[q] = 1;
                ++t.wndq;
              }
            }
          } else {  // Core MC
            ++t.cmc;
            if (!wndq_[mc.center]) {
              wndq_[mc.center] = kWndqCmc;
              is_core_[mc.center] = 1;
              ++t.wndq;
            }
          }
          for (PointId q : mc.members) {
            uf_.union_sets(mc.center, q);
            assigned_[q] = 1;
          }
          t.unions += mc.members.size();
        }
        acc[tid].tally.merge(t);
      },
      guard_);
  alg4_span.end();

  // --- Algorithm 6: PROCESS-REM-POINTS ----------------------------------
  // Every byte flag starts 0 and is only ever set to a nonzero value, so a
  // relaxed load that already sees is_core_ or assigned_ set stands in for
  // the exchange (which could only return 1).
  obs::Span alg6_span(cfg_.tracer, "alg6.process_rem_points");
  parallel_for_chunked(
      pool_.get(), n, 64, [&](std::size_t begin, std::size_t end,
                              unsigned tid) {
        Accum& a = acc[tid];
        auto& nbhd = a.nbhd;
        Tally t;
        for (std::size_t i = begin; i < end; ++i) {
          const PointId p = static_cast<PointId>(i);
          // A concurrent promotion may land after this check — p then runs a
          // redundant (but harmless) query, exactly like a sequential run
          // that promoted p after its turn. The skip site runs exactly once
          // per point, so the per-reason ledger sums with `queries` to n.
          const std::uint8_t reason =
              flag(wndq_, p).load(std::memory_order_relaxed);
          if (reason) {
            ++t.avoided[reason & 3];
            continue;
          }
          ++t.queries;

          nbhd.clear();
          tree_->query_neighborhood(p, eps, nbhd, cfg_.mbr_filtration);
          metrics_.observe(obs::Hist::kNeighborCount, nbhd.size());

          if (nbhd.size() < min_pts) {
            // Non-core: border if some already-known core is in range,
            // otherwise provisional noise with the neighborhood remembered
            // for Algorithm 8.
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
                    ++t.unions;
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
              a.noise_pts.push_back(p);
              for (const auto& [q, d2] : nbhd)
                if (q != p) a.noise_nbrs.push_back(q);
              a.noise_off.push_back(
                  static_cast<std::uint32_t>(a.noise_nbrs.size()));
            }
            continue;
          }

          // Core point: publish the flag BEFORE scanning neighbors (seq_cst;
          // Dekker pairing with other queried cores — see docs/PARALLEL.md).
          flag(is_core_, p).store(1, std::memory_order_seq_cst);
          flag(assigned_, p).store(1, std::memory_order_release);

          // Dynamic wndq promotion (Algorithm 6 lines 18-21): if >= MinPts
          // of the neighbors sit strictly within eps/2 of p, they are
          // pairwise strictly within eps of each other, so each of them is
          // core — no query needed.
          if (cfg_.dynamic_promotion) {
            std::size_t inner = 0;
            for (const auto& [q, d2] : nbhd)
              if (d2 < half2) ++inner;
            if (inner >= min_pts) {
              for (const auto& [q, d2] : nbhd) {
                if (d2 >= half2 ||
                    flag(is_core_, q).load(std::memory_order_relaxed) ||
                    flag(is_core_, q).exchange(1, std::memory_order_seq_cst))
                  continue;
                // Claim the tag only if untagged (compare-exchange from 0,
                // not a blind exchange): an Algorithm 4 DMC/CMC reason is
                // never overwritten, keeping the dmc/cmc ledger counts
                // deterministic at every thread count. Only the winner of
                // the is_core_ exchange gets here, so no pre-check.
                std::uint8_t expected = kWndqNone;
                if (flag(wndq_, q).compare_exchange_strong(
                        expected, kWndqPromotion, std::memory_order_relaxed))
                  ++t.wndq;
              }
            }
          }

          for (const auto& [q, d2] : nbhd) {
            if (flag(is_core_, q).load(std::memory_order_seq_cst)) {
              uf_.union_sets(p, q);
              ++t.unions;
              flag(assigned_, q).store(1, std::memory_order_release);
            } else if (!flag(assigned_, q).load(std::memory_order_relaxed) &&
                       !flag(assigned_, q)
                            .exchange(1, std::memory_order_acq_rel)) {
              // Atomically adopted q as this cluster's border point; exactly
              // one core wins this exchange (the parallel-DBSCAN border
              // race), so the first claimer keeps it.
              uf_.union_sets(p, q);
              ++t.unions;
            }
          }
        }
        a.tally.merge(t);
      },
      guard_);
  alg6_span.end();

  // Per-thread scratch is the phase's hidden allocation: charge its actual
  // footprint while it coexists with the merged engine buffers, then let it
  // go out of scope (the ScopedCharge releases with it).
  ScopedCharge thread_scratch;
  if (guard_) {
    std::size_t scratch_bytes = 0;
    for (const Accum& a : acc)
      scratch_bytes += vector_bytes(a.noise_pts) + vector_bytes(a.noise_off) +
                       vector_bytes(a.noise_nbrs) + vector_bytes(a.nbhd);
    thread_scratch.acquire_throw(guard_, scratch_bytes,
                                 "per-thread scratch buffers");
  }

  // Merge in tid order. Until some thread's noise has landed, the
  // accumulator's CSR is moved in whole (the only merge at one thread).
  Tally total;
  for (Accum& a : acc) {
    total.merge(a.tally);
    if (noise_pts_.empty()) {
      noise_pts_ = std::move(a.noise_pts);
      noise_off_ = std::move(a.noise_off);
      noise_nbrs_ = std::move(a.noise_nbrs);
      continue;
    }
    const std::uint32_t base = noise_off_.back();
    noise_pts_.insert(noise_pts_.end(), a.noise_pts.begin(),
                      a.noise_pts.end());
    for (std::size_t j = 1; j < a.noise_off.size(); ++j)
      noise_off_.push_back(base + a.noise_off[j]);
    noise_nbrs_.insert(noise_nbrs_.end(), a.noise_nbrs.begin(),
                       a.noise_nbrs.end());
  }
  stats.dmc = total.dmc;
  stats.cmc = total.cmc;
  stats.smc = total.smc;
  stats.wndq_core_points = total.wndq;
  stats.queries_performed = total.queries;
  stats.avoided_dmc = total.avoided[kWndqDmc];
  stats.avoided_cmc = total.avoided[kWndqCmc];
  stats.avoided_promotion = total.avoided[kWndqPromotion];
  // Single post-join publish: the registry merge order is the deterministic
  // accumulator order above, not worker scheduling.
  metrics_.add(obs::Counter::kQueriesPerformed, total.queries);
  metrics_.add(obs::Counter::kQueriesAvoidedDmc, stats.avoided_dmc);
  metrics_.add(obs::Counter::kQueriesAvoidedCmc, stats.avoided_cmc);
  metrics_.add(obs::Counter::kQueriesAvoidedPromotion,
               stats.avoided_promotion);
  metrics_.add(obs::Counter::kMcDense, total.dmc);
  metrics_.add(obs::Counter::kMcCore, total.cmc);
  metrics_.add(obs::Counter::kMcSparse, total.smc);
  metrics_.add(obs::Counter::kUnionCalls, total.unions);
  metrics_.add(obs::Counter::kNoiseProvisional, noise_pts_.size());
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
