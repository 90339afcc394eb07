#include "dist/mudbscan_d.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/runguard.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"
#include "core/mudbscan_engine.hpp"
#include "dist/checkpoint.hpp"
#include "dist/driver_common.hpp"
#include "dist/halo.hpp"
#include "obs/trace.hpp"

namespace udb {

namespace {

// Virtual-time cost per checkpointed byte (write and restore), modeling the
// snapshot I/O a real deployment would pay (~1 GB/s).
constexpr double kCheckpointBeta = 1e-9;

// µDBSCAN-D's local step: the engine's four phases.
class EngineStep final : public LocalStep {
 public:
  EngineStep(const Dataset& ds, const DbscanParams& params,
             const MuDbscanConfig& cfg)
      : engine_(ds, params, cfg) {}
  bool build_index() override {
    engine_.build_tree();
    return true;
  }
  bool find_reachable() override {
    engine_.find_reachable();
    return true;
  }
  bool cluster() override {
    engine_.cluster();
    return true;
  }
  bool post_process() override {
    engine_.post_process();
    return true;
  }
  UnionFind& uf() override { return engine_.uf(); }
  const std::vector<std::uint8_t>& core_flags() const override {
    return engine_.core_flags();
  }
  const std::vector<std::uint8_t>& assigned_flags() const override {
    return engine_.assigned_flags();
  }
  std::uint64_t queries_performed() const override {
    return engine_.stats.queries_performed;
  }

 private:
  MuDbscanEngine engine_;
};

// A local step restored from its snapshot, for any driver's step: replaying
// the saved roots reproduces the same partition of combined indices (root
// identities may differ; the merge only groups). Its stages do nothing, so a
// restoring rank passes the same barriers as a computing one.
class RestoredStep final : public LocalStep {
 public:
  explicit RestoredStep(const LocalCkpt& lc)
      : lc_(lc), uf_(lc.uf_root.size()) {
    for (std::size_t i = 0; i < lc.uf_root.size(); ++i) {
      const PointId pt = static_cast<PointId>(i);
      if (lc.uf_root[i] != pt) (void)uf_.union_sets(pt, lc.uf_root[i]);
    }
  }
  UnionFind& uf() override { return uf_; }
  const std::vector<std::uint8_t>& core_flags() const override {
    return lc_.is_core;
  }
  const std::vector<std::uint8_t>& assigned_flags() const override {
    return lc_.assigned;
  }
  std::uint64_t queries_performed() const override { return 0; }

 private:
  const LocalCkpt& lc_;
  UnionFind uf_;
};

// Everything one attempt shares across its rank threads. Each rank writes
// only its own checkpoint slot, its own record and its own gids in the
// result arrays, so nothing here needs a lock.
struct AttemptContext {
  const Dataset* global = nullptr;
  DbscanParams params;
  const DistConfig* cfg = nullptr;
  const MakeLocalStep* make_local = nullptr;
  CheckpointStore* store = nullptr;  // null: no checkpoints (idle plan)
  const std::vector<int>* logical_of = nullptr;  // comm rank -> logical rank
  const std::vector<int>* comm_of = nullptr;     // logical rank -> comm rank
  const std::vector<int>* owner_now = nullptr;   // logical rank -> logical
  ClusteringResult* result = nullptr;
  std::vector<MuDbscanDRank>* records = nullptr;  // indexed by comm rank
  std::uint64_t* union_pairs = nullptr;           // written by comm rank 0
  std::atomic<std::uint64_t>* ckpt_bytes = nullptr;
};

void run_rank(mpi::Comm& comm, const AttemptContext& ctx) {
  const int me = comm.rank();
  const int logical = (*ctx.logical_of)[static_cast<std::size_t>(me)];
  const Dataset& global = *ctx.global;
  const std::size_t dim = global.dim();
  const double eps = ctx.params.eps;
  CheckpointStore* store = ctx.store;
  MuDbscanDRank& rec = (*ctx.records)[static_cast<std::size_t>(me)];
  rec.rank = logical;

  const auto charge_ckpt = [&](std::size_t bytes) {
    comm.charge(static_cast<double>(bytes) * kCheckpointBeta);
    ctx.ckpt_bytes->fetch_add(bytes);
  };
  // Without a store the phase outputs live in these rank-local slots, which
  // start empty, so every phase computes fresh.
  PartitionCkpt own_pc;
  HaloCkpt own_hc;
  LocalCkpt own_lc;
  PartitionCkpt& pc = store ? store->partition(logical) : own_pc;
  HaloCkpt& hc = store ? store->halo(logical) : own_hc;
  LocalCkpt& lc = store ? store->local(logical) : own_lc;

  // Phase times are this rank's own virtual-time delta; barriers between
  // phases stop one phase's load imbalance from bleeding into the next
  // phase's measurement (the reported makespan is the max over ranks).

  // ---- phase 1: partition (snapshot reused verbatim on recovery) ---------
  comm.fault_point(kFtPointPartition);
  double t0 = comm.vtime();
  if (!pc.valid) {
    // Fresh start (first attempt or full restart). Partition validity is
    // all-or-nothing across alive ranks, so every rank takes the same branch
    // and the collective stays aligned.
    PartitionResult block = initial_block(global, me, comm.size());
    PartitionResult part = kd_partition(comm, dim, std::move(block.coords),
                                        std::move(block.gids));
    pc.coords = std::move(part.coords);
    pc.gids = std::move(part.gids);
    pc.valid = true;
    if (store) charge_ckpt(pc.bytes());
  }
  rec.t_partition = comm.vtime() - t0;
  comm.barrier();

  // ---- phase 2: halo exchange --------------------------------------------
  comm.fault_point(kFtPointHalo);
  t0 = comm.vtime();
  // The strip exchange re-runs collectively every attempt: that is how an
  // adopter's grown region receives its complete eps-halo. A rank with a
  // valid halo snapshot keeps the snapshot — its bounding box is unchanged,
  // so the freshly received strip is the same point set (possibly reordered,
  // and the local-clustering snapshot is index-order dependent) — and takes
  // only the current rank boxes from the fresh exchange.
  HaloResult fresh = exchange_halo(comm, dim, pc.coords, pc.gids, eps);
  if (!hc.valid) {
    hc.coords = std::move(fresh.coords);
    hc.gids = std::move(fresh.gids);
    hc.owner_logical.resize(fresh.owner.size());
    for (std::size_t i = 0; i < fresh.owner.size(); ++i)
      hc.owner_logical[i] =
          (*ctx.logical_of)[static_cast<std::size_t>(fresh.owner[i])];
    hc.valid = true;
  }
  if (store) charge_ckpt(hc.bytes());
  const std::vector<Box> rank_boxes = std::move(fresh.rank_boxes);
  // Route each halo copy to its *current* owner: the rank that holds the
  // point locally in this attempt (a dead owner's points belong to its
  // adopter), expressed in this attempt's communicator numbering.
  std::vector<int> halo_owner(hc.owner_logical.size());
  for (std::size_t i = 0; i < halo_owner.size(); ++i) {
    const int now =
        (*ctx.owner_now)[static_cast<std::size_t>(hc.owner_logical[i])];
    halo_owner[i] = (*ctx.comm_of)[static_cast<std::size_t>(now)];
  }
  rec.t_halo = comm.vtime() - t0;
  comm.barrier();

  const std::size_t n_local = pc.gids.size();
  rec.n_local = n_local;
  rec.n_halo = hc.gids.size();
  // Snapshots must outlive the attempt; rank-local slots can be consumed.
  const std::vector<std::uint64_t> gids =
      local_then_halo(store ? pc.gids : std::move(pc.gids), hc.gids);
  const Dataset comb_ds(dim, local_then_halo(
                                 store ? pc.coords : std::move(pc.coords),
                                 hc.coords));
  const std::size_t n_comb = gids.size();

  // ---- phase 3: local clustering (pure compute; snapshot or replay) ------
  comm.fault_point(kFtPointLocal);
  std::unique_ptr<LocalStep> local_step;
  if (lc.valid) {
    local_step = std::make_unique<RestoredStep>(lc);
    charge_ckpt(lc.bytes());
  } else {
    // Halo points participate fully: their classification may undercount
    // (their witnesses can lie outside our halo) but never overcounts, so
    // every local decision is globally sound; the merge phase consults each
    // halo point's owner for its authoritative core status.
    local_step = (*ctx.make_local)(comb_ds);
  }
  const auto step = [&](double& t, bool (LocalStep::*run)()) {
    const double t_begin = comm.vtime();
    t = ((*local_step).*run)() ? comm.vtime() - t_begin : 0.0;
  };
  step(rec.t_tree, &LocalStep::build_index);
  comm.barrier();
  step(rec.t_reach, &LocalStep::find_reachable);
  comm.barrier();
  step(rec.t_cluster, &LocalStep::cluster);
  comm.barrier();
  step(rec.t_post, &LocalStep::post_process);
  rec.queries_performed = local_step->queries_performed();
  if (store && !lc.valid) {
    lc.uf_root.resize(n_comb);
    for (std::size_t i = 0; i < n_comb; ++i)
      lc.uf_root[i] = local_step->uf().find(static_cast<PointId>(i));
    lc.is_core = local_step->core_flags();
    lc.assigned = local_step->assigned_flags();
    lc.valid = true;
    charge_ckpt(lc.bytes());
  }
  comm.barrier();

  // ---- phase 4: merge (always replayed — it is the global phase) ---------
  comm.fault_point(kFtPointMerge);
  t0 = comm.vtime();
  MergeStats merge_stats;
  DistClustering local = merge_local_clusterings(
      comm, dim, eps, comb_ds.raw(), n_local, gids, halo_owner, rank_boxes,
      local_step->uf(), local_step->core_flags(),
      local_step->assigned_flags(), &merge_stats, ctx.cfg->merge_strategy);
  rec.t_merge = comm.vtime() - t0;
  rec.cross_edges = merge_stats.cross_edges;
  rec.comm = comm.comm_stats();
  if (me == 0) *ctx.union_pairs = merge_stats.union_pairs;  // same on all

  for (std::size_t i = 0; i < n_local; ++i) {
    ctx.result->label[gids[i]] = local.label[i];
    ctx.result->is_core[gids[i]] = local.is_core[i];
  }
}

// The attempt's plan: crash/slow specs of dead ranks are dropped, the rest
// are translated to the attempt's communicator numbering, and message faults
// are re-rolled per attempt (a retry of the same phase must not
// deterministically hit the identical loss pattern forever).
mpi::FaultPlan attempt_plan(const mpi::FaultPlan& base, int attempt,
                            const std::vector<int>& comm_of) {
  const auto comm_rank = [&](int logical) {
    return logical < 0 || logical >= static_cast<int>(comm_of.size())
               ? -1
               : comm_of[static_cast<std::size_t>(logical)];
  };
  mpi::FaultPlan plan = base;
  if (attempt > 0)
    plan.seed = mpi::fault_mix(base.seed + static_cast<std::uint64_t>(attempt));
  plan.crashes.clear();
  for (mpi::CrashSpec c : base.crashes) {
    c.rank = comm_rank(c.rank);
    if (c.rank >= 0) plan.crashes.push_back(std::move(c));
  }
  plan.slowdowns.clear();
  for (mpi::SlowSpec s : base.slowdowns) {
    s.rank = comm_rank(s.rank);
    if (s.rank >= 0) plan.slowdowns.push_back(s);
  }
  return plan;
}

}  // namespace

ClusteringResult run_distributed(const Dataset& global,
                                 const DbscanParams& params, int nranks,
                                 MuDbscanDStats* stats, const DistConfig& cfg,
                                 const MakeLocalStep& make_local) {
  if (nranks < 1)
    throw std::invalid_argument("distributed DBSCAN: nranks must be >= 1");
  const std::size_t n = global.size();

  ClusteringResult result;
  result.label.assign(n, kNoise);
  result.is_core.assign(n, 0);

  // A plan that injects nothing is not installed, so no recv timeout is
  // armed; nothing is checkpointed, and the run is one attempt.
  const bool faulty = cfg.plan.injects_faults();
  const int max_attempts = faulty ? nranks + 2 : 1;
  CheckpointStore store(nranks);
  std::vector<int> alive(static_cast<std::size_t>(nranks));
  std::iota(alive.begin(), alive.end(), 0);
  std::vector<int> owner_now = alive;

  MuDbscanDStats out;
  std::atomic<std::uint64_t> ckpt_bytes{0};
  WallTimer wall;
  RunGuard* guard = cfg.mu.guard;
  bool success = false;

  for (int attempt = 0; attempt < max_attempts && !success; ++attempt) {
    if (attempt > 0 && guard) guard->check_throw("mudbscan_d attempt start");
    ++out.attempts;
    const int p = static_cast<int>(alive.size());
    std::vector<int> comm_of(static_cast<std::size_t>(nranks), -1);
    for (int i = 0; i < p; ++i)
      comm_of[static_cast<std::size_t>(alive[static_cast<std::size_t>(i)])] = i;

    mpi::Runtime rt(p, cfg.cost);
    if (faulty) {
      mpi::FaultPlan plan = attempt_plan(cfg.plan, attempt, comm_of);
      // Failure-detection timeout from the remaining run deadline: never
      // block a recv longer than half the time the run has left (floor 50 ms
      // keeps detection robust against scheduler jitter). Without a deadline
      // the plan's constant stands.
      if (guard && guard->has_deadline()) {
        const double budget = std::max(0.05, guard->remaining_seconds() / 2.0);
        if (plan.recv_timeout_real < 0.0 || plan.recv_timeout_real > budget)
          plan.recv_timeout_real = budget;
      }
      rt.set_fault_plan(std::move(plan));
    }

    std::vector<MuDbscanDRank> records(static_cast<std::size_t>(p));
    std::uint64_t union_pairs = 0;
    std::atomic<bool> attempt_failed{false};

    AttemptContext ctx;
    ctx.global = &global;
    ctx.params = params;
    ctx.cfg = &cfg;
    ctx.make_local = &make_local;
    ctx.store = faulty ? &store : nullptr;
    ctx.logical_of = &alive;
    ctx.comm_of = &comm_of;
    ctx.owner_now = &owner_now;
    ctx.result = &result;
    ctx.records = &records;
    ctx.union_pairs = &union_pairs;
    ctx.ckpt_bytes = &ckpt_bytes;

    rt.run([&](mpi::Comm& comm) {
      // Spans emitted by this rank's engine carry the logical rank as their
      // trace pid, so Perfetto renders one process lane per simulated rank.
      const int prev_pid =
          obs::set_trace_pid(alive[static_cast<std::size_t>(comm.rank())]);
      try {
        run_rank(comm, ctx);
      } catch (const mpi::TimeoutError&) {
        // A peer stopped talking (crashed rank or lost message): abort the
        // attempt everywhere so no survivor stays blocked in a collective.
        comm.abort_attempt();
        attempt_failed.store(true);
      } catch (const mpi::AttemptAbortedError&) {
        attempt_failed.store(true);
      }
      obs::set_trace_pid(prev_pid);
    });

    out.vtime_total += rt.makespan();
    out.faults += rt.fault_counts();

    const std::vector<int> crashed_comm = rt.crashed_ranks();
    if (crashed_comm.empty() && !attempt_failed.load()) {
      success = true;
      out.vtime_final_attempt = rt.makespan();
      out.survivor_count = p;
      out.union_pairs = union_pairs;
      for (const MuDbscanDRank& r : records) {
        out.t_partition = std::max(out.t_partition, r.t_partition);
        out.t_halo = std::max(out.t_halo, r.t_halo);
        out.t_tree = std::max(out.t_tree, r.t_tree);
        out.t_reach = std::max(out.t_reach, r.t_reach);
        out.t_cluster = std::max(out.t_cluster, r.t_cluster);
        out.t_post = std::max(out.t_post, r.t_post);
        out.t_merge = std::max(out.t_merge, r.t_merge);
        out.halo_points_total += r.n_halo;
        out.cross_edges += r.cross_edges;
        out.queries_performed += r.queries_performed;
      }
      out.ranks = std::move(records);
      break;
    }

    // ---- recovery bookkeeping (single-threaded, between attempts) --------
    std::vector<int> dead;
    for (int cr : crashed_comm) {
      const int d = alive[static_cast<std::size_t>(cr)];
      const char* phase = !store.partition(d).valid ? kFtPointPartition
                          : !store.halo(d).valid    ? kFtPointHalo
                          : !store.local(d).valid   ? kFtPointLocal
                                                    : kFtPointMerge;
      out.crashed_ranks.push_back(d);
      out.crash_phases.emplace_back(phase);
      dead.push_back(d);
    }
    for (int d : dead)
      alive.erase(std::remove(alive.begin(), alive.end(), d), alive.end());
    if (alive.empty())
      throw StatusError(UnavailableError("mudbscan_d: every rank failed"));

    bool full_restart = false;
    for (int d : dead)
      if (!store.partition(d).valid) full_restart = true;
    if (full_restart) {
      // The dead rank died before its partition snapshot existed: its block
      // assignment is unrecoverable, so the survivors restart the pipeline
      // from the shared input.
      store.clear();
      out.full_restarts = true;
      for (int r : alive) owner_now[static_cast<std::size_t>(r)] = r;
    } else {
      for (int d : dead) {
        // Adopt the dead rank's partition block wholesale at the survivor
        // with the fewest points (deterministic; ties to the lowest id).
        // Only the adopter's halo/local snapshots are invalidated — every
        // other survivor replays nothing.
        int adopter = alive.front();
        for (int r : alive)
          if (store.partition(r).gids.size() <
              store.partition(adopter).gids.size())
            adopter = r;
        PartitionCkpt& ap = store.partition(adopter);
        PartitionCkpt& dp = store.partition(d);
        ap.coords.insert(ap.coords.end(), dp.coords.begin(), dp.coords.end());
        ap.gids.insert(ap.gids.end(), dp.gids.begin(), dp.gids.end());
        dp = {};
        store.halo(d) = {};
        store.local(d) = {};
        store.halo(adopter) = {};
        store.local(adopter) = {};
        for (int r = 0; r < nranks; ++r)
          if (owner_now[static_cast<std::size_t>(r)] == d)
            owner_now[static_cast<std::size_t>(r)] = adopter;
      }
    }
  }

  if (!success) {
    if (guard && guard->has_deadline() && guard->remaining_seconds() <= 0.0)
      throw StatusError(DeadlineExceededError(
          "mudbscan_d: deadline exceeded after " +
          std::to_string(out.attempts) + " attempts"));
    throw StatusError(UnavailableError(
        "mudbscan_d: no attempt completed within " +
        std::to_string(max_attempts) + " attempts"));
  }

  out.checkpoint_bytes = ckpt_bytes.load();
  out.wall_seconds = wall.seconds();
  if (stats) *stats = std::move(out);
  return result;
}

ClusteringResult mudbscan_d(const Dataset& global, const DbscanParams& params,
                            int nranks, MuDbscanDStats* stats,
                            const DistConfig& cfg) {
  return run_distributed(
      global, params, nranks, stats, cfg, [&](const Dataset& combined) {
        return std::make_unique<EngineStep>(combined, params, cfg.mu);
      });
}

}  // namespace udb
