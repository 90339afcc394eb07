#include "core/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/distance.hpp"

namespace udb {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

IncrementalMuDbscan::IncrementalMuDbscan(std::size_t dim,
                                         const DbscanParams& params)
    : IncrementalMuDbscan(dim, params, Config{}) {}

IncrementalMuDbscan::IncrementalMuDbscan(std::size_t dim,
                                         const DbscanParams& params,
                                         Config cfg)
    : dim_(dim),
      params_(params),
      cfg_(cfg),
      eps2_(params.eps * params.eps),
      centers_(dim, params.eps) {
  if (dim_ == 0)
    throw std::invalid_argument("IncrementalMuDbscan: dim must be > 0");
  if (!(params_.eps > 0.0))
    throw std::invalid_argument("IncrementalMuDbscan: eps must be > 0");
  if (params_.min_pts == 0)
    throw std::invalid_argument("IncrementalMuDbscan: MinPts must be >= 1");
}

// ---------------------------------------------------------------------------
// Micro-cluster layer.
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::collect_neighbors(
    const double* q, PointId exclude,
    std::vector<std::pair<PointId, double>>& out, std::size_t* touched) const {
  // Members lie strictly within eps of their centre, so a point within eps
  // of q is in an MC whose centre is within 2*eps
  // (mc_candidate_radius(eps, eps)). The MCs are scanned nearest centre
  // first, ties by id: the split search expands neighbours in this order and
  // stops once it has reached every seed, so its cost follows the geometry
  // and not the index's layout.
  candidates_.clear();
  centers_.visit_within_2eps(
      q, [&](std::uint32_t z, double d2) { candidates_.emplace_back(d2, z); });
  std::sort(candidates_.begin(), candidates_.end());
  if (touched) *touched += candidates_.size();
  for (const auto& [center_d2, z] : candidates_) {
    for (PointId m : mcs_[z].members) {
      if (m == exclude || !alive_[m]) continue;
      const double d2 = sq_dist(q, ptr(m), dim_);
      if (d2 < eps2_) out.emplace_back(m, d2);
    }
  }
}

void IncrementalMuDbscan::assign_to_mc(PointId id, const double* pt) {
  // Join the first MC whose centre is strictly within eps (the streaming
  // assignment rule: no 2*eps deferral — a stream cannot replay a second
  // pass; exactness does not depend on the MC partition).
  const std::uint32_t hit = centers_.first_within_eps(pt);
  if (hit != CenterCells::kNone) {
    Mc& mc = mcs_[hit];
    mc.members.push_back(id);
    ++mc.alive_members;
    mc_of_[id] = static_cast<McId>(hit);
    if (mc.members.size() > 16 && mc.alive_members * 2 < mc.members.size())
      compact_members(mc);
    return;
  }
  McId z;
  if (free_mcs_.empty()) {
    z = static_cast<McId>(mcs_.size());
    mcs_.emplace_back();
  } else {
    z = free_mcs_.back();
    free_mcs_.pop_back();
  }
  mcs_[z].members.push_back(id);
  mcs_[z].alive_members = 1;
  centers_.insert(pt, z);
  ++live_mcs_;
  mc_of_[id] = z;
}

void IncrementalMuDbscan::compact_members(Mc& mc) {
  std::erase_if(mc.members, [&](PointId m) { return !alive_[m]; });
}

// ---------------------------------------------------------------------------
// Label union-find.
// ---------------------------------------------------------------------------

std::int64_t IncrementalMuDbscan::find_label(std::int64_t l) const {
  while (label_parent_[l] != l) {
    label_parent_[l] = label_parent_[label_parent_[l]];  // path halving
    l = label_parent_[l];
  }
  return l;
}

std::int64_t IncrementalMuDbscan::fresh_label() {
  const auto l = static_cast<std::int64_t>(label_parent_.size());
  label_parent_.push_back(l);
  label_size_.push_back(1);
  return l;
}

std::int64_t IncrementalMuDbscan::union_labels(std::int64_t a, std::int64_t b) {
  a = find_label(a);
  b = find_label(b);
  if (a == b) return a;
  if (label_size_[a] < label_size_[b]) std::swap(a, b);
  label_parent_[b] = a;
  label_size_[a] += label_size_[b];
  ++stats_.graph_edges_repaired;
  return a;
}

// ---------------------------------------------------------------------------
// Border cache.
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::maybe_improve_border(PointId q, PointId core,
                                               double d2) {
  if (border_core_[q] == kInvalidPoint || d2 < border_d2_[q] ||
      (d2 == border_d2_[q] && core < border_core_[q])) {
    border_core_[q] = core;
    border_d2_[q] = d2;
  }
}

void IncrementalMuDbscan::recompute_border(PointId q, std::size_t* touched) {
  border_core_[q] = kInvalidPoint;
  border_d2_[q] = kInf;
  std::vector<std::pair<PointId, double>> nbrs;
  collect_neighbors(ptr(q), q, nbrs, touched);
  for (const auto& [c, d2] : nbrs)
    if (is_core_[c]) maybe_improve_border(q, c, d2);
}

// ---------------------------------------------------------------------------
// Insert.
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::promote_core(
    PointId x, const std::vector<std::pair<PointId, double>>* known_nbrs,
    std::size_t* touched) {
  if (is_core_[x]) return;
  is_core_[x] = 1;
  ++core_count_;
  std::vector<std::pair<PointId, double>> local;
  if (!known_nbrs) {
    collect_neighbors(ptr(x), x, local, touched);
    known_nbrs = &local;
  }
  // Link the new core into the cluster graph: union the clusters of every
  // core neighbor (they all become one — x witnesses the connection).
  std::int64_t root = -1;
  for (const auto& [q, d2] : *known_nbrs) {
    if (!is_core_[q]) continue;
    const std::int64_t r = find_label(core_label_[q]);
    if (root < 0)
      root = r;
    else if (r != root)
      root = union_labels(root, r);
  }
  if (root < 0) {
    root = fresh_label();
  } else {
    ++label_size_[root];
    ++stats_.graph_edges_repaired;  // x attached to an existing cluster
  }
  core_label_[x] = root;
  border_core_[x] = kInvalidPoint;  // cores carry no border attachment
  border_d2_[x] = kInf;
  // x may now be the (d2, id)-minimal core for nearby non-core points.
  for (const auto& [q, d2] : *known_nbrs)
    if (!is_core_[q]) maybe_improve_border(q, x, d2);
}

PointId IncrementalMuDbscan::insert(std::span<const double> pt) {
  if (pt.size() != dim_)
    throw std::invalid_argument("IncrementalMuDbscan::insert: wrong dimension");
  for (const double v : pt)
    if (!std::isfinite(v))
      throw std::invalid_argument(
          "IncrementalMuDbscan::insert: non-finite coordinate");

  if (total_ % kChunkPoints == 0)
    chunks_.push_back(std::make_unique<double[]>(kChunkPoints * dim_));
  const PointId p = static_cast<PointId>(total_++);
  std::memcpy(const_cast<double*>(ptr(p)), pt.data(), dim_ * sizeof(double));
  alive_.push_back(1);
  nbr_count_.push_back(1);  // self
  is_core_.push_back(0);
  mc_of_.push_back(kInvalidMc);
  core_label_.push_back(-1);
  border_core_.push_back(kInvalidPoint);
  border_d2_.push_back(kInf);
  stamp_.push_back(0);
  ++alive_count_;
  ++stats_.inserts;
  const std::uint64_t edges0 = stats_.graph_edges_repaired;

  std::size_t touched = 0;
  std::vector<std::pair<PointId, double>> nbrs;
  collect_neighbors(ptr(p), p, nbrs, &touched);

  // Exact count maintenance (never falls back): insertion only raises
  // counts, so the only status changes are promotions inside N(p) ∪ {p}.
  std::vector<PointId> promoted;
  nbr_count_[p] = static_cast<std::uint32_t>(nbrs.size()) + 1;
  for (const auto& [q, d2] : nbrs) {
    ++nbr_count_[q];
    if (!is_core_[q] && nbr_count_[q] >= params_.min_pts) promoted.push_back(q);
  }
  if (nbr_count_[p] >= params_.min_pts) promoted.push_back(p);

  assign_to_mc(p, ptr(p));

  bool fell_back = false;
  const std::size_t cap = cfg_.max_touched_mcs_per_update;
  if (cap != 0 && touched + promoted.size() > cap) {
    // Local repair would exceed the blast-radius cap (each promotion costs
    // one more neighborhood scan): keep the exact flags, relabel globally.
    for (PointId x : promoted) {
      if (is_core_[x]) continue;
      is_core_[x] = 1;
      ++core_count_;
    }
    rebuild_labels_global();
    fell_back = true;
  } else {
    // p's border attachment against the already-existing cores; newly
    // promoted cores improve it below (p is one of their neighbors).
    for (const auto& [q, d2] : nbrs)
      if (is_core_[q]) maybe_improve_border(p, q, d2);
    for (PointId x : promoted)
      promote_core(x, x == p ? &nbrs : nullptr, &touched);
  }

  finish_update(touched, stats_.graph_edges_repaired - edges0, fell_back);
  return p;
}

// ---------------------------------------------------------------------------
// Erase.
// ---------------------------------------------------------------------------

bool IncrementalMuDbscan::erase(PointId id) {
  if (id >= total_ || !alive_[id]) return false;
  ++stats_.deletes;
  const std::uint64_t edges0 = stats_.graph_edges_repaired;

  std::size_t touched = 0;
  std::vector<std::pair<PointId, double>> nx;
  collect_neighbors(ptr(id), id, nx, &touched);
  const bool was_core = is_core_[id] != 0;

  alive_[id] = 0;
  --alive_count_;
  if (was_core) {
    is_core_[id] = 0;
    --core_count_;
  }
  border_core_[id] = kInvalidPoint;
  border_d2_[id] = kInf;
  {
    const McId z = mc_of_[id];
    Mc& mc = mcs_[z];
    --mc.alive_members;
    if (mc.alive_members == 0) {
      // The MC leaves the index at once; its id is free for the next MC.
      centers_.erase(z);
      std::vector<PointId>().swap(mc.members);
      free_mcs_.push_back(z);
      --live_mcs_;
    } else if (mc.members.size() > 16 &&
               mc.alive_members * 2 < mc.members.size()) {
      compact_members(mc);
    }
  }

  // Exact count maintenance: deletion only lowers counts, so the only status
  // changes are demotions inside N(x).
  std::vector<PointId> demoted;
  for (const auto& [q, d2] : nx) {
    --nbr_count_[q];
    if (is_core_[q] && nbr_count_[q] < params_.min_pts) {
      is_core_[q] = 0;
      --core_count_;
      demoted.push_back(q);
    }
  }

  // Failed set F: the nodes whose incident cluster-graph edges vanished.
  std::vector<PointId> failed;
  if (was_core) failed.push_back(id);
  failed.insert(failed.end(), demoted.begin(), demoted.end());
  if (failed.empty()) {
    // Core set unchanged — no edge can have disappeared, no border cache
    // entry can have died (caches point at cores only).
    finish_update(touched, stats_.graph_edges_repaired - edges0, false);
    return true;
  }

  // Neighborhoods of the failed nodes (flattened): seeds for the split
  // re-check and the candidates for border re-attachment. x's own list was
  // collected pre-erasure; every entry in it is still alive.
  std::vector<std::pair<PointId, double>> fn_flat;
  std::vector<std::size_t> fn_off{0};
  for (PointId f : failed) {
    if (f == id)
      fn_flat.insert(fn_flat.end(), nx.begin(), nx.end());
    else
      collect_neighbors(ptr(f), f, fn_flat, &touched);
    fn_off.push_back(fn_flat.size());
  }

  const std::size_t cap = cfg_.max_touched_mcs_per_update;
  bool fell_back = false;
  if (cap != 0 && touched > cap) {
    rebuild_labels_global();
    fell_back = true;
  } else {
    repair_after_failures(failed, fn_flat, fn_off, &touched);
    if (cap != 0 && touched > cap) {
      // The scoped BFS blew past the cap mid-flight (repair_after_failures
      // stops enqueuing work once over budget; any partial relabeling is
      // overwritten here). Predictable-cost exact relabel instead.
      rebuild_labels_global();
      fell_back = true;
    } else {
      // Demoted cores become borders (or noise): their neighborhoods are in
      // hand, and every core within eps of them is in there.
      for (std::size_t i = 0; i < failed.size(); ++i) {
        const PointId f = failed[i];
        if (f == id) continue;
        border_core_[f] = kInvalidPoint;
        border_d2_[f] = kInf;
        for (std::size_t k = fn_off[i]; k < fn_off[i + 1]; ++k)
          if (is_core_[fn_flat[k].first])
            maybe_improve_border(f, fn_flat[k].first, fn_flat[k].second);
      }
      // Borders whose cached nearest core died or was demoted: they are
      // within eps of that core, so they appear in its neighbor list.
      const std::uint32_t gen = ++stamp_gen_;
      for (const auto& [q, d2] : fn_flat) {
        if (!alive_[q] || is_core_[q] || stamp_[q] == gen) continue;
        stamp_[q] = gen;
        const PointId bc = border_core_[q];
        if (bc != kInvalidPoint && (!alive_[bc] || !is_core_[bc]))
          recompute_border(q, &touched);
      }
    }
  }

  finish_update(touched, stats_.graph_edges_repaired - edges0, fell_back);
  return true;
}

PointId IncrementalMuDbscan::erase_equal(std::span<const double> pt) {
  if (pt.size() != dim_)
    throw std::invalid_argument(
        "IncrementalMuDbscan::erase_equal: wrong dimension");
  // insert() refuses non-finite coordinates, so no alive point matches one
  // (and a NaN must not reach the centre index's cell arithmetic).
  if (!std::all_of(pt.begin(), pt.end(),
                   [](double v) { return std::isfinite(v); }))
    return kInvalidPoint;
  // An alive point is a member of the MC whose centre is strictly within eps
  // of it (assign_to_mc), so only those MCs' members are candidates: the
  // cost follows the neighbourhood, not the number of points ever inserted.
  const std::size_t bytes = dim_ * sizeof(double);
  PointId found = kInvalidPoint;
  centers_.visit_within_2eps(pt.data(), [&](std::uint32_t z, double d2) {
    if (d2 >= eps2_) return;
    for (PointId m : mcs_[z].members)
      if (m < found && alive_[m] &&
          std::memcmp(ptr(m), pt.data(), bytes) == 0)
        found = m;
  });
  if (found != kInvalidPoint) erase(found);
  return found;
}

void IncrementalMuDbscan::repair_after_failures(
    const std::vector<PointId>& failed,
    const std::vector<std::pair<PointId, double>>& failed_nbrs_flat,
    const std::vector<std::size_t>& failed_nbrs_off, std::size_t* touched) {
  // Group the failed nodes by their old cluster and collect each affected
  // cluster's seeds: the surviving cores adjacent to a failure. Every
  // surviving component of the cluster contains a seed (header proof), so a
  // BFS over the seeds enumerates the split exactly — and can stop the
  // moment one traversal has covered every seed (no split).
  std::vector<std::int64_t> roots;
  std::vector<std::vector<PointId>> seeds;
  for (std::size_t i = 0; i < failed.size(); ++i) {
    const std::int64_t r = find_label(core_label_[failed[i]]);
    std::size_t gi = 0;
    while (gi < roots.size() && roots[gi] != r) ++gi;
    if (gi == roots.size()) {
      roots.push_back(r);
      seeds.emplace_back();
    }
    for (std::size_t k = failed_nbrs_off[i]; k < failed_nbrs_off[i + 1]; ++k) {
      const PointId q = failed_nbrs_flat[k].first;
      if (is_core_[q]) seeds[gi].push_back(q);
    }
  }

  const std::size_t cap = cfg_.max_touched_mcs_per_update;
  std::vector<std::pair<PointId, double>> nbrs;
  for (std::size_t gi = 0; gi < roots.size(); ++gi) {
    std::vector<PointId>& S = seeds[gi];
    std::sort(S.begin(), S.end());
    S.erase(std::unique(S.begin(), S.end()), S.end());
    if (S.empty()) continue;  // the whole cluster lost its cores

    const std::uint32_t gen_seed = ++stamp_gen_;
    for (PointId s : S) stamp_[s] = gen_seed;
    const std::uint32_t gen_vis = ++stamp_gen_;
    std::size_t seeds_left = S.size();
    std::vector<std::vector<PointId>> comps;
    bool no_split = false;

    for (PointId s : S) {
      if (stamp_[s] == gen_vis) continue;
      comps.emplace_back();
      std::vector<PointId>& comp = comps.back();
      --seeds_left;  // s is a seed by construction
      stamp_[s] = gen_vis;
      comp.push_back(s);
      for (std::size_t qi = 0; qi < comp.size(); ++qi) {
        if (comps.size() == 1 && seeds_left == 0) {
          no_split = true;  // every seed in one component
          break;
        }
        if (cap != 0 && *touched > cap) return;  // caller falls back
        nbrs.clear();
        collect_neighbors(ptr(comp[qi]), comp[qi], nbrs, touched);
        for (const auto& [q, d2] : nbrs) {
          if (!is_core_[q] || stamp_[q] == gen_vis) continue;
          if (stamp_[q] == gen_seed) --seeds_left;
          stamp_[q] = gen_vis;
          comp.push_back(q);
        }
      }
      if (no_split || seeds_left == 0) break;
    }
    if (no_split || comps.size() <= 1) continue;

    // Real split: the largest surviving component keeps the old label, the
    // others get fresh ones. Borders follow via their nearest-core cache.
    std::size_t keep = 0;
    for (std::size_t k = 1; k < comps.size(); ++k)
      if (comps[k].size() > comps[keep].size()) keep = k;
    for (std::size_t k = 0; k < comps.size(); ++k) {
      if (k == keep) continue;
      const std::int64_t nl = fresh_label();
      label_size_[nl] = static_cast<std::int64_t>(comps[k].size());
      for (PointId m : comps[k]) core_label_[m] = nl;
      stats_.graph_edges_repaired += comps[k].size();
    }
  }
}

// ---------------------------------------------------------------------------
// Fallback: global relabel from maintained flags (no count recomputation).
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::rebuild_labels_global() {
  label_parent_.clear();
  label_size_.clear();
  for (PointId id = 0; id < total_; ++id) {
    if (!alive_[id]) continue;
    if (!is_core_[id]) {
      border_core_[id] = kInvalidPoint;
      border_d2_[id] = kInf;
    }
  }
  const std::uint32_t gen = ++stamp_gen_;
  std::vector<PointId> queue;
  std::vector<std::pair<PointId, double>> nbrs;
  for (PointId id = 0; id < total_; ++id) {
    if (!alive_[id] || !is_core_[id] || stamp_[id] == gen) continue;
    const std::int64_t l = fresh_label();
    queue.clear();
    queue.push_back(id);
    stamp_[id] = gen;
    while (!queue.empty()) {
      const PointId c = queue.back();
      queue.pop_back();
      core_label_[c] = l;
      nbrs.clear();
      collect_neighbors(ptr(c), c, nbrs, nullptr);
      for (const auto& [q, d2] : nbrs) {
        if (is_core_[q]) {
          if (stamp_[q] != gen) {
            stamp_[q] = gen;
            queue.push_back(q);
            ++label_size_[l];
          }
        } else {
          maybe_improve_border(q, c, d2);
        }
      }
    }
  }
}

void IncrementalMuDbscan::finish_update(std::size_t touched,
                                        std::uint64_t edges_delta,
                                        bool fell_back) {
  stats_.mcs_touched += touched;
  if (fell_back) ++stats_.full_fallbacks;
  if (cfg_.metrics) {
    cfg_.metrics->add(obs::Counter::kIncMcsTouched, touched);
    if (edges_delta != 0)
      cfg_.metrics->add(obs::Counter::kIncGraphEdgesRepaired, edges_delta);
    if (fell_back) cfg_.metrics->add(obs::Counter::kIncFullFallbacks);
    cfg_.metrics->observe(obs::Hist::kIncBlastRadius, touched);
  }
}

// ---------------------------------------------------------------------------
// Extraction.
// ---------------------------------------------------------------------------

ClusteringResult IncrementalMuDbscan::result() const {
  ClusteringResult out;
  out.label.reserve(alive_count_);
  out.is_core.reserve(alive_count_);
  std::vector<std::int64_t> renum(label_parent_.size(), -1);
  std::int64_t next = 0;
  for (PointId id = 0; id < total_; ++id) {
    if (!alive_[id]) continue;
    std::int64_t lab = kNoise;
    PointId via = kInvalidPoint;
    if (is_core_[id])
      via = id;
    else if (border_core_[id] != kInvalidPoint)
      via = border_core_[id];
    if (via != kInvalidPoint) {
      const std::int64_t root = find_label(core_label_[via]);
      if (renum[root] < 0) renum[root] = next++;
      lab = renum[root];
    }
    out.label.push_back(lab);
    out.is_core.push_back(is_core_[id]);
  }
  return out;
}

Dataset IncrementalMuDbscan::survivors() const {
  Dataset out = Dataset::empty(dim_);
  out.reserve(alive_count_);
  for (PointId id = 0; id < total_; ++id)
    if (alive_[id]) out.push_back({ptr(id), dim_});
  return out;
}

// ---------------------------------------------------------------------------
// Invariant audit (tests only — O(n^2)).
// ---------------------------------------------------------------------------

void IncrementalMuDbscan::check_invariants() const {
  // Counts and core flags against a brute-force recount.
  for (PointId i = 0; i < total_; ++i) {
    if (!alive_[i]) continue;
    std::uint32_t cnt = 0;
    for (PointId j = 0; j < total_; ++j)
      if (alive_[j] && sq_dist(ptr(i), ptr(j), dim_) < eps2_) ++cnt;
    if (cnt != nbr_count_[i])
      throw std::logic_error("incremental: nbr_count drift");
    if ((cnt >= params_.min_pts) != (is_core_[i] != 0))
      throw std::logic_error("incremental: core flag drift");
    if (!is_core_[i] && border_core_[i] != kInvalidPoint) {
      const PointId bc = border_core_[i];
      if (!alive_[bc] || !is_core_[bc])
        throw std::logic_error("incremental: border cache points at non-core");
      // Must be the (d2, id)-minimal core strictly within eps.
      for (PointId j = 0; j < total_; ++j) {
        if (!alive_[j] || !is_core_[j]) continue;
        const double d2 = sq_dist(ptr(i), ptr(j), dim_);
        if (d2 >= eps2_) continue;
        if (d2 < border_d2_[i] || (d2 == border_d2_[i] && j < bc))
          throw std::logic_error("incremental: border cache not minimal");
      }
    }
  }
  // Micro-cluster structure: the index holds exactly the live MCs.
  centers_.check_invariants();
  std::size_t alive_sum = 0;
  std::size_t live = 0;
  for (std::size_t z = 0; z < mcs_.size(); ++z) {
    const Mc& mc = mcs_[z];
    std::size_t alive_here = 0;
    for (PointId m : mc.members) {
      if (!alive_[m]) continue;
      ++alive_here;
      if (mc_of_[m] != static_cast<McId>(z))
        throw std::logic_error("incremental: mc_of mismatch");
      if (sq_dist(centers_.center(static_cast<std::uint32_t>(z)), ptr(m),
                  dim_) >= eps2_)
        throw std::logic_error("incremental: member outside its MC");
    }
    if (alive_here != mc.alive_members)
      throw std::logic_error("incremental: alive_members drift");
    alive_sum += alive_here;
    if (alive_here > 0) ++live;
  }
  if (alive_sum != alive_count_ || live != live_mcs_ ||
      live != centers_.num_centers() || live + free_mcs_.size() != mcs_.size())
    throw std::logic_error("incremental: MC population drift");
  // Label partition == connected components of the core graph.
  std::vector<std::int64_t> comp(total_, -1);
  std::int64_t ncomp = 0;
  for (PointId i = 0; i < total_; ++i) {
    if (!alive_[i] || !is_core_[i] || comp[i] >= 0) continue;
    std::vector<PointId> queue{i};
    comp[i] = ncomp;
    while (!queue.empty()) {
      const PointId c = queue.back();
      queue.pop_back();
      for (PointId j = 0; j < total_; ++j) {
        if (!alive_[j] || !is_core_[j] || comp[j] >= 0) continue;
        if (sq_dist(ptr(c), ptr(j), dim_) < eps2_) {
          comp[j] = ncomp;
          queue.push_back(j);
        }
      }
    }
    ++ncomp;
  }
  std::vector<std::int64_t> comp_to_root(static_cast<std::size_t>(ncomp), -1);
  std::vector<std::int64_t> seen_roots;
  for (PointId i = 0; i < total_; ++i) {
    if (!alive_[i] || !is_core_[i]) continue;
    const std::int64_t root = find_label(core_label_[i]);
    std::int64_t& slot = comp_to_root[comp[i]];
    if (slot < 0) {
      for (std::int64_t r : seen_roots)
        if (r == root)
          throw std::logic_error("incremental: one label spans two components");
      seen_roots.push_back(root);
      slot = root;
    } else if (slot != root) {
      throw std::logic_error("incremental: component carries two labels");
    }
  }
}

}  // namespace udb
