#include "core/murtree.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/distance.hpp"
#include "obs/trace.hpp"

namespace udb {

namespace {
// Sequential-sweep checkpoint stride: cheap relative to the per-point index
// probes, frequent enough that cancellation latency stays in the low
// milliseconds even on slow hosts.
constexpr std::size_t kBuildCheckStride = 2048;

}  // namespace

MuRTree::MuRTree(const Dataset& ds, double eps, Config cfg, ThreadPool* pool)
    : ds_(&ds), eps_(eps), cfg_(cfg), centers_(ds.dim(), eps) {
  if (!(eps > 0.0)) throw std::invalid_argument("MuRTree: eps must be > 0");
  if (ds.size() >= std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("MuRTree: too many points for 32-bit slots");
  const std::size_t n = ds.size();
  RunGuard* guard = cfg_.guard;

  // Up-front charge for the per-point map and the member store's slot ids
  // and coordinates: a budget too small for even the skeleton fails here,
  // before the expensive sweep starts.
  if (guard)
    mem_charge_.acquire_throw(
        guard, n * (sizeof(McId) + sizeof(PointId) + ds.dim() * sizeof(double)),
        "murtree skeleton");
  point_mc_.assign(n, kInvalidMc);

  // Pass 1 (Algorithm 3, BUILD-MICRO-CLUSTERS): assign within eps, defer
  // within 2*eps, otherwise found a new MC. Both passes probe the centre
  // index, whose per-point arrays live only for the sweep. The sweep records
  // only point_mc_; the member lists are laid out afterwards in one pass.
  obs::Span assign_span(cfg_.tracer, "build.assign");
  std::vector<PointId> unassigned;
  {
    centers_.grid_points(ds);
    const auto found_mc = [&](PointId p) {
      const McId id = static_cast<McId>(mcs_.size());
      MicroCluster mc;
      mc.center = p;
      mcs_.push_back(std::move(mc));
      point_mc_[p] = id;
      centers_.add(p, id);
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (guard && i % kBuildCheckStride == 0)
        guard->check_throw("murtree build pass 1");
      const PointId p = static_cast<PointId>(i);
      const CenterCells::Probe hit = centers_.probe(p);
      if (hit.within_eps != CenterCells::kNone) {
        point_mc_[p] = hit.within_eps;
      } else if (cfg_.two_eps_rule && hit.within_2eps) {
        unassigned.push_back(p);
      } else {
        found_mc(p);
      }
    }
    deferred_ = unassigned.size();

    // Pass 2 (PROCESS-UNASSIGNED-POINT): join within eps or found a new MC.
    for (std::size_t i = 0; i < unassigned.size(); ++i) {
      if (guard && i % kBuildCheckStride == 0)
        guard->check_throw("murtree build pass 2");
      const PointId p = unassigned[i];
      const McId hit = centers_.probe(p).within_eps;
      if (hit != CenterCells::kNone) {
        point_mc_[p] = hit;
      } else {
        found_mc(p);
      }
    }
    centers_.finish();
  }
  assign_span.end();

  obs::Span aux_span(cfg_.tracer, "build.aux_trees");
  build_member_store(unassigned, pool);
  aux_span.end();

  // True up the budget charge to the real footprint now that the index
  // exists. The index is the run's dominant allocation after the dataset
  // itself, so this is where an undersized budget is meant to trip.
  if (guard) {
    const std::size_t bytes =
        vector_bytes(point_mc_) + centers_.memory_bytes() + vector_bytes(mcs_) +
        vector_bytes(slot_ids_) + vector_bytes(slot_off_) +
        vector_bytes(coords_) + vector_bytes(mc_box_);
    mem_charge_.acquire_throw(guard, bytes, "murtree index");
  }
}

void MuRTree::build_member_store(const std::vector<PointId>& deferred,
                                 ThreadPool* pool) {
  const Dataset& ds = *ds_;
  const std::size_t n = ds.size(), dim = ds.dim(), num_mcs = mcs_.size();

  // Counting sort by MC, in join order (pass-1 joiners by id, then the
  // deferred points). `deferred` is ascending, so a merge walk skips it in
  // pass 1.
  slot_off_.assign(num_mcs + 1, 0);
  for (McId z : point_mc_) ++slot_off_[z + 1];
  for (std::size_t z = 0; z < num_mcs; ++z) slot_off_[z + 1] += slot_off_[z];
  slot_ids_.resize(n);
  {
    std::vector<std::uint32_t> next(slot_off_.begin(), slot_off_.end() - 1);
    const auto place = [&](PointId p) { slot_ids_[next[point_mc_[p]]++] = p; };
    std::size_t d = 0;
    for (PointId p = 0; p < n; ++p) {
      if (d < deferred.size() && deferred[d] == p)
        ++d;
      else
        place(p);
    }
    for (PointId p : deferred) place(p);
  }
  coords_.resize(n * dim);
  mc_box_.resize(num_mcs * 2 * dim);

  // Each MC writes only its own block and box, so the MCs run in parallel
  // and the store is identical at every thread count. With a guard, every
  // 32-MC chunk is a cooperative checkpoint.
  parallel_for_chunked(
      pool, num_mcs, 32,
      [&](std::size_t begin, std::size_t end, unsigned) {
        for (std::size_t z = begin; z < end; ++z) {
          const std::uint32_t s0 = slot_off_[z], cnt = slot_off_[z + 1] - s0;
          const PointId* ids = slot_ids_.data() + s0;
          mcs_[z].members = std::span<const PointId>(ids, cnt);
          double* block = &coords_[std::size_t{s0} * dim];
          double* lo = &mc_box_[z * 2 * dim];
          double* hi = lo + dim;
          for (std::size_t k = 0; k < dim; ++k) {
            lo[k] = std::numeric_limits<double>::infinity();
            hi[k] = -std::numeric_limits<double>::infinity();
            for (std::uint32_t i = 0; i < cnt; ++i) {
              const double v = ds.ptr(ids[i])[k];
              block[k * cnt + i] = v;
              lo[k] = std::min(lo[k], v);
              hi[k] = std::max(hi[k], v);
            }
          }
        }
      },
      cfg_.guard);
}

void MuRTree::compute_inner_circles(ThreadPool* pool) {
  obs::Span span(cfg_.tracer, "build.inner_circles");
  const double half2 = (eps_ / 2.0) * (eps_ / 2.0);
  // Each iteration reads shared immutable coordinates and writes only its own
  // MC's ic_count — embarrassingly parallel, identical for any thread count.
  parallel_for_chunked(
      pool, mcs_.size(), 64,
      [&](std::size_t begin, std::size_t end, unsigned) {
        for (std::size_t z = begin; z < end; ++z) {
          MicroCluster& mc = mcs_[z];
          const double* c = ds_->ptr(mc.center);
          std::uint32_t cnt = 0;
          for (PointId q : mc.members) {
            if (q == mc.center) continue;
            if (sq_dist(c, ds_->ptr(q), ds_->dim()) < half2) ++cnt;
          }
          mc.ic_count = cnt;
        }
      },
      cfg_.guard);
}

void MuRTree::compute_reachable(ThreadPool* pool) {
  obs::Span span(cfg_.tracer, "build.reachable");
  // Lemma 3: a query from any member of MC(p) can only reach members of MCs
  // whose centre is within 3*eps of p (<=, not <: the lemma's bound is
  // attained when the query point sits on the MC boundary). Cells have side
  // 2*eps, so those centres lie in the cells within two of p's cell on every
  // gridded axis. The frozen centre index is read-only here, so chunks of
  // cells run in parallel; each MC writes only its own list.
  const double reach2 = (3.0 * eps_) * (3.0 * eps_);
  const std::size_t dim = ds_->dim();
  parallel_for_chunked(
      pool, centers_.num_cells(), 64,
      [&](std::size_t begin, std::size_t end, unsigned) {
        std::vector<McId> hits;
        centers_.for_each_window(
            begin, end, 2,
            [&](std::uint32_t cell, std::span<const std::uint32_t> window) {
              const std::span<const std::uint32_t> own = centers_.ids(cell);
              const double* cx = centers_.coords(cell);
              for (std::size_t i = 0; i < own.size(); ++i, cx += dim) {
                hits.clear();
                for (std::uint32_t o : window) {
                  const std::span<const std::uint32_t> ids = centers_.ids(o);
                  const double* ox = centers_.coords(o);
                  for (std::size_t j = 0; j < ids.size(); ++j, ox += dim)
                    if (sq_dist(cx, ox, dim) <= reach2) hits.push_back(ids[j]);
                }
                // MC-id order: ids follow point order, so the walks over
                // reach lists in the later phases visit member lists and
                // AuxR-trees in allocation order.
                std::sort(hits.begin(), hits.end());
                mcs_[own[i]].reach.assign(hits.begin(), hits.end());
              }
            });
      },
      cfg_.guard);

  // The reach lists are quadratic in the worst case (every MC reaches every
  // MC when eps spans the domain) — charge them now that their size is known.
  if (cfg_.guard) {
    std::size_t reach_bytes = 0;
    for (const MicroCluster& mc : mcs_) reach_bytes += vector_bytes(mc.reach);
    mem_charge_.acquire_throw(cfg_.guard, mem_charge_.bytes() + reach_bytes,
                              "murtree reach lists");
  }
}

void MuRTree::add_counts(const QueryCounts& c) const noexcept {
  const auto add = [](std::atomic<std::uint64_t>& sink, std::uint64_t v) {
    if (v != 0) sink.fetch_add(v, std::memory_order_relaxed);
  };
  add(aux_searched_, c.searched);
  add(aux_node_visits_, c.nodes);
  add(aux_dist_evals_, c.evals);
  add(aux_kernel_blocks_, c.blocks);
  add(aux_kernel_tail_, c.tail);
}

void MuRTree::gather_candidates(McId z, double radius, bool mbr_filter,
                                CandidateBlock& b) const {
  const std::size_t dim = ds_->dim();
  const double r2 = radius * radius;
  const double* zlo = &mc_box_[std::size_t{z} * 2 * dim];
  b.mcs.clear();
  std::size_t total = 0;
  for (McId r : mcs_[z].reach) {
    ++b.nodes;
    if (mbr_filter) {
      const double* rlo = &mc_box_[std::size_t{r} * 2 * dim];
      if (box_box_min_sq_dist(zlo, zlo + dim, rlo, rlo + dim, dim) > r2)
        continue;
    }
    ++b.searched;
    b.mcs.push_back(r);
    total += slot_off_[r + 1] - slot_off_[r];
  }
  b.ids.resize(total);
  b.coords.resize(total * dim);
  b.d2.resize(total);
  b.hits.resize(total);
  b.mc_end.clear();
  std::size_t at = 0;
  for (McId r : b.mcs) {
    const std::size_t s0 = slot_off_[r], cnt = slot_off_[r + 1] - s0;
    std::copy_n(&slot_ids_[s0], cnt, &b.ids[at]);
    const double* src = &coords_[s0 * dim];
    for (std::size_t k = 0; k < dim; ++k)
      std::copy_n(src + k * cnt, cnt, &b.coords[k * total + at]);
    at += cnt;
    b.mc_end.push_back(static_cast<std::uint32_t>(at));
  }
}

void MuRTree::publish_counts(CandidateBlock& b) const {
  add_counts(b);
  static_cast<QueryCounts&>(b) = QueryCounts{};
}

void MuRTree::query_neighborhood(
    PointId p, double radius, std::vector<std::pair<PointId, double>>& out,
    bool mbr_filter) const {
  query_neighborhood(
      p, radius, [&out](PointId id, double d2) { out.emplace_back(id, d2); },
      mbr_filter);
}

void MuRTree::query_neighborhood(
    std::span<const double> q, double radius,
    std::vector<std::pair<PointId, double>>& out) const {
  query_neighborhood(q, radius,
                     [&out](PointId id, double d2) { out.emplace_back(id, d2); });
}

MuRTree::IndexCounters MuRTree::index_counters() const {
  IndexCounters c;
  c.node_visits = aux_node_visits_.load(std::memory_order_relaxed);
  c.distance_evals = aux_dist_evals_.load(std::memory_order_relaxed);
  c.kernel_blocks = aux_kernel_blocks_.load(std::memory_order_relaxed);
  c.kernel_tail_points = aux_kernel_tail_.load(std::memory_order_relaxed);
  return c;
}

void MuRTree::check_invariants() const {
  const std::size_t n = ds_->size(), dim = ds_->dim();
  const double eps2 = eps_ * eps_;
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("MuRTree: ") + what);
  };
  if (slot_ids_.size() != n || slot_off_.size() != mcs_.size() + 1 ||
      slot_off_.back() != n || coords_.size() != n * dim ||
      mc_box_.size() != mcs_.size() * 2 * dim)
    fail("member store arrays out of shape");
  std::vector<std::uint8_t> seen(n, 0);
  for (McId z = 0; z < mcs_.size(); ++z) {
    const MicroCluster& mc = mcs_[z];
    const std::uint32_t s0 = slot_off_[z], s1 = slot_off_[z + 1];
    if (s1 <= s0 || mc.members.data() != slot_ids_.data() + s0 ||
        mc.members.size() != s1 - s0)
      fail("members are not the MC's slot run");
    const double* c = ds_->ptr(mc.center);
    bool center_listed = false;
    for (PointId q : mc.members) {
      if (q >= n) fail("slot holds an invalid point id");
      if (seen[q]) fail("point in two MCs");
      seen[q] = 1;
      if (point_mc_[q] != z) fail("point_mc mismatch");
      if (q == mc.center) {
        center_listed = true;
        continue;
      }
      if (sq_dist(c, ds_->ptr(q), dim) >= eps2)
        fail("member farther than eps from centre");
    }
    if (!center_listed) fail("centre not among members");

    // The block holds the members' coordinates dim-major, and the root MBR
    // is their exact bounding box.
    Box root(dim);
    const std::uint32_t cnt = s1 - s0;
    for (std::uint32_t i = 0; i < cnt; ++i) {
      const double* pt = ds_->ptr(slot_ids_[s0 + i]);
      for (std::size_t k = 0; k < dim; ++k) {
        const double v = coords_[std::size_t{s0} * dim + k * cnt + i];
        if (std::memcmp(&v, &pt[k], sizeof v) != 0)
          fail("block coordinates differ from the dataset");
      }
      root.expand(std::span<const double>(pt, dim));
    }
    const double* mlo = &mc_box_[std::size_t{z} * 2 * dim];
    for (std::size_t k = 0; k < dim; ++k)
      if (mlo[k] != root.lo(k) || mlo[dim + k] != root.hi(k))
        fail("root MBR is not the bounding box of its members");
  }
  for (std::size_t i = 0; i < n; ++i)
    if (!seen[i]) fail("unassigned point");
  centers_.check_invariants();
  if (centers_.num_centers() != mcs_.size())
    fail("centre index does not hold every centre once");
  std::vector<std::uint8_t> listed(mcs_.size(), 0);
  for (std::uint32_t c = 0; c < centers_.num_cells(); ++c) {
    const std::span<const std::uint32_t> ids = centers_.ids(c);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const McId z = ids[i];
      if (z >= mcs_.size() || listed[z] ||
          std::memcmp(centers_.coords(c) + i * dim, ds_->ptr(mcs_[z].center),
                      dim * sizeof(double)) != 0)
        fail("centre index entry is not an MC centre");
      listed[z] = 1;
    }
  }
}

}  // namespace udb
