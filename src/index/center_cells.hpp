// The MC-centre cell index: one grid of micro-cluster centres that serves
// the µR-tree (core/murtree.hpp) — the Algorithm-3 sweep, the Lemma-3 reach
// lists and the arbitrary-position (serving) query — and the incremental
// engine's centres (core/incremental.hpp).
//
// Cells have side 2*eps on the first k = min(d, 3) axes, with saturated
// indices (grid_cell_index). The axes beyond the third are left to the
// true-distance filter, so one code path serves every d.
//
// A batch index (the µR-tree) has two phases:
//   * Build (Algorithm 3). grid_points() records the cell of every point and
//     the neighbour list of every occupied cell (the cells within 1 on every
//     gridded axis, in key order). probe() and add() then run the sequential
//     sweep: a centre strictly within 2*eps of a point is less than one side
//     away on every gridded axis, so it sits in the point's cell or in one of
//     the listed cells around it.
//   * Frozen. finish() keeps only the cells that hold centres, lays the
//     centre ids (ascending within a cell) and coordinates out by cell in
//     flat arrays sorted by key, and drops the per-point arrays. A *row* is a
//     run of cells that agree on every gridded axis but the last. The rows
//     near a row form (2m+1)^(k-2) contiguous runs of the sorted rows (one
//     run when k <= 2), so for_each_window() finds the cells within m of a
//     cell by walking only the rows that exist in those runs and a sliding
//     window along each, not by (2m+1)^k key probes (the reach lists use
//     m = 2: every centre within 3*eps is at most two cells away).
//     visit_ball() answers a ball around any position, falling back to a
//     scan of every row when the ball spans more rows than the index has.
//
// An online index (the incremental engine) starts empty and only takes
// insert() and erase(): a centre is in the index from its insert to its
// erase. Its cells are found by key through a hash table, and each keeps its
// centres' ids and coordinates in insertion order, so a probe looks up the
// few cells the ball spans (about three per gridded axis for radius 2*eps)
// and scans them in key order. first_within_eps() and visit_within_2eps()
// are the two probes the engine makes.

#pragma once

#include <algorithm>
#include <array>
#include <cfloat>
#include <cstdint>
#include <span>
#include <vector>

#include "common/dataset.hpp"
#include "common/distance.hpp"
#include "index/grid.hpp"

namespace udb {

class CenterCells {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  CenterCells(std::size_t dim, double eps);

  // --- Build phase -------------------------------------------------------

  // Grids every point of `ds` and lists each occupied cell's neighbours.
  // `ds` must outlive the build phase.
  void grid_points(const Dataset& ds);

  struct Probe {
    std::uint32_t within_eps = kNone;  // first centre strictly within eps
    bool within_2eps = false;          // some centre strictly within 2*eps
  };
  // Scans the centres added so far in point p's cell, then in its
  // neighbour cells in key order; stops at the first centre within eps.
  [[nodiscard]] Probe probe(PointId p) const noexcept {
    Probe r;
    const double* pt = ds_->ptr(p);
    const std::uint32_t c = point_cell_[p];
    if (scan(pt, c, r)) return r;
    for (std::uint32_t j = nbr_off_[c]; j < nbr_off_[c + 1]; ++j)
      if (scan(pt, nbr_[j], r)) return r;
    return r;
  }

  // Adds point p as the centre with id `id`.
  void add(PointId p, std::uint32_t id);

  // Ends the build: keeps the cells holding centres and frees the rest.
  void finish();

  // --- Frozen phase ------------------------------------------------------

  [[nodiscard]] std::size_t num_cells() const noexcept { return keys_.size(); }
  // Centres in the index, frozen or online.
  [[nodiscard]] std::size_t num_centers() const noexcept {
    return ids_.size() + online_centers_;
  }
  [[nodiscard]] std::span<const std::uint32_t> ids(
      std::uint32_t cell) const noexcept {
    return {ids_.data() + cell_off_[cell],
            cell_off_[cell + 1] - cell_off_[cell]};
  }
  // Row-major coordinates of the cell's centres, in ids() order.
  [[nodiscard]] const double* coords(std::uint32_t cell) const noexcept {
    return coords_.data() + std::size_t{cell_off_[cell]} * dim_;
  }

  // Calls fn(c, window) for every cell c in [begin, end), where `window`
  // lists, in key order, every cell (c included) within m of c on each
  // gridded axis. Cells in a chunk share row cursors, so callers split the
  // cell range into chunks rather than calling once per cell.
  template <class Fn>
  void for_each_window(std::size_t begin, std::size_t end, std::int64_t m,
                       Fn&& fn) const {
    // For one offset on the row axes but the last, the neighbour rows of a
    // row are one contiguous run of rows_: they share every earlier axis and
    // lie within m on the last row axis. The runs come in offset order, so
    // the rows, and the cells along them, come in key order. A run's start
    // only moves forward as the cells do, so one cursor per offset walks
    // rows_ once per call, and only rows that exist are visited. With at
    // most three gridded axes, only axis 0 takes offsets, and only when
    // k = 3; otherwise there is one run.
    static_assert(kMaxAxes == 3);
    const std::int64_t spread = last_ == 2 ? m : 0;
    std::vector<std::uint32_t> run_at(static_cast<std::size_t>(2 * spread + 1),
                                      kNone);
    std::vector<std::uint32_t> window, cursor, stop;  // one cursor per row
    std::uint32_t row = kNone;
    for (std::size_t c = begin; c < end; ++c) {
      const std::int64_t x = keys_[c][last_];
      if (cell_row_[c] != row) {
        row = cell_row_[c];
        cursor.clear();
        stop.clear();
        for (std::int64_t o = -spread; o <= spread; ++o) {
          Key lo = rows_[row];
          lo[0] += o;
          Key hi = lo;
          if (last_ > 0) lo[last_ - 1] -= m, hi[last_ - 1] += m;
          std::uint32_t& r = run_at[static_cast<std::size_t>(o + spread)];
          if (r == kNone)
            r = static_cast<std::uint32_t>(
                std::lower_bound(rows_.begin(), rows_.end(), lo) -
                rows_.begin());
          while (r < rows_.size() && rows_[r] < lo) ++r;
          for (std::uint32_t s = r; s < rows_.size() && !(hi < rows_[s]);
               ++s) {
            cursor.push_back(lower_bound_in_row(s, x - m));
            stop.push_back(row_off_[s + 1]);
          }
        }
      }
      window.clear();
      for (std::size_t t = 0; t < cursor.size(); ++t) {
        std::uint32_t j = cursor[t];
        while (j < stop[t] && keys_[j][last_] < x - m) ++j;
        cursor[t] = j;
        for (; j < stop[t] && keys_[j][last_] <= x + m; ++j)
          window.push_back(j);
      }
      fn(static_cast<std::uint32_t>(c), std::span<const std::uint32_t>(window));
    }
  }

  // Calls fn(id, squared distance) for every centre within r of q (<=), in
  // no particular order. Thread-safe on a frozen index.
  template <class Fn>
  void visit_ball(const double* q, double r, Fn&& fn) const {
    const double r2 = r * r;
    const auto scan_cells = [&](std::uint32_t first, std::uint32_t last) {
      for (std::uint32_t c = first; c < last; ++c) {
        const double* xs = coords(c);
        for (std::uint32_t i = cell_off_[c]; i < cell_off_[c + 1];
             ++i, xs += dim_) {
          const double d2 = sq_dist(q, xs, dim_);
          if (d2 <= r2) fn(ids_[i], d2);
        }
      }
    };
    // r*r below the normal range loses the relative precision the cell
    // range below relies on: scan every centre.
    if (!(r2 >= DBL_MIN))
      return scan_cells(0, static_cast<std::uint32_t>(num_cells()));
    Key lo, hi;
    cell_range(q, r, lo, hi);
    double rows_spanned = 1.0;
    for (std::size_t a = 0; a < last_; ++a)
      rows_spanned *= static_cast<double>(hi[a] - lo[a]) + 1.0;
    const auto scan_row = [&](std::uint32_t row) {
      std::uint32_t c = lower_bound_in_row(row, lo[last_]);
      std::uint32_t e = c;
      while (e < row_off_[row + 1] && keys_[e][last_] <= hi[last_]) ++e;
      scan_cells(c, e);
    };
    if (rows_spanned > static_cast<double>(rows_.size())) {
      // All-rows fallback: the ball spans more rows than exist.
      for (std::uint32_t row = 0; row < rows_.size(); ++row) {
        bool inside = true;
        for (std::size_t a = 0; a < axes_; ++a)
          if (a != last_ && (rows_[row][a] < lo[a] || rows_[row][a] > hi[a]))
            inside = false;
        if (inside) scan_row(row);
      }
      return;
    }
    Key at = lo;
    while (true) {
      if (const std::uint32_t row = find_row(at); row != kNone) scan_row(row);
      std::size_t a = 0;
      while (a < last_ && at[a] == hi[a]) at[a] = lo[a], ++a;
      if (a >= last_) break;
      ++at[a];
    }
  }

  // --- Online index --------------------------------------------------------

  // Adds a centre at x (copied) with the id `id`, which must not be in the
  // index.
  void insert(const double* x, std::uint32_t id);

  // Removes the centre `id`, which must be in the index. A cell that empties
  // leaves the index.
  void erase(std::uint32_t id);

  // The coordinates of the centre `id`, which must be in the index.
  [[nodiscard]] const double* center(std::uint32_t id) const noexcept {
    const OnlineCell& cell = cells_[cell_of_[id]];
    std::size_t i = 0;
    while (cell.ids[i] != id) ++i;
    return cell.coords.data() + i * dim_;
  }

  // The first centre strictly within eps of q, scanning cells in key order
  // and each cell in insertion order, or kNone.
  [[nodiscard]] std::uint32_t first_within_eps(const double* q) const {
    std::uint32_t found = kNone;
    scan_online(q, 0.5 * side_, [&](std::uint32_t id, const double* x) {
      if (sq_dist(q, x, dim_) >= eps2_) return false;
      found = id;
      return true;
    });
    return found;
  }

  // Calls fn(id, squared distance) for every centre within 2*eps of q (<=),
  // cells in key order.
  template <class Fn>
  void visit_within_2eps(const double* q, Fn&& fn) const {
    scan_online(q, side_, [&](std::uint32_t id, const double* x) {
      if (const double d2 = sq_dist(q, x, dim_); d2 <= two_eps2_) fn(id, d2);
      return false;
    });
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  // Test hook: keys strictly ascending, rows and offsets consistent, every
  // centre's coordinates in its cell (frozen); every cell non-empty, found
  // under its key, and every centre's coordinates in its cell (online).
  void check_invariants() const;

 private:
  static constexpr std::size_t kMaxAxes = 3;
  using Key = std::array<std::int64_t, kMaxAxes>;  // ungridded axes stay 0

  [[nodiscard]] Key key_of(const double* pt) const noexcept {
    Key key{};
    for (std::size_t a = 0; a < axes_; ++a)
      key[a] = grid_cell_index(pt[a], side_);
    return key;
  }

  // Per-axis cell range of the ball of radius r around q, from a radius
  // inflated well past rounding: a centre that passes a distance filter of
  // radius r lies within it. Ungridded axes get [0, 0].
  void cell_range(const double* q, double r, Key& lo, Key& hi) const noexcept {
    const double rr = r * (1.0 + 0x1p-20);
    lo = hi = Key{};
    for (std::size_t a = 0; a < axes_; ++a) {
      lo[a] = grid_cell_index(q[a] - rr, side_);
      hi[a] = grid_cell_index(q[a] + rr, side_);
    }
  }

  static std::size_t hash(const Key& k) noexcept {
    std::uint64_t h = 0;
    for (std::int64_t v : k)
      h = (h ^ static_cast<std::uint64_t>(v)) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  // Linear-probing table of positions in a key array (key_at(v) is the key
  // at position v), a power of two in size and at most half full.
  class KeySlots {
   public:
    // The slot holding `key`, or the empty slot where it belongs.
    template <class KeyAt>
    [[nodiscard]] std::size_t locate(const Key& key,
                                     const KeyAt& key_at) const noexcept {
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = hash(key) & mask;
      while (slots_[i] != kNone && key_at(slots_[i]) != key) i = (i + 1) & mask;
      return i;
    }
    [[nodiscard]] std::uint32_t at(std::size_t slot) const noexcept {
      return slots_[slot];
    }
    // Stores v in `slot`, an empty slot from locate().
    template <class KeyAt>
    void fill(std::size_t slot, std::uint32_t v, const KeyAt& key_at) {
      slots_[slot] = v;
      if (2 * ++size_ <= slots_.size()) return;
      std::vector<std::uint32_t> old(2 * slots_.size(), kNone);
      old.swap(slots_);
      for (const std::uint32_t o : old)
        if (o != kNone) slots_[locate(key_at(o), key_at)] = o;
    }
    // Empties `slot`, moving later entries of its probe run back so that
    // every entry stays reachable from its home slot.
    template <class KeyAt>
    void clear(std::size_t slot, const KeyAt& key_at) noexcept {
      const std::size_t mask = slots_.size() - 1;
      slots_[slot] = kNone;
      --size_;
      for (std::size_t j = (slot + 1) & mask; slots_[j] != kNone;
           j = (j + 1) & mask) {
        const std::size_t home = hash(key_at(slots_[j])) & mask;
        // Leave the entry if its home lies cyclically in (slot, j].
        if (((j - home) & mask) < ((j - slot) & mask)) continue;
        slots_[slot] = slots_[j];
        slots_[j] = kNone;
        slot = j;
      }
    }
    [[nodiscard]] std::size_t memory_bytes() const noexcept;

   private:
    std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(64, kNone);
    std::size_t size_ = 0;
  };

  // KeySlots' key accessor over the online cells.
  [[nodiscard]] auto online_key_at() const noexcept {
    return [this](std::uint32_t c) -> const Key& { return cells_[c].key; };
  }

  // Calls fn(id, coordinates) for the centres of every online cell within
  // the per-axis cell range of the ball of radius r around q, cells in key
  // order; stops when fn returns true.
  template <class Fn>
  void scan_online(const double* q, double r, Fn&& fn) const {
    if (online_centers_ == 0) return;
    Key lo, hi;
    cell_range(q, r, lo, hi);
    const auto key_at = online_key_at();
    Key at = lo;
    while (true) {
      if (const std::uint32_t c = slots_.at(slots_.locate(at, key_at));
          c != kNone) {
        const OnlineCell& cell = cells_[c];
        const double* x = cell.coords.data();
        for (const std::uint32_t id : cell.ids) {
          if (fn(id, x)) return;
          x += dim_;
        }
      }
      std::size_t a = axes_;
      while (a > 0 && at[a - 1] == hi[a - 1]) at[a - 1] = lo[a - 1], --a;
      if (a == 0) break;
      ++at[a - 1];
    }
  }

  bool scan(const double* pt, std::uint32_t cell, Probe& r) const noexcept {
    for (std::uint32_t i = head_[cell]; i != kNone; i = next_[i]) {
      const double d2 = sq_dist(pt, ds_->ptr(bpts_[i]), dim_);
      if (d2 < eps2_) {
        r.within_eps = bids_[i];
        r.within_2eps = true;
        return true;
      }
      if (d2 < two_eps2_) r.within_2eps = true;
    }
    return false;
  }

  // Splits keys_ (sorted) into rows.
  void build_rows();

  // The row whose key prefix is `key`'s (last gridded axis ignored), or
  // kNone.
  [[nodiscard]] std::uint32_t find_row(Key key) const noexcept {
    key[last_] = 0;
    const auto it = std::lower_bound(rows_.begin(), rows_.end(), key);
    return it != rows_.end() && *it == key
               ? static_cast<std::uint32_t>(it - rows_.begin())
               : kNone;
  }

  // First cell of `row` whose last-axis index is >= x.
  [[nodiscard]] std::uint32_t lower_bound_in_row(
      std::uint32_t row, std::int64_t x) const noexcept {
    const auto first = keys_.begin() + row_off_[row];
    const auto last = keys_.begin() + row_off_[row + 1];
    const std::size_t axis = last_;
    return static_cast<std::uint32_t>(
        std::lower_bound(first, last, x,
                         [axis](const Key& k, std::int64_t v) {
                           return k[axis] < v;
                         }) -
        keys_.begin());
  }

  std::size_t dim_;
  std::size_t axes_;  // gridded axes, min(dim, 3)
  std::size_t last_;  // the in-row axis, axes_ - 1 (0 when dim is 0)
  double side_;
  double eps2_;
  double two_eps2_;

  // Cells (both phases): sorted keys, their rows, row prefixes.
  std::vector<Key> keys_;
  std::vector<std::uint32_t> cell_row_;
  std::vector<Key> rows_;  // each row's key, last gridded axis 0
  std::vector<std::uint32_t> row_off_;

  // Build phase: each point's cell, each cell's neighbour cells (self
  // excluded) and the centres added so far, as per-cell lists threaded
  // through add order; centre coordinates are read from the dataset.
  std::vector<std::uint32_t> point_cell_;
  std::vector<std::uint32_t> nbr_off_;
  std::vector<std::uint32_t> nbr_;
  std::vector<std::uint32_t> head_, tail_;  // per cell, kNone when empty
  std::vector<std::uint32_t> next_;         // per added centre
  std::vector<std::uint32_t> bids_;
  std::vector<PointId> bpts_;  // each added centre's point
  const Dataset* ds_ = nullptr;

  // Frozen phase: centre ids and row-major coordinates by cell.
  std::vector<std::uint32_t> cell_off_;
  std::vector<std::uint32_t> ids_;
  std::vector<double> coords_;

  // Online index: the cells holding centres, found by key through slots_,
  // each with its centres' ids and row-major coordinates in insertion order.
  struct OnlineCell {
    Key key{};
    std::vector<std::uint32_t> ids;
    std::vector<double> coords;
  };
  std::vector<OnlineCell> cells_;  // an emptied cell's position is reused
  std::vector<std::uint32_t> free_cells_;
  KeySlots slots_;
  std::vector<std::uint32_t> cell_of_;  // per centre id, kNone when absent
  std::size_t online_centers_ = 0;
};

}  // namespace udb
