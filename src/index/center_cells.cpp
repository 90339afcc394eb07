#include "index/center_cells.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "common/runguard.hpp"

namespace udb {

CenterCells::CenterCells(std::size_t dim, double eps)
    : dim_(dim),
      axes_(std::min(dim, kMaxAxes)),
      last_(axes_ == 0 ? 0 : axes_ - 1),
      side_(2.0 * eps),
      eps2_(eps * eps),
      two_eps2_((2.0 * eps) * (2.0 * eps)) {}

void CenterCells::grid_points(const Dataset& ds) {
  ds_ = &ds;
  const std::size_t n = ds.size();
  // Distinct cells in first-seen order; consecutive points in one cell skip
  // the lookup.
  std::vector<Key> seen;
  KeySlots slots;
  const auto key_at = [&seen](std::uint32_t c) -> const Key& {
    return seen[c];
  };
  point_cell_.resize(n);
  std::uint32_t prev = kNone;
  for (std::size_t p = 0; p < n; ++p) {
    const Key key = key_of(ds.ptr(static_cast<PointId>(p)));
    if (prev == kNone || seen[prev] != key) {
      const std::size_t i = slots.locate(key, key_at);
      prev = slots.at(i);
      if (prev == kNone) {
        prev = static_cast<std::uint32_t>(seen.size());
        seen.push_back(key);
        slots.fill(i, prev, key_at);
      }
    }
    point_cell_[p] = prev;
  }

  // Sort the cells by key and renumber the points' cells.
  std::vector<std::uint32_t> order(seen.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return seen[a] < seen[b];
            });
  std::vector<std::uint32_t> rank(seen.size());
  keys_.resize(seen.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = i;
    keys_[i] = seen[order[i]];
  }
  for (std::uint32_t& c : point_cell_) c = rank[c];
  build_rows();

  // Each cell's neighbours within one cell on every gridded axis, itself
  // excluded (probe() scans it first).
  nbr_off_.assign(1, 0);
  nbr_.clear();
  for_each_window(0, keys_.size(), 1,
                  [&](std::uint32_t c, std::span<const std::uint32_t> win) {
                    for (std::uint32_t o : win)
                      if (o != c) nbr_.push_back(o);
                    nbr_off_.push_back(static_cast<std::uint32_t>(nbr_.size()));
                  });
  head_.assign(keys_.size(), kNone);
  tail_.assign(keys_.size(), kNone);
}

void CenterCells::add(PointId p, std::uint32_t id) {
  const std::uint32_t c = point_cell_[p];
  const auto i = static_cast<std::uint32_t>(bids_.size());
  bids_.push_back(id);
  bpts_.push_back(p);
  next_.push_back(kNone);
  if (head_[c] == kNone)
    head_[c] = i;
  else
    next_[tail_[c]] = i;
  tail_[c] = i;
}

void CenterCells::finish() {
  // Keep the cells holding centres, in key order; within a cell the
  // centres keep add order. The frozen arrays are sized exactly.
  std::size_t kept = 0;
  for (std::uint32_t c = 0; c < keys_.size(); ++c) kept += head_[c] != kNone;
  std::vector<Key> keys;
  keys.reserve(kept);
  cell_off_.reserve(kept + 1);
  cell_off_.assign(1, 0);
  ids_.reserve(bids_.size());
  coords_.reserve(bids_.size() * dim_);
  for (std::uint32_t c = 0; c < keys_.size(); ++c) {
    if (head_[c] == kNone) continue;
    keys.push_back(keys_[c]);
    for (std::uint32_t i = head_[c]; i != kNone; i = next_[i]) {
      ids_.push_back(bids_[i]);
      const double* x = ds_->ptr(bpts_[i]);
      coords_.insert(coords_.end(), x, x + dim_);
    }
    cell_off_.push_back(static_cast<std::uint32_t>(ids_.size()));
  }
  keys_ = std::move(keys);
  build_rows();
  for (auto* v :
       {&point_cell_, &nbr_off_, &nbr_, &head_, &tail_, &next_, &bids_, &bpts_})
    std::vector<std::uint32_t>().swap(*v);
  ds_ = nullptr;
}

void CenterCells::build_rows() {
  // Fresh, exactly sized arrays: the frozen index keeps none of the build
  // phase's capacity.
  const auto prefix = [this](std::uint32_t c) {
    Key key = keys_[c];
    key[last_] = 0;
    return key;
  };
  std::size_t num_rows = 0;
  for (std::uint32_t c = 0; c < keys_.size(); ++c)
    num_rows += c == 0 || prefix(c) != prefix(c - 1);
  std::vector<Key> rows;
  std::vector<std::uint32_t> row_off, cell_row(keys_.size());
  rows.reserve(num_rows);
  row_off.reserve(num_rows + 1);
  for (std::uint32_t c = 0; c < keys_.size(); ++c) {
    if (c == 0 || prefix(c) != prefix(c - 1)) {
      row_off.push_back(c);
      rows.push_back(prefix(c));
    }
    cell_row[c] = static_cast<std::uint32_t>(rows.size() - 1);
  }
  row_off.push_back(static_cast<std::uint32_t>(keys_.size()));
  rows_ = std::move(rows);
  row_off_ = std::move(row_off);
  cell_row_ = std::move(cell_row);
}

void CenterCells::insert(const double* x, std::uint32_t id) {
  const Key key = key_of(x);
  const auto key_at = online_key_at();
  const std::size_t slot = slots_.locate(key, key_at);
  std::uint32_t c = slots_.at(slot);
  if (c == kNone) {
    if (free_cells_.empty()) {
      c = static_cast<std::uint32_t>(cells_.size());
      cells_.emplace_back();
    } else {
      c = free_cells_.back();
      free_cells_.pop_back();
    }
    cells_[c].key = key;
    slots_.fill(slot, c, key_at);
  }
  OnlineCell& cell = cells_[c];
  cell.ids.push_back(id);
  cell.coords.insert(cell.coords.end(), x, x + dim_);
  if (id >= cell_of_.size()) cell_of_.resize(std::size_t{id} + 1, kNone);
  cell_of_[id] = c;
  ++online_centers_;
}

void CenterCells::erase(std::uint32_t id) {
  const std::uint32_t c = cell_of_[id];
  cell_of_[id] = kNone;
  --online_centers_;
  OnlineCell& cell = cells_[c];
  const auto i = static_cast<std::size_t>(
      std::find(cell.ids.begin(), cell.ids.end(), id) - cell.ids.begin());
  cell.ids.erase(cell.ids.begin() + static_cast<std::ptrdiff_t>(i));
  cell.coords.erase(
      cell.coords.begin() + static_cast<std::ptrdiff_t>(i * dim_),
      cell.coords.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim_));
  if (!cell.ids.empty()) return;
  const auto key_at = online_key_at();
  slots_.clear(slots_.locate(cell.key, key_at), key_at);
  free_cells_.push_back(c);
}

std::size_t CenterCells::KeySlots::memory_bytes() const noexcept {
  return vector_bytes(slots_);
}

std::size_t CenterCells::memory_bytes() const noexcept {
  std::size_t online = vector_bytes(cells_) + vector_bytes(free_cells_) +
                       slots_.memory_bytes() + vector_bytes(cell_of_);
  for (const OnlineCell& cell : cells_)
    online += vector_bytes(cell.ids) + vector_bytes(cell.coords);
  return vector_bytes(keys_) + vector_bytes(cell_row_) + vector_bytes(rows_) +
         vector_bytes(row_off_) + vector_bytes(point_cell_) +
         vector_bytes(nbr_off_) + vector_bytes(nbr_) + vector_bytes(head_) +
         vector_bytes(tail_) + vector_bytes(next_) + vector_bytes(bids_) +
         vector_bytes(bpts_) + vector_bytes(cell_off_) + vector_bytes(ids_) +
         vector_bytes(coords_) + online;
}

void CenterCells::check_invariants() const {
  const auto fail = [](const char* what) {
    throw std::logic_error(std::string("CenterCells: ") + what);
  };
  // A frozen index has cell offsets; an online one has none.
  if (!cell_off_.empty() &&
      (cell_off_.size() != keys_.size() + 1 ||
       cell_off_.back() != ids_.size() ||
       coords_.size() != ids_.size() * dim_ ||
       cell_row_.size() != keys_.size() || row_off_.size() != rows_.size() + 1))
    fail("arrays out of shape");
  for (std::size_t c = 0; c < keys_.size(); ++c) {
    if (c > 0 && !(keys_[c - 1] < keys_[c]))
      fail("keys not strictly ascending");
    if (cell_off_[c + 1] <= cell_off_[c]) fail("empty cell kept");
    const std::uint32_t row = cell_row_[c];
    if (row >= rows_.size() || c < row_off_[row] || c >= row_off_[row + 1])
      fail("cell outside its row");
    Key prefix = keys_[c];
    prefix[last_] = 0;
    if (prefix != rows_[row]) fail("row key differs from its cells' keys");
    for (std::uint32_t i = cell_off_[c]; i < cell_off_[c + 1]; ++i) {
      if (i > cell_off_[c] && ids_[i - 1] >= ids_[i])
        fail("centre ids not ascending within a cell");
      if (key_of(&coords_[std::size_t{i} * dim_]) != keys_[c])
        fail("centre outside its cell");
    }
  }

  const auto key_at = online_key_at();
  std::vector<std::uint8_t> is_free(cells_.size(), 0);
  for (const std::uint32_t c : free_cells_) is_free[c] = 1;
  std::size_t centers = 0;
  for (std::uint32_t c = 0; c < cells_.size(); ++c) {
    const OnlineCell& cell = cells_[c];
    if (is_free[c]) {
      if (!cell.ids.empty()) fail("free online cell holds centres");
      continue;
    }
    if (cell.ids.empty()) fail("empty online cell kept");
    if (slots_.at(slots_.locate(cell.key, key_at)) != c)
      fail("online cell not found under its key");
    if (cell.coords.size() != cell.ids.size() * dim_)
      fail("online cell arrays out of shape");
    for (std::size_t i = 0; i < cell.ids.size(); ++i) {
      if (cell.ids[i] >= cell_of_.size() || cell_of_[cell.ids[i]] != c)
        fail("centre id not mapped to its online cell");
      if (key_of(&cell.coords[i * dim_]) != cell.key)
        fail("centre outside its online cell");
    }
    centers += cell.ids.size();
  }
  if (centers != online_centers_) fail("online centre count drift");
}

}  // namespace udb
