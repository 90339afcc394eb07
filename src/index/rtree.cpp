#include "index/rtree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "common/simd.hpp"
#include "index/str.hpp"

namespace udb {

namespace {

// Leaf scans compute the whole block of squared distances into a stack
// buffer before filtering.
constexpr std::size_t kLeafScanBuf = 512;
static_assert(RTree::kFanout <= kLeafScanBuf,
              "a leaf's distances fit the buffer");

// Depth-first node stack for ball queries. bulk_load_str takes fewer than
// 2^32 points, so a tree has at most kMaxHeight levels, and a depth-first
// walk holds at most kFanout - 1 siblings per level plus the node it is
// expanding: the stack never outgrows a fixed array.
constexpr std::size_t kMaxHeight = 8;
constexpr std::size_t kNodeStack = 256;
constexpr std::size_t fanout_pow(std::size_t e) {
  return e == 0 ? 1 : RTree::kFanout * fanout_pow(e - 1);
}
static_assert(fanout_pow(kMaxHeight) >= (std::size_t{1} << 32),
              "kMaxHeight levels hold 2^32 points");
static_assert((RTree::kFanout - 1) * kMaxHeight + 1 <= kNodeStack,
              "a ball query's depth-first stack fits kNodeStack");

}  // namespace

struct RTree::Node {
  explicit Node(std::size_t dim, bool leaf) : mbr(dim), is_leaf(leaf) {}

  Box mbr;
  bool is_leaf;
  // Leaf payload: a dim-major SoA coordinate block (coordinate k of entry i
  // at block[k * ids.size() + i]) plus a parallel id array.
  std::vector<double> block;
  std::vector<PointId> ids;
  // Internal payload.
  std::vector<std::unique_ptr<Node>> children;

  [[nodiscard]] std::size_t entry_count() const noexcept {
    return is_leaf ? ids.size() : children.size();
  }
  void get_coords(std::size_t i, std::size_t dim, double* out) const noexcept {
    for (std::size_t k = 0; k < dim; ++k) out[k] = block[k * ids.size() + i];
  }
};

RTree::RTree(std::size_t dim) : dim_(dim) {
  if (dim_ == 0) throw std::invalid_argument("RTree: dim must be > 0");
  root_ = std::make_unique<Node>(dim_, /*leaf=*/true);
}

RTree::~RTree() = default;

// Hand-written moves: the atomic instrumentation counters are not movable.
// Moving a tree while queries run on it is a caller bug, so relaxed
// load/store of the counters is sufficient.
RTree::RTree(RTree&& other) noexcept
    : dim_(other.dim_),
      root_(std::move(other.root_)),
      count_(other.count_),
      dist_evals_(other.dist_evals_.load(std::memory_order_relaxed)),
      node_visits_(other.node_visits_.load(std::memory_order_relaxed)) {
  other.count_ = 0;
}

RTree& RTree::operator=(RTree&& other) noexcept {
  if (this != &other) {
    dim_ = other.dim_;
    root_ = std::move(other.root_);
    count_ = other.count_;
    dist_evals_.store(other.dist_evals_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    node_visits_.store(other.node_visits_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    other.count_ = 0;
  }
  return *this;
}

void RTree::query_ball(std::span<const double> center, double radius,
                       std::vector<PointId>& out, bool strict) const {
  visit_ball(
      center, radius,
      [&out](PointId id, double) {
        out.push_back(id);
        return true;
      },
      strict);
}

namespace {

// Accumulates a query's distance evaluations, node visits, and kernel block
// stats locally and publishes them with one relaxed add each on scope exit
// (every early return included) — keeps the scan free of atomics while
// staying exact and race-free under concurrent queries.
struct EvalCounter {
  std::atomic<std::uint64_t>& sink;
  std::atomic<std::uint64_t>& node_sink;
  std::uint64_t local = 0;
  std::uint64_t nodes = 0;
  ~EvalCounter() {
    if (local != 0) sink.fetch_add(local, std::memory_order_relaxed);
    if (nodes != 0) node_sink.fetch_add(nodes, std::memory_order_relaxed);
  }
};

}  // namespace

void RTree::visit_ball(std::span<const double> center, double radius,
                       const std::function<bool(PointId, double)>& fn,
                       bool strict) const {
  if (count_ == 0) return;
  const double r2 = radius * radius;
  EvalCounter evals{dist_evals_, node_visits_};

  // Per-leaf squared distances land here; the filter pass then applies the
  // eps comparison and the visitor. Comparison results are identical to the
  // old point-at-a-time scan because the kernels are bit-exact vs scalar.
  double buf[kLeafScanBuf];

  // Explicit stack to avoid recursion overhead on deep trees.
  const Node* stack[kNodeStack];
  std::size_t top = 0;
  stack[top++] = root_.get();
  while (top > 0) {
    const Node* node = stack[--top];
    ++evals.nodes;
    if (node->mbr.min_sq_dist(center) > r2) continue;
    if (node->is_leaf) {
      const std::size_t cnt = node->ids.size();
      if (cnt == 0) continue;
      sq_dist_block_soa(center.data(), node->block.data(), cnt, cnt, dim_,
                        buf);
      evals.local += cnt;
      for (std::size_t i = 0; i < cnt; ++i) {
        const bool in = strict ? (buf[i] < r2) : (buf[i] <= r2);
        if (in && !fn(node->ids[i], buf[i])) return;
      }
    } else {
      for (const auto& c : node->children) stack[top++] = c.get();
    }
  }
}

RTree RTree::bulk_load_str(
    std::size_t dim, std::vector<std::pair<const double*, PointId>> items) {
  RTree tree(dim);
  if (items.empty()) return tree;
  if (items.size() >= (std::size_t{1} << 32))
    throw std::invalid_argument("RTree: need fewer than 2^32 items");
  constexpr std::size_t cap = kFanout;
  str_tile(items.begin(), items.end(), 0, dim, cap,
           [](const auto& item, std::size_t axis) { return item.first[axis]; });

  // Pack leaves in tiled order, each SoA block exactly its entries.
  std::vector<std::unique_ptr<Node>> level;
  for (std::size_t i = 0; i < items.size(); i += cap) {
    auto leaf = std::make_unique<Node>(dim, /*leaf=*/true);
    const std::size_t end = std::min(items.size(), i + cap);
    const std::size_t cnt = end - i;
    leaf->block.resize(cnt * dim);
    leaf->ids.reserve(cnt);
    for (std::size_t j = i; j < end; ++j) {
      for (std::size_t k = 0; k < dim; ++k)
        leaf->block[k * cnt + (j - i)] = items[j].first[k];
      leaf->ids.push_back(items[j].second);
      leaf->mbr.expand(std::span<const double>{items[j].first, dim});
    }
    level.push_back(std::move(leaf));
  }

  // Pack parent levels until one root remains. Parents inherit the spatial
  // order of their children (already tiled), so MBRs stay tight.
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> parents;
    for (std::size_t i = 0; i < level.size(); i += cap) {
      auto parent = std::make_unique<Node>(dim, /*leaf=*/false);
      const std::size_t end = std::min(level.size(), i + cap);
      for (std::size_t j = i; j < end; ++j) {
        parent->mbr.expand(level[j]->mbr);
        parent->children.push_back(std::move(level[j]));
      }
      parents.push_back(std::move(parent));
    }
    level = std::move(parents);
  }
  tree.root_ = std::move(level.front());
  tree.count_ = items.size();
  return tree;
}

RTree RTree::bulk_load_str(const Dataset& ds) {
  std::vector<std::pair<const double*, PointId>> items;
  items.reserve(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i)
    items.emplace_back(ds.ptr(static_cast<PointId>(i)),
                       static_cast<PointId>(i));
  return bulk_load_str(ds.dim(), std::move(items));
}

void RTree::query_knn(std::span<const double> center, std::size_t k,
                      std::vector<std::pair<PointId, double>>& out) const {
  out.clear();
  if (k == 0 || count_ == 0) return;
  EvalCounter evals{dist_evals_, node_visits_};

  double buf[kLeafScanBuf];

  // Best-first search: a min-heap of (distance lower bound, node) frontier
  // entries plus a max-heap of the current k best points.
  struct Frontier {
    double bound;
    const Node* node;
    bool operator>(const Frontier& o) const { return bound > o.bound; }
  };
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<>> frontier;
  frontier.push({root_->mbr.min_sq_dist(center), root_.get()});

  auto worst = [&out]() {
    return out.empty() ? std::numeric_limits<double>::infinity()
                       : out.front().second;
  };
  auto cmp = [](const std::pair<PointId, double>& a,
                const std::pair<PointId, double>& b) {
    return a.second < b.second;  // max-heap on distance
  };

  while (!frontier.empty()) {
    const auto [bound, node] = frontier.top();
    frontier.pop();
    ++evals.nodes;
    if (out.size() == k && bound >= worst()) break;  // cannot improve
    if (node->is_leaf) {
      const std::size_t cnt = node->ids.size();
      if (cnt == 0) continue;
      sq_dist_block_soa(center.data(), node->block.data(), cnt, cnt, dim_,
                        buf);
      evals.local += cnt;
      for (std::size_t i = 0; i < cnt; ++i) {
        const double d2 = buf[i];
        if (out.size() < k) {
          out.emplace_back(node->ids[i], d2);
          std::push_heap(out.begin(), out.end(), cmp);
        } else if (d2 < worst()) {
          std::pop_heap(out.begin(), out.end(), cmp);
          out.back() = {node->ids[i], d2};
          std::push_heap(out.begin(), out.end(), cmp);
        }
      }
    } else {
      for (const auto& c : node->children) {
        const double b = c->mbr.min_sq_dist(center);
        if (out.size() < k || b < worst()) frontier.push({b, c.get()});
      }
    }
  }
  std::sort_heap(out.begin(), out.end(), cmp);
}

RTree::Stats RTree::stats() const {
  Stats s;
  std::vector<std::pair<const Node*, std::size_t>> stack{{root_.get(), 1}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    s.height = std::max(s.height, depth);
    if (node->is_leaf) {
      ++s.leaf_nodes;
      s.entries += node->ids.size();
    } else {
      ++s.internal_nodes;
      for (const auto& c : node->children) stack.push_back({c.get(), depth + 1});
    }
  }
  return s;
}

std::size_t RTree::memory_bytes() const {
  std::size_t bytes = sizeof(RTree);
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    bytes += sizeof(Node) + 2 * node->mbr.dim() * sizeof(double) +
             node->block.capacity() * sizeof(double) +
             node->ids.capacity() * sizeof(PointId) +
             node->children.capacity() * sizeof(std::unique_ptr<Node>);
    for (const auto& c : node->children) stack.push_back(c.get());
  }
  return bytes;
}

void RTree::check_invariants() const {
  struct Frame {
    const Node* node;
    bool is_root;
    std::size_t depth;
  };
  std::size_t leaf_depth = 0;
  bool leaf_depth_set = false;
  std::size_t seen = 0;
  std::vector<double> tmp(dim_);

  std::vector<Frame> stack{{root_.get(), true, 1}};
  while (!stack.empty()) {
    auto [node, is_root, depth] = stack.back();
    stack.pop_back();

    // STR packing fills nodes to kFanout but may leave one short tail node
    // per level.
    if (node->entry_count() > kFanout)
      throw std::logic_error("RTree: node overfull");
    if (!is_root && node->entry_count() == 0)
      throw std::logic_error("RTree: empty non-root node");

    if (node->is_leaf) {
      if (!leaf_depth_set) {
        leaf_depth = depth;
        leaf_depth_set = true;
      } else if (leaf_depth != depth) {
        throw std::logic_error("RTree: leaves at different depths");
      }
      if (node->block.size() != node->ids.size() * dim_)
        throw std::logic_error("RTree: leaf SoA block does not fit its ids");
      for (std::size_t i = 0; i < node->ids.size(); ++i) {
        node->get_coords(i, dim_, tmp.data());
        if (!node->mbr.contains(tmp))
          throw std::logic_error("RTree: leaf MBR does not contain point");
        ++seen;
      }
    } else {
      if (node->children.empty())
        throw std::logic_error("RTree: empty internal node");
      for (const auto& c : node->children) {
        for (std::size_t k = 0; k < dim_; ++k) {
          if (c->mbr.lo(k) < node->mbr.lo(k) || c->mbr.hi(k) > node->mbr.hi(k))
            throw std::logic_error("RTree: child MBR escapes parent MBR");
        }
        stack.push_back({c.get(), false, depth + 1});
      }
    }
  }
  if (count_ > 0 && seen != count_)
    throw std::logic_error("RTree: entry count mismatch");
}

}  // namespace udb
