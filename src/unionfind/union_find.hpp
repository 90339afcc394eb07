// Disjoint-set (union-find) structure — the clustering backbone of every
// algorithm in this library, following the PDSDBSCAN line of work (Patwary et
// al.): clusters are built by UNION operations instead of the classical
// sequential breadth-first expansion, which is what makes µDBSCAN's
// post-processing passes, the distributed merge phase, and the thread-parallel
// engine possible.
//
// Implementation: lock-free concurrent union-find over an atomic parent
// array (the CAS-link scheme of Jayanti & Tarjan, also used by Wang et al.'s
// "Theoretically-Efficient and Practical Parallel DBSCAN"):
//   * links always point from the larger root index to the smaller, so every
//     parent chain is strictly decreasing and the final root of a component
//     is its minimum element — the resulting partition AND representatives
//     are deterministic regardless of thread interleaving. Path halving only
//     re-points a node at an ancestor, so parent(i) <= i holds at all times
//     (component_ids() labels every element in one forward pass because of
//     it);
//   * union_sets retries a single CAS on the losing root (lock-free);
//   * find performs path halving with benign CAS shortcuts (thread-safe);
//     the const overload is a pure read walk (wait-free, no compression),
//     usable from const contexts such as result extraction.
// Used single-threaded, the relaxed atomics compile to plain loads/stores,
// so the sequential algorithms keep their previous cost profile.

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/dataset.hpp"

namespace udb {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i)
      parent_[i].store(static_cast<PointId>(i), std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }

  // Path-halving find: every other node on the path is re-pointed at its
  // grandparent via CAS. Safe to call concurrently with unions and other
  // finds; a failed CAS just skips one shortcut.
  [[nodiscard]] PointId find(PointId x) noexcept {
    while (true) {
      PointId p = parent_[x].load(std::memory_order_acquire);
      if (p == x) return x;
      const PointId gp = parent_[p].load(std::memory_order_acquire);
      if (gp != p) {
        // Halve: x -> grandparent. gp is an ancestor of x, so the shortcut
        // never changes membership even if parent_[x] moved concurrently.
        parent_[x].compare_exchange_weak(p, gp, std::memory_order_release,
                                         std::memory_order_relaxed);
      }
      x = gp;
    }
  }

  // Read-only find: walks to the root without compressing. Wait-free in the
  // absence of concurrent unions; exact at quiescence (how the engines use
  // it: extraction happens after all union phases joined).
  [[nodiscard]] PointId find(PointId x) const noexcept {
    PointId p = parent_[x].load(std::memory_order_acquire);
    while (p != x) {
      x = p;
      p = parent_[x].load(std::memory_order_acquire);
    }
    return x;
  }

  // x's current parent; parent(x) <= x always (see the header comment).
  [[nodiscard]] PointId parent(PointId x) const noexcept {
    return parent_[x].load(std::memory_order_acquire);
  }

  // Unites the sets of a and b; returns the surviving root (the smaller
  // index). No-op (returns the common root) if already united. Lock-free:
  // concurrent calls linearize on the CAS of the losing root.
  PointId union_sets(PointId a, PointId b) noexcept {
    while (true) {
      a = find(a);
      b = find(b);
      if (a == b) return a;
      if (a > b) std::swap(a, b);  // smaller index stays root
      PointId expected = b;
      if (parent_[b].compare_exchange_strong(expected, a,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire))
        return a;
      // b gained a parent concurrently; retry from the fresh roots.
    }
  }

  [[nodiscard]] bool same(PointId a, PointId b) noexcept {
    return find(a) == find(b);
  }
  [[nodiscard]] bool same(PointId a, PointId b) const noexcept {
    return find(a) == find(b);
  }

  // Number of distinct sets among all elements.
  [[nodiscard]] std::size_t count_components() const;

  // Compacts roots into consecutive ids 0..k-1 in order of first appearance;
  // out[i] is the component id of element i. Returns k. One forward pass at
  // quiescence: parent(i) <= i, so i's parent is already labelled, and a
  // root, its component's minimum, is its component's first element.
  std::size_t component_ids(std::vector<std::uint32_t>& out) const;

 private:
  std::vector<std::atomic<PointId>> parent_;
};

}  // namespace udb
