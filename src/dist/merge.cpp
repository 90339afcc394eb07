#include "dist/merge.hpp"

#include <limits>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "common/status.hpp"
#include "index/rtree.hpp"

namespace udb {

namespace {

struct EdgeMsg {
  std::uint64_t gid_y;  // remote point, local at the receiving owner
  std::uint64_t rep_x;  // sender-side cluster representative of x
  std::uint64_t x_core; // authoritative: x is local at the sender
};

struct ReplyMsg {
  std::uint64_t gid_x;  // border candidate, local at the receiver
  std::uint64_t rep_y;  // owner-side cluster representative of core y
};

struct PairMsg {
  std::uint64_t a;
  std::uint64_t b;
};

// Hash-based union-find over representative gids; absent keys are their own
// roots. Deterministic across ranks because every rank applies the identical
// globally-gathered pair list in the same order.
class GidUnionFind {
 public:
  std::uint64_t find(std::uint64_t x) {
    auto it = parent_.find(x);
    if (it == parent_.end()) return x;
    // Path compression via recursion on the hash map.
    const std::uint64_t root = find(it->second);
    it->second = root;
    return root;
  }

  void unite(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t ra = find(a);
    const std::uint64_t rb = find(b);
    if (ra == rb) return;
    // Smaller gid wins the root: canonical labels fall out of find().
    if (ra < rb)
      parent_[rb] = ra;
    else
      parent_[ra] = rb;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> parent_;
};

// Strategy 1: gather all pairs everywhere and replay the same union-find.
std::unordered_map<std::uint64_t, std::uint64_t> resolve_allgather(
    mpi::Comm& comm, const std::vector<PairMsg>& my_pairs,
    const std::vector<std::uint64_t>& needed, MergeStats* stats) {
  const std::vector<PairMsg> all_pairs = comm.allgatherv(my_pairs);
  stats->union_pairs = all_pairs.size();
  GidUnionFind guf;
  for (const PairMsg& pr : all_pairs) guf.unite(pr.a, pr.b);
  std::unordered_map<std::uint64_t, std::uint64_t> out;
  out.reserve(needed.size() * 2);
  for (std::uint64_t g : needed) out[g] = guf.find(g);
  return out;
}

// Strategy 2: the paper's reference [19] — a distributed union-find.
// Representatives are hash-owned (owner = gid mod p); each rank stores
// parent pointers only for the gids it owns. Union tasks (u, v) are routed
// to owner(u), chased through locally-owned pointers, forwarded when a
// pointer crosses ownership, and linked root-to-root with the larger gid
// under the smaller — so the final root of a component is its minimum gid,
// identical to the all-gather strategy's labels. Rounds of alltoallv keep
// the protocol synchronous and deadlock-free; termination: every forward
// either strictly descends a parent chain (whose values only shrink) or
// swaps to the partner's strictly smaller root, so the pending task count
// reaches zero (guarded by a generous round cap).
std::unordered_map<std::uint64_t, std::uint64_t> resolve_distributed_uf(
    mpi::Comm& comm, const std::vector<PairMsg>& my_pairs,
    const std::vector<std::uint64_t>& needed, MergeStats* stats) {
  const int p = comm.size();
  const auto owner = [p](std::uint64_t gid) {
    return static_cast<int>(gid % static_cast<std::uint64_t>(p));
  };
  std::unordered_map<std::uint64_t, std::uint64_t> parent;  // owned gids only
  stats->union_pairs = my_pairs.size();  // pairs this rank *generated*

  // Chase g through locally owned pointers; returns the last gid reached
  // (either a root we own or a gid owned elsewhere).
  const auto chase = [&](std::uint64_t g) {
    while (owner(g) == comm.rank()) {
      const auto it = parent.find(g);
      if (it == parent.end()) break;  // local root
      g = it->second;
    }
    return g;
  };

  // Seed: route each pair to owner(a).
  std::vector<std::vector<PairMsg>> tasks_out(static_cast<std::size_t>(p));
  for (const PairMsg& pr : my_pairs)
    tasks_out[static_cast<std::size_t>(owner(pr.a))].push_back(pr);

  constexpr int kMaxRounds = 256;
  int round = 0;
  for (; round < kMaxRounds; ++round) {
    std::int64_t outgoing = 0;
    for (const auto& v : tasks_out) outgoing += static_cast<std::int64_t>(v.size());
    if (comm.allreduce_sum(outgoing) == 0) break;

    const auto tasks_in = comm.alltoallv(tasks_out);
    for (auto& v : tasks_out) v.clear();

    for (int src = 0; src < p; ++src) {
      for (const PairMsg& t : tasks_in[static_cast<std::size_t>(src)]) {
        // Task (a, b): unite the set containing a with the set containing b.
        // Invariant: we only ever assign parent[x] = y with y < x, so parent
        // chains strictly decrease — no cycles are possible even when y is
        // no longer a root, and the final root of every component is its
        // minimum gid (matching the all-gather strategy's labels).
        const std::uint64_t u = chase(t.a);
        const std::uint64_t v = t.b;
        if (u == v) continue;  // already same set
        if (owner(u) != comm.rank()) {
          // Chain crossed ownership: continue the chase there.
          tasks_out[static_cast<std::size_t>(owner(u))].push_back(
              PairMsg{u, v});
          continue;
        }
        // u has no local parent and we own it.
        if (v < u) {
          parent[u] = v;  // monotone link; v's chain continues downward
        } else {
          // Mirror the task so v's owner can link v (or its root) under u.
          tasks_out[static_cast<std::size_t>(owner(v))].push_back(
              PairMsg{v, u});
        }
      }
    }
  }
  if (round >= kMaxRounds)
    throw StatusError(
        InternalError("distributed union-find did not converge"));
  stats->union_rounds = static_cast<std::uint64_t>(round);

  // Resolution: batched pointer jumping. Each query carries (original gid,
  // current position, asking rank); owners advance the position through
  // their chains and reply to the original asker when the root is reached.
  struct Query {
    std::uint64_t original;
    std::uint64_t current;
    std::uint64_t asker;
  };
  std::unordered_map<std::uint64_t, std::uint64_t> out;
  out.reserve(needed.size() * 2);
  std::vector<std::vector<Query>> q_out(static_cast<std::size_t>(p));
  for (std::uint64_t g : needed)
    q_out[static_cast<std::size_t>(owner(g))].push_back(
        Query{g, g, static_cast<std::uint64_t>(comm.rank())});

  for (int jround = 0;; ++jround) {
    if (jround >= kMaxRounds)
      throw StatusError(InternalError("distributed find did not converge"));
    std::int64_t outgoing = 0;
    for (const auto& v : q_out) outgoing += static_cast<std::int64_t>(v.size());
    if (comm.allreduce_sum(outgoing) == 0) break;

    const auto q_in = comm.alltoallv(q_out);
    for (auto& v : q_out) v.clear();
    std::vector<std::vector<Query>> replies(static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      for (const Query& q : q_in[static_cast<std::size_t>(src)]) {
        const std::uint64_t next = chase(q.current);
        if (owner(next) == comm.rank()) {
          // Reached the root: answer the original asker.
          replies[static_cast<std::size_t>(q.asker)].push_back(
              Query{q.original, next, q.asker});
        } else {
          q_out[static_cast<std::size_t>(owner(next))].push_back(
              Query{q.original, next, q.asker});
        }
      }
    }
    const auto replies_back = comm.alltoallv(replies);
    for (int src = 0; src < p; ++src)
      for (const Query& r : replies_back[static_cast<std::size_t>(src)])
        out[r.original] = r.current;
  }
  return out;
}

}  // namespace

DistClustering merge_local_clusterings(
    mpi::Comm& comm, std::size_t dim, double eps,
    const std::vector<double>& combined_coords, std::size_t n_local,
    const std::vector<std::uint64_t>& gids, const std::vector<int>& halo_owner,
    const std::vector<Box>& rank_boxes, UnionFind& uf,
    const std::vector<std::uint8_t>& is_core,
    const std::vector<std::uint8_t>& assigned, MergeStats* stats,
    MergeStrategy strategy) {
  const int p = comm.size();
  const int me = comm.rank();
  const double eps2 = eps * eps;
  MergeStats local_stats;

  // ---- cluster representatives: min local gid per local component --------
  // Components are stars around core points; a component's representative is
  // only meaningful if the component contains a local core (otherwise its
  // identity lives on some remote rank and its members are adopted via
  // replies).
  std::unordered_map<PointId, std::uint64_t> rep_of_root;
  std::unordered_map<PointId, bool> root_has_local_core;
  for (std::size_t i = 0; i < n_local; ++i) {
    const PointId pt = static_cast<PointId>(i);
    if (!is_core[pt] && !assigned[pt]) continue;
    const PointId root = uf.find(pt);
    auto [it, inserted] = rep_of_root.try_emplace(root, gids[i]);
    if (!inserted && gids[i] < it->second) it->second = gids[i];
    if (is_core[pt]) root_has_local_core[root] = true;
  }

  // ---- boundary pass: cross edges ----------------------------------------
  // Dense boundary regions generate the same logical edge many times (every
  // member of a local cluster sees the same remote point); deduplicate at
  // the source — edge volume, not edge discovery, is what would otherwise
  // dominate the merge (paper: merging must stay a small slice, Table VII).
  std::vector<std::vector<EdgeMsg>> edges_out(static_cast<std::size_t>(p));
  auto edge_key = [](std::uint64_t a, std::uint64_t b,
                     std::uint64_t flag) noexcept {
    std::uint64_t h = a * 0x9e3779b97f4a7c15ULL;
    h ^= b + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= flag + (h << 6) + (h >> 2);
    return h;
  };
  std::unordered_set<std::uint64_t> edge_seen;

  // R-tree over the halo copies only: the boundary pass needs exactly the
  // (local, remote) pairs within eps, and the halo is a small delta-fraction
  // of the data, so this is far cheaper than full neighborhood re-queries.
  const std::size_t n_total = gids.size();
  std::vector<std::pair<const double*, PointId>> halo_items;
  halo_items.reserve(n_total - n_local);
  for (std::size_t h = n_local; h < n_total; ++h)
    halo_items.emplace_back(combined_coords.data() + h * dim,
                            static_cast<PointId>(h));
  const RTree halo_tree = RTree::bulk_load_str(dim, std::move(halo_items));
  for (std::size_t i = 0; i < n_local; ++i) {
    const std::span<const double> pt{combined_coords.data() + i * dim, dim};
    bool boundary = false;
    for (int r = 0; r < p && !boundary; ++r) {
      if (r == me || !rank_boxes[static_cast<std::size_t>(r)].valid()) continue;
      if (rank_boxes[static_cast<std::size_t>(r)].min_sq_dist(pt) <= eps2)
        boundary = true;
    }
    if (!boundary) continue;
    ++local_stats.boundary_points;

    const PointId x = static_cast<PointId>(i);
    const PointId root = uf.find(x);
    const auto rep_it = rep_of_root.find(root);
    const std::uint64_t rep_x =
        rep_it != rep_of_root.end() ? rep_it->second : gids[i];

    const std::uint64_t x_core_flag = is_core[x] ? 1u : 0u;
    halo_tree.visit_ball(pt, eps, [&](PointId q, double) {
      const std::size_t h = q - n_local;
      const int owner = halo_owner[h];
      // Core edges are per-(cluster, remote point); non-core edges are
      // per-(point, remote cluster-ish) — rep_x is the point's own gid for
      // unanchored points, so nothing is lost by the dedup.
      if (edge_seen.insert(edge_key(gids[q], rep_x, x_core_flag)).second) {
        edges_out[static_cast<std::size_t>(owner)].push_back(
            EdgeMsg{gids[q], rep_x, x_core_flag});
        ++local_stats.cross_edges;
      }
      return true;
    });
  }

  const auto edges_in = comm.alltoallv(edges_out);

  // ---- owner-side resolution ---------------------------------------------
  std::unordered_map<std::uint64_t, PointId> gid_to_local;
  gid_to_local.reserve(n_local * 2);
  for (std::size_t i = 0; i < n_local; ++i)
    gid_to_local[gids[i]] = static_cast<PointId>(i);

  // Remote cluster adoption for local points whose component has no local
  // core (their cluster identity lives on the remote side).
  std::vector<std::uint64_t> adopted(n_local,
                                     std::numeric_limits<std::uint64_t>::max());

  std::vector<PairMsg> my_pairs;
  std::unordered_set<std::uint64_t> pair_seen, reply_seen;
  std::vector<std::vector<ReplyMsg>> replies_out(static_cast<std::size_t>(p));
  for (int src = 0; src < p; ++src) {
    for (const EdgeMsg& e : edges_in[static_cast<std::size_t>(src)]) {
      const auto it = gid_to_local.find(e.gid_y);
      if (it == gid_to_local.end()) continue;  // stale edge; cannot happen
      const PointId y = it->second;
      const bool y_core = is_core[y] != 0;
      if (e.x_core && y_core) {
        const PointId root = uf.find(y);
        const std::uint64_t rep_y = rep_of_root.at(root);
        // Many remote points of one cluster yield the same (rep_x, rep_y):
        // the allgathered pair list is processed by every rank, so dedup
        // here keeps the global resolution linear in distinct pairs.
        if (pair_seen.insert(edge_key(e.rep_x, rep_y, 2)).second)
          my_pairs.push_back(PairMsg{e.rep_x, rep_y});
      } else if (e.x_core && !y_core) {
        // y is a border of x's cluster; adopt if y has no local anchor.
        const PointId root = uf.find(y);
        const bool anchored =
            (is_core[y] || assigned[y]) && root_has_local_core.count(root) > 0;
        if (!anchored && adopted[y] == std::numeric_limits<std::uint64_t>::max())
          adopted[y] = e.rep_x;
      } else if (!e.x_core && y_core) {
        // x may attach to y's cluster as border; x's owner decides. rep_x
        // from a non-core x is its own gid when unanchored; the sender keyed
        // the edge by x's representative, so reply with that. One reply per
        // representative suffices.
        if (reply_seen.insert(edge_key(e.rep_x, 0, 3)).second) {
          const PointId root = uf.find(y);
          replies_out[static_cast<std::size_t>(src)].push_back(
              ReplyMsg{e.rep_x, rep_of_root.at(root)});
        }
      }
      // non-core/non-core edges carry no information.
    }
  }

  const auto replies_in = comm.alltoallv(replies_out);

  // ---- apply replies: border adoption at the x side ----------------------
  // Replies are keyed by rep_x. A reply matters only for points that are
  // non-core and not anchored to a local-core component.
  std::unordered_map<std::uint64_t, std::uint64_t> rep_adoption;
  for (int src = 0; src < p; ++src) {
    for (const ReplyMsg& r : replies_in[static_cast<std::size_t>(src)]) {
      rep_adoption.try_emplace(r.gid_x, r.rep_y);
    }
  }

  // ---- global union over representatives ---------------------------------
  // Collect every representative gid this rank will need a final root for,
  // then resolve them with the selected strategy.
  std::vector<std::uint64_t> needed;
  {
    std::unordered_set<std::uint64_t> need_set;
    for (const auto& [root, rep] : rep_of_root) need_set.insert(rep);
    for (std::uint64_t rep : adopted)
      if (rep != std::numeric_limits<std::uint64_t>::max())
        need_set.insert(rep);
    for (const auto& [k, rep] : rep_adoption) need_set.insert(rep);
    needed.assign(need_set.begin(), need_set.end());
  }
  const std::unordered_map<std::uint64_t, std::uint64_t> root_of =
      strategy == MergeStrategy::AllGatherPairs
          ? resolve_allgather(comm, my_pairs, needed, &local_stats)
          : resolve_distributed_uf(comm, my_pairs, needed, &local_stats);
  auto global_root = [&root_of](std::uint64_t rep) {
    const auto it = root_of.find(rep);
    return it != root_of.end() ? it->second : rep;
  };

  // ---- final labels -------------------------------------------------------
  DistClustering out;
  out.label.assign(n_local, kNoise);
  out.is_core.assign(n_local, 0);
  for (std::size_t i = 0; i < n_local; ++i) {
    const PointId x = static_cast<PointId>(i);
    out.is_core[i] = is_core[x];
    const bool member = is_core[x] || assigned[x];
    const PointId root = member ? uf.find(x) : x;
    const bool anchored = member && root_has_local_core.count(root) > 0;
    if (anchored) {
      out.label[i] = static_cast<std::int64_t>(global_root(rep_of_root.at(root)));
      continue;
    }
    // Unanchored: adopted by a remote cluster either on the owner side (an
    // incoming core edge) or via a reply to our own non-core edge.
    std::uint64_t rep = adopted[i];
    if (rep == std::numeric_limits<std::uint64_t>::max()) {
      const auto rep_it = rep_of_root.find(root);
      const std::uint64_t my_rep =
          member && rep_it != rep_of_root.end() ? rep_it->second : gids[i];
      const auto it = rep_adoption.find(my_rep);
      if (it != rep_adoption.end()) rep = it->second;
    }
    if (rep != std::numeric_limits<std::uint64_t>::max())
      out.label[i] = static_cast<std::int64_t>(global_root(rep));
    // else: genuinely noise (or an unassigned point with no core anywhere
    // within eps) — stays kNoise.
  }

  if (stats) *stats = local_stats;
  return out;
}

}  // namespace udb
