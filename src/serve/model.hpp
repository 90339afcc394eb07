// ClusterModel — the in-process serving view of a fitted µDBSCAN model
// (docs/SERVING.md): an immutable (dataset, params, exact clustering) triple
// plus the µR-tree rebuilt from them, answering point queries without ever
// re-running the clustering.
//
// Query semantics (all exact; see docs/SERVING.md for the argument):
//
//   * classify(q): if q is bitwise-equal to a dataset point (hash fast path)
//     or at squared distance 0 from one (found during the search), the stored
//     label/kind are returned verbatim — so classifying the training set
//     reproduces the batch result exactly, border-point tie-breaks included.
//     Otherwise q is treated as a *border candidate*: it joins the cluster of
//     its nearest core point strictly within eps (Border), or is Noise if no
//     core point is that close. `would_be_core` additionally reports whether
//     inserting q would make q itself core (|N_eps(q)| + 1 >= MinPts —
//     advisory only: actually inserting q could promote neighbors or merge
//     clusters, which a read-only model cannot represent).
//
//   * neighbors(q, radius): the exact set of dataset points strictly within
//     `radius` of q, sorted by (squared distance, id).
//
// Every method is const and safe to call from any number of threads
// concurrently: the µR-tree and the exact-match index are immutable after
// build, and the only mutation anywhere is relaxed atomic instrumentation.
// ServedModel adds the refresh story on top: readers copy a shared_ptr under
// a mutex and keep the model alive for the whole request even if a refresh
// swaps in a successor mid-flight.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/runguard.hpp"
#include "common/status.hpp"
#include "core/murtree.hpp"
#include "serve/snapshot.hpp"

namespace udb {
class IncrementalMuDbscan;
}

namespace udb::obs {
class MetricsRegistry;
}

namespace udb::serve {

// One classify answer. For an exact match, `label`/`kind`/`would_be_core`
// mirror the stored clustering; otherwise they follow the border-candidate
// rule above and `neighbors` is |N_eps(q)| over the dataset.
struct Classify {
  std::int64_t label = kNoise;
  PointKind kind = PointKind::Noise;
  bool exact_match = false;
  bool would_be_core = false;
  std::uint32_t neighbors = 0;
};

struct PointInfo {
  std::int64_t label = kNoise;
  PointKind kind = PointKind::Noise;
  bool is_core = false;
};

class ClusterModel {
 public:
  // Builds the serving index from a snapshot: rebuilds the µR-tree with the
  // snapshot's engine knobs (deterministic, so it is the same index the
  // fitting run used) and the exact-match hash over coordinate bytes.
  // Returns a clean Status on guard trips or allocation failure during the
  // rebuild. `pool` (optional) parallelizes the AuxR-tree builds.
  static StatusOr<std::shared_ptr<const ClusterModel>> build(
      ModelSnapshot snap, ThreadPool* pool = nullptr,
      RunGuard* guard = nullptr);

  ClusterModel(const ClusterModel&) = delete;
  ClusterModel& operator=(const ClusterModel&) = delete;

  // ---- queries (thread-safe, lock-free) ---------------------------------
  // `metrics` (optional, not owned) receives the serve counters: the
  // classify ledger (points == performed + avoided_exact) and the
  // neighbor/point-info tallies.
  [[nodiscard]] StatusOr<Classify> classify(
      std::span<const double> q, obs::MetricsRegistry* metrics = nullptr) const;

  // Classifies `count` points stored row-major in `coords` (size must be
  // count * dim()). Fans out over `pool` when one is supplied and the batch
  // is large enough; `guard` bounds the batch (per-request deadline) via
  // per-chunk cooperative checkpoints.
  [[nodiscard]] StatusOr<std::vector<Classify>> classify_batch(
      std::span<const double> coords, std::size_t count,
      obs::MetricsRegistry* metrics = nullptr, ThreadPool* pool = nullptr,
      RunGuard* guard = nullptr) const;

  // Exact strict-radius neighborhood of an arbitrary position, sorted by
  // (squared distance, id). Pairs are (point id, squared distance).
  [[nodiscard]] StatusOr<std::vector<std::pair<PointId, double>>> neighbors(
      std::span<const double> q, double radius,
      obs::MetricsRegistry* metrics = nullptr) const;

  [[nodiscard]] StatusOr<PointInfo> point_info(
      std::uint64_t id, obs::MetricsRegistry* metrics = nullptr) const;

  // ---- model facts -------------------------------------------------------
  [[nodiscard]] std::size_t size() const noexcept { return snap_.data.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return snap_.data.dim(); }
  [[nodiscard]] const DbscanParams& params() const noexcept {
    return snap_.params;
  }
  [[nodiscard]] std::size_t num_clusters() const noexcept {
    return num_clusters_;
  }
  [[nodiscard]] const ClusteringResult& result() const noexcept {
    return snap_.result;
  }
  [[nodiscard]] const Dataset& dataset() const noexcept { return snap_.data; }
  [[nodiscard]] const std::string& report_json() const noexcept {
    return snap_.report_json;
  }
  [[nodiscard]] const MuRTree& tree() const noexcept { return *tree_; }

 private:
  friend Status save_model(const ClusterModel& model, const std::string& path);

  explicit ClusterModel(ModelSnapshot snap) : snap_(std::move(snap)) {}

  // The un-counted core of classify: `performed` reports whether a µR-tree
  // search ran (vs the hash fast path).
  [[nodiscard]] Classify classify_impl(std::span<const double> q,
                                       bool& performed) const;

  ModelSnapshot snap_;
  std::size_t num_clusters_ = 0;
  // Rebuilt index over snap_.data. unique_ptr: the tree holds a pointer to
  // the dataset member, so the model is pinned behind a shared_ptr and never
  // copied or moved after build().
  std::unique_ptr<MuRTree> tree_;
  // Exact-match fast path: FNV-1a over the point's coordinate bytes ->
  // candidate ids (multimap: hash collisions resolved by memcmp).
  std::unordered_multimap<std::uint64_t, PointId> exact_;
};

// The refresh seam: readers copy the current shared_ptr under a mutex;
// refresh() swaps in a successor under the same mutex. The lock covers one
// pointer copy (a reference-count increment), so readers never wait on model
// work, and a plain mutex is what ThreadSanitizer can check. In-flight
// requests keep the old model alive until their shared_ptr drops.
class ServedModel {
 public:
  explicit ServedModel(std::shared_ptr<const ClusterModel> m)
      : model_(std::move(m)) {}

  [[nodiscard]] std::shared_ptr<const ClusterModel> get() const {
    std::lock_guard<std::mutex> lk(mu_);
    return model_;
  }
  void refresh(std::shared_ptr<const ClusterModel> m,
               obs::MetricsRegistry* metrics = nullptr);

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ClusterModel> model_;
};

// Snapshots an incremental engine (its exact result over the alive points)
// and builds a servable model from it — the refresh-loop producer
// (examples/stream_clustering.cpp). Copies the survivors; the engine keeps
// ingesting independently afterwards.
[[nodiscard]] StatusOr<std::shared_ptr<const ClusterModel>> model_from_stream(
    const IncrementalMuDbscan& engine, ThreadPool* pool = nullptr,
    RunGuard* guard = nullptr);

// Convenience: snapshot a servable model back to disk (the inverse of
// ClusterModel::build on load_model's output).
[[nodiscard]] Status save_model(const ClusterModel& model,
                                const std::string& path);

}  // namespace udb::serve
