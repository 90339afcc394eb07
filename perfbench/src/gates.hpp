// Exactness oracles. Every check returns an empty string when the output is
// right and a description of the first mismatch otherwise. Workloads run them
// outside every timed window; the self-test feeds each one a corrupted
// output to show it fails.

#pragma once

#include <string>
#include <vector>

#include "common/dataset.hpp"
#include "metrics/clustering.hpp"
#include "serve/model.hpp"

namespace perfbench {

// compare_exact against grid_dbscan on the same points.
std::string check_against_grid(const udb::Dataset& ds,
                               const udb::DbscanParams& prm,
                               const udb::ClusteringResult& got);

// A timed fit against the checked one: identical vectors when the engine is
// sequential (deterministic), compare_exact otherwise (border attachment may
// legally differ between parallel runs).
std::string check_same_fit(const udb::ClusteringResult& checked,
                           const udb::ClusteringResult& got, bool identical);

// An incremental result against canonicalize_clustering(mu_dbscan(survivors)).
std::string check_canonical(const udb::Dataset& survivors,
                            const udb::DbscanParams& prm,
                            const udb::ClusteringResult& got);

// What a correct server answers for one query point.
struct Expected {
  std::int64_t label = udb::kNoise;
  udb::PointKind kind = udb::PointKind::Noise;
  bool exact_match = false;
};

// Brute-force expectation for each query (row-major, dim of `ds`), following
// the model's rules: a bitwise or distance-0 dataset twin answers with the
// lowest such id's stored label and kind; otherwise the query joins its
// (d2, id)-nearest core strictly within eps as Border, else Noise.
std::vector<Expected> expected_answers(const udb::Dataset& ds,
                                       const udb::DbscanParams& prm,
                                       const udb::ClusteringResult& fit,
                                       const std::vector<double>& queries);

std::string check_answer(const Expected& want, const udb::serve::Classify& got);

}  // namespace perfbench
