#include "selftest.hpp"

#include <cstdio>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "core/mudbscan.hpp"
#include "data/generators.hpp"
#include "data/named.hpp"
#include "gates.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

// Moves one core point to another cluster (or a fresh one when there is a
// single cluster): a different core partition.
udb::ClusteringResult flip_one_label(udb::ClusteringResult r) {
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!r.is_core[i]) continue;
    std::int64_t other = r.label[i] + 1;
    for (std::int64_t l : r.label)
      if (l >= 0 && l != r.label[i]) {
        other = l;
        break;
      }
    r.label[i] = other;
    return r;
  }
  return r;
}

void fit_oracles() {
  const auto galaxy = udb::make_named_dataset("MPAGD", 0.05, 3);
  const auto g = udb::mu_dbscan(galaxy.data, galaxy.params);
  expect(check_against_grid(galaxy.data, galaxy.params, g).empty(),
         "grid oracle accepts the fit (fit_galaxy3d)");
  expect(!check_against_grid(galaxy.data, galaxy.params, flip_one_label(g))
              .empty(),
         "grid oracle rejects one flipped label");
  expect(check_same_fit(g, g, false).empty() &&
             !check_same_fit(g, flip_one_label(g), false).empty(),
         "timed-fit check (parallel engine) rejects one flipped label");
  expect(check_same_fit(g, g, true).empty() &&
             !check_same_fit(g, flip_one_label(g), true).empty(),
         "timed-fit check (sequential engine) rejects one flipped label");
}

void incremental_oracle() {
  const udb::DbscanParams prm{1.5, 5};
  const auto pts = udb::gen_blobs(3000, 2, 8, 30.0, 1.0, 0.08, 5);
  udb::IncrementalMuDbscan inc(2, prm);
  for (std::size_t i = 0; i < pts.size(); ++i)
    (void)inc.insert(pts.point(static_cast<udb::PointId>(i)));
  udb::Rng rng(9);
  for (int k = 0; k < 500; ++k)
    (void)inc.erase(static_cast<udb::PointId>(rng.uniform_index(pts.size())));
  const auto r = inc.result();
  expect(check_canonical(inc.survivors(), prm, r).empty(),
         "canonical oracle accepts the incremental result (update_churn)");
  expect(!check_canonical(inc.survivors(), prm, flip_one_label(r)).empty(),
         "canonical oracle rejects one flipped label");
}

void serve_oracle() {
  const udb::DbscanParams prm{1.5, 5};
  udb::serve::ModelSnapshot snap;
  snap.data = udb::gen_blobs(2000, 2, 6, 40.0, 1.0, 0.08, 11);
  snap.params = prm;
  snap.result = udb::mu_dbscan(snap.data, prm);
  const udb::Dataset data = snap.data;
  const udb::ClusteringResult fit = snap.result;
  auto model = udb::serve::ClusterModel::build(std::move(snap));
  if (!model.ok()) {
    expect(false, "model build");
    return;
  }
  udb::serve::QueryServer server(*model);
  if (!server.start().ok()) {
    expect(false, "server start");
    return;
  }
  auto client = udb::serve::Client::connect(server.port(), 10.0);
  if (!client.ok()) {
    expect(false, "client connect");
    return;
  }
  // A training point and a novel point next to it.
  std::vector<double> q = {data.coord(0, 0), data.coord(0, 1),
                           data.coord(0, 0) + 0.3, data.coord(0, 1) - 0.2};
  const auto want = expected_answers(data, prm, fit, q);
  auto got = client->classify(q, 2);
  if (!got.ok() || got->size() != 2) {
    expect(false, "served classify");
    return;
  }
  bool clean = true, caught = true;
  for (std::size_t i = 0; i < 2; ++i) {
    clean = clean && check_answer(want[i], (*got)[i]).empty();
    auto wrong_label = (*got)[i];
    wrong_label.label += 1;
    auto wrong_kind = (*got)[i];
    wrong_kind.kind = wrong_kind.kind == udb::PointKind::Noise
                          ? udb::PointKind::Border
                          : udb::PointKind::Noise;
    caught = caught && !check_answer(want[i], wrong_label).empty() &&
             !check_answer(want[i], wrong_kind).empty();
  }
  expect(clean, "answer oracle accepts the served answers (serve_classify)");
  expect(caught, "answer oracle rejects a wrong served label or kind");
}

}  // namespace

int run_selftest() {
  fit_oracles();
  incremental_oracle();
  serve_oracle();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
