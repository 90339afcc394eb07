// Stream clustering (the paper's future-work direction, Section VII):
// points arrive in waves; the incremental engine keeps the exact core count
// current after every wave, and the exact DBSCAN clustering of everything
// seen so far is available on demand.
//
// The second half is the serving refresh loop (docs/SERVING.md): after each
// wave the stream is snapshotted into an immutable ClusterModel and swapped
// into a ServedModel with one atomic store — queries between waves hit the
// freshly refreshed model without any locking, exactly how a live
// ingest-and-serve deployment would run.
//
//   $ ./stream_clustering [--n 40000] [--waves 8] [--eps 1.0] [--minpts 5]

#include <cstdio>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "core/incremental.hpp"
#include "data/generators.hpp"
#include "obs/metrics.hpp"
#include "serve/model.hpp"

int main(int argc, char** argv) {
  udb::Cli cli(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 40000));
  const auto waves = static_cast<std::size_t>(cli.get_int("waves", 8));
  const double eps = cli.get_double("eps", 1.0);
  const auto min_pts = static_cast<std::uint32_t>(cli.get_int("minpts", 5));
  cli.check_unused();

  udb::GalaxyConfig cfg;
  cfg.point_sigma = 0.7;
  const udb::Dataset data = udb::gen_galaxy(n, cfg, /*seed=*/33);

  udb::IncrementalMuDbscan stream(data.dim(), {eps, min_pts});
  std::printf("streaming %zu galaxy points in %zu waves\n", n, waves);
  std::printf("%8s %8s %12s %14s %10s %11s\n", "points", "MCs",
              "ingest(ms)", "cores", "clusters", "offline(ms)");

  const std::size_t wave_size = (n + waves - 1) / waves;
  for (std::size_t start = 0; start < n; start += wave_size) {
    udb::WallTimer ingest;
    const std::size_t end = std::min(n, start + wave_size);
    for (std::size_t i = start; i < end; ++i)
      stream.insert(data.point(static_cast<udb::PointId>(i)));
    const double t_ingest = ingest.seconds();

    // The core count is maintained; the labels are extracted on demand.
    udb::WallTimer offline;
    const auto result = stream.result();
    std::printf("%8zu %8zu %12.1f %14zu %10zu %11.1f\n", stream.size(),
                stream.num_mcs(), t_ingest * 1e3, stream.num_core(),
                result.num_clusters(), offline.seconds() * 1e3);
  }

  const auto final_result = stream.result();
  std::printf("final: %zu clusters, %zu cores, %zu noise\n",
              final_result.num_clusters(), final_result.num_core(),
              final_result.num_noise());

  // ---- ingest -> refresh() -> query: the serving refresh loop ------------
  // Re-run the same stream, but this time publish a servable model after
  // every wave and answer queries against it. The first wave's points are
  // classified after every refresh: their answers can CHANGE as later waves
  // add density (noise becomes border, border becomes core) — exactly the
  // behavior a monitoring dashboard polling a served model would observe.
  std::printf("\nrefresh loop: re-streaming with a served model per wave\n");
  std::printf("%8s %12s %10s %10s %10s %10s\n", "points", "refresh(ms)",
              "clusters", "probe-core", "probe-brd", "probe-noise");

  udb::IncrementalMuDbscan live(data.dim(), {eps, min_pts});
  udb::obs::MetricsRegistry metrics;
  std::shared_ptr<udb::serve::ServedModel> served;  // created on first wave
  const std::size_t probe_n = std::min<std::size_t>(wave_size, 2000);

  for (std::size_t start = 0; start < n; start += wave_size) {
    const std::size_t end = std::min(n, start + wave_size);
    for (std::size_t i = start; i < end; ++i)
      live.insert(data.point(static_cast<udb::PointId>(i)));

    // Snapshot the stream into an immutable model and swap it in. Readers
    // (here: the probe loop below; in udbscan_serve: concurrent connection
    // threads) never block on the swap.
    udb::WallTimer refresh;
    auto model = udb::serve::model_from_stream(live);
    if (!model.ok()) {
      std::fprintf(stderr, "refresh failed: %s\n",
                   model.status().to_string().c_str());
      return 1;
    }
    if (served == nullptr)
      served = std::make_shared<udb::serve::ServedModel>(*model);
    else
      served->refresh(*model, &metrics);
    const double t_refresh = refresh.seconds();

    // Query the freshly served model: classify the first wave's points and
    // tally how the stream's growing density has re-graded them.
    const auto m = served->get();
    std::size_t core = 0, border = 0, noise = 0;
    for (std::size_t i = 0; i < probe_n; ++i) {
      auto c = m->classify(data.point(static_cast<udb::PointId>(i)), &metrics);
      if (!c.ok()) {
        std::fprintf(stderr, "classify failed: %s\n",
                     c.status().to_string().c_str());
        return 1;
      }
      switch (c->kind) {
        case udb::PointKind::Core: ++core; break;
        case udb::PointKind::Border: ++border; break;
        case udb::PointKind::Noise: ++noise; break;
      }
    }
    std::printf("%8zu %12.1f %10zu %10zu %10zu %10zu\n", m->size(),
                t_refresh * 1e3, m->num_clusters(), core, border, noise);
  }

  const auto snap = metrics.snapshot();
  std::printf("served %llu classifications (%llu exact-match fast path), "
              "%llu refreshes\n",
              static_cast<unsigned long long>(
                  snap.counter(udb::obs::Counter::kServeClassifyPoints)),
              static_cast<unsigned long long>(snap.counter(
                  udb::obs::Counter::kServeClassifyAvoidedExact)),
              static_cast<unsigned long long>(
                  snap.counter(udb::obs::Counter::kServeModelRefreshes)));
  return 0;
}
