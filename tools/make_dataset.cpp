// make_dataset — generate the synthetic datasets this repository uses, to
// CSV or UDB1 binary, for use with udbscan_cli or external tools.
//
//   $ make_dataset --name MPAGD --scale 0.5 --out mpagd.csv
//   $ make_dataset --gen blobs --n 100000 --dim 3 --out blobs.bin
//
// Either --name <paper dataset analog> (see data/named.hpp for the registry)
// or --gen <generator> with generator-specific flags.

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "common/io.hpp"
#include "data/generators.hpp"
#include "data/named.hpp"

using namespace udb;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const std::string name = cli.get_string("name", "");
    const std::string gen = cli.get_string("gen", "");
    const std::string out_path = cli.get_string("out", "");
    const double scale = cli.get_positive_double("scale", 1.0);
    // n*dim doubles must fit in memory-sized arithmetic: cap each factor so
    // the product can't overflow size_t (and a typo like --n -5 or
    // --n 1e18 dies with a one-line error instead of an OOM or a wrap).
    const auto n = static_cast<std::size_t>(
        cli.get_int_in_range("n", 10000, 0, std::int64_t{1} << 40));
    const auto dim = static_cast<std::size_t>(
        cli.get_int_in_range("dim", 3, 1, 1 << 16));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    if (!name.empty() && !gen.empty())
      throw std::invalid_argument(
          "--name and --gen are mutually exclusive; pick one");

    Dataset data = Dataset::empty(1);
    if (!name.empty()) {
      NamedDataset nd = make_named_dataset(name, scale, seed);
      data = std::move(nd.data);
      std::printf("%s: suggested eps = %g, MinPts = %u\n", nd.name.c_str(),
                  nd.params.eps, nd.params.min_pts);
    } else if (gen == "blobs") {
      const auto k =
          static_cast<std::size_t>(cli.get_int_at_least("k", 5, 1));
      const double stddev = cli.get_positive_double("stddev", 3.0);
      const double noise = cli.get_double("noise", 0.1);
      if (noise < 0.0 || noise > 1.0)
        throw std::invalid_argument("--noise must be in [0, 1]");
      data = gen_blobs(n, dim, k, 100.0, stddev, noise, seed);
    } else if (gen == "galaxy") {
      GalaxyConfig cfg;
      data = gen_galaxy(n, cfg, seed);
    } else if (gen == "roadnet") {
      RoadnetConfig cfg;
      data = gen_roadnet(n, cfg, seed);
    } else if (gen == "uniform") {
      data = gen_uniform(n, dim, 0.0, 100.0, seed);
    } else if (gen == "moons") {
      data = gen_two_moons(n, 0.05, seed);
    } else if (gen == "rings") {
      data = gen_rings(n, 3, 0.04, seed);
    } else if (gen == "highdim") {
      HighDimConfig cfg;
      cfg.dim = dim;
      data = gen_highdim(n, cfg, seed);
    } else {
      std::fprintf(stderr,
                   "usage: make_dataset (--name <analog> | --gen blobs|galaxy|"
                   "roadnet|uniform|moons|rings|highdim) --out file.{csv,bin} "
                   "[--n N] [--dim D] [--scale S] [--seed S]\n");
      return 2;
    }
    cli.check_unused();

    if (out_path.empty())
      throw std::invalid_argument("--out is required");
    const Status st = ends_with(out_path, ".bin")
                          ? write_binary(data, out_path)
                          : write_csv(data, out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "make_dataset: error: %s\n",
                   st.to_string().c_str());
      return 1;
    }
    std::printf("wrote %zu points x %zu dims to %s\n", data.size(), data.dim(),
                out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "make_dataset: error: %s\n", e.what());
    return 1;
  }
}
