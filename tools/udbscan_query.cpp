// udbscan_query — command-line client for udbscan_serve (docs/SERVING.md).
//
//   $ udbscan_query --port 41233 --ping
//   $ udbscan_query --port 41233 --model-info
//   $ udbscan_query --port 41233 --classify queries.csv --out answers.csv
//   $ udbscan_query --port 41233 --neighbors 1.5,2.0 --radius 2.5
//   $ udbscan_query --port 41233 --point-info 17
//   $ udbscan_query --port 41233 --stats --out stats.json
//   $ udbscan_query --port 41233 --telemetry        # live rolling stats, JSON
//   $ udbscan_query --port 41233 --prometheus       # Prometheus exposition
//   $ udbscan_query --port 41233 --garbage 5        # protocol abuse probe
//
// Classify answers are printed/written in the canonical classify CSV format
// (serve/classify_csv.hpp) — byte-identical to what
// `udbscan --snapshot-in --classify` produces offline, so the CI smoke job
// can diff served vs offline answers directly.
//
// --garbage N ships N malformed frames (random bytes, truncated headers,
// absurd counts) and reports how the server answered; it then verifies the
// server still answers a well-formed ping on a fresh connection. Exit 0 means
// every garbage frame got a clean error (or a clean connection drop) and the
// server survived.
//
// Exit codes are distinct per failure class so scripts can branch without
// parsing stderr:
//   0  success
//   1  the server answered with an error (or failed mid-request)
//   2  bad arguments (missing/invalid flags, malformed coordinates)
//   3  server unreachable (connect failed / refused)

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/cli.hpp"
#include "common/io.hpp"
#include "common/vfs.hpp"
#include "serve/classify_csv.hpp"
#include "serve/client.hpp"

using namespace udb;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<double> parse_coords(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(std::stod(cell));
  return out;
}

// Deterministic garbage generator: frame bodies that must never crash the
// server — random-looking bytes, truncated classify headers, absurd counts.
std::vector<std::uint8_t> garbage_frame(int i) {
  ByteWriter w;
  switch (i % 5) {
    case 0:  // unknown message type
      w.u8(0xEE);
      w.u32(0xDEADBEEF);
      break;
    case 1:  // classify header claiming a huge batch with no coordinates
      w.u8(2);
      w.u32(0xFFFFFFFF);
      w.u32(3);
      break;
    case 2: {  // pseudo-random byte soup (LCG, fixed seed per index)
      std::uint32_t x = 0x9E3779B9u * static_cast<std::uint32_t>(i + 1);
      for (int k = 0; k < 64; ++k) {
        x = x * 1664525u + 1013904223u;
        w.u8(static_cast<std::uint8_t>(x >> 24));
      }
      break;
    }
    case 3:  // truncated point_info (type byte only)
      w.u8(4);
      break;
    default:  // valid ping type followed by trailing junk
      w.u8(1);
      w.u64(0x0123456789ABCDEFull);
      break;
  }
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli(argc, argv);
    const auto port = static_cast<std::uint16_t>(
        cli.get_int_in_range("port", 0, 0, 65535));
    const double timeout = cli.get_positive_double("timeout-s", 10.0);
    const bool ping = cli.get_bool("ping", false);
    const bool model_info = cli.get_bool("model-info", false);
    const bool stats = cli.get_bool("stats", false);
    const bool telemetry = cli.get_bool("telemetry", false);
    const bool prometheus = cli.get_bool("prometheus", false);
    const std::string classify_path = cli.get_string("classify", "");
    const std::int64_t point_info_id = cli.get_int("point-info", -1);
    const std::string neighbors_csv = cli.get_string("neighbors", "");
    const double radius = cli.get_double("radius", 0.0);
    const std::int64_t garbage = cli.get_int_at_least("garbage", 0, 0);
    const std::string out_path = cli.get_string("out", "");
    cli.check_unused();

    if (port == 0) {
      std::fprintf(stderr,
                   "usage: udbscan_query --port P [--ping] [--model-info] "
                   "[--stats] [--telemetry] [--prometheus] "
                   "[--classify queries.csv] [--point-info ID] "
                   "[--neighbors x,y,... --radius R] [--garbage N] "
                   "[--timeout-s S] [--out file]\n");
      return 2;
    }

    auto client = serve::Client::connect(port, timeout);
    if (!client.ok()) {
      std::fprintf(stderr, "udbscan_query: error: %s\n",
                   client.status().to_string().c_str());
      return 3;
    }

    if (ping) {
      if (Status st = client->ping(); !st.ok()) {
        std::fprintf(stderr, "udbscan_query: error: %s\n",
                     st.to_string().c_str());
        return 1;
      }
      std::printf("pong\n");
    }

    if (model_info) {
      auto info = client->model_info();
      if (!info.ok()) {
        std::fprintf(stderr, "udbscan_query: error: %s\n",
                     info.status().to_string().c_str());
        return 1;
      }
      std::printf("model: %llu points, %u dims, eps %g, minpts %u, %llu "
                  "clusters\n",
                  static_cast<unsigned long long>(info->n), info->dim,
                  info->eps, info->min_pts,
                  static_cast<unsigned long long>(info->num_clusters));
    }

    if (!classify_path.empty()) {
      auto queries = ends_with(classify_path, ".bin")
                         ? load_binary(classify_path, {}, nullptr)
                         : load_csv(classify_path, {}, nullptr);
      if (!queries.ok()) {
        std::fprintf(stderr, "udbscan_query: error: %s\n",
                     queries.status().to_string().c_str());
        return 1;
      }
      auto answers = client->classify(
          queries->raw(), static_cast<std::uint32_t>(queries->dim()));
      if (!answers.ok()) {
        std::fprintf(stderr, "udbscan_query: error: %s\n",
                     answers.status().to_string().c_str());
        return 1;
      }
      std::size_t exact = 0;
      for (const serve::Classify& c : *answers) exact += c.exact_match ? 1 : 0;
      std::printf("classified %zu queries (%zu exact matches)\n",
                  answers->size(), exact);
      if (!out_path.empty()) {
        std::ostringstream out;
        out << serve::kClassifyCsvHeader << '\n';
        for (const serve::Classify& c : *answers)
          out << serve::classify_csv_row(c) << '\n';
        const Status ws = vfs::write_text_file(out_path, out.str());
        if (!ws.ok()) throw std::runtime_error(ws.to_string());
        std::printf("answers written to %s\n", out_path.c_str());
      } else {
        for (const serve::Classify& c : *answers)
          std::printf("%s\n", serve::classify_csv_row(c).c_str());
      }
    }

    if (point_info_id >= 0) {
      auto info = client->point_info(static_cast<std::uint64_t>(point_info_id));
      if (!info.ok()) {
        std::fprintf(stderr, "udbscan_query: error: %s\n",
                     info.status().to_string().c_str());
        return 1;
      }
      std::printf("point %lld: label %lld, %s\n",
                  static_cast<long long>(point_info_id),
                  static_cast<long long>(info->label),
                  serve::kind_name(info->kind));
    }

    if (!neighbors_csv.empty()) {
      const std::vector<double> q = parse_coords(neighbors_csv);
      auto nbrs = client->neighbors(q, radius);
      if (!nbrs.ok()) {
        std::fprintf(stderr, "udbscan_query: error: %s\n",
                     nbrs.status().to_string().c_str());
        return 1;
      }
      std::printf("%zu neighbors within %g\n", nbrs->size(), radius);
      for (const auto& [id, d2] : *nbrs)
        std::printf("%llu,%.17g\n", static_cast<unsigned long long>(id), d2);
    }

    if (stats) {
      auto json = client->stats_json();
      if (!json.ok()) {
        std::fprintf(stderr, "udbscan_query: error: %s\n",
                     json.status().to_string().c_str());
        return 1;
      }
      if (!out_path.empty()) {
        const Status ws = vfs::write_text_file(out_path, *json + "\n");
        if (!ws.ok()) throw std::runtime_error(ws.to_string());
        std::printf("stats written to %s\n", out_path.c_str());
      } else {
        std::printf("%s\n", json->c_str());
      }
    }

    // Live telemetry scrapes: the server renders the text, the tool just
    // ships it — so what CI validates is exactly what Prometheus would see.
    if (telemetry || prometheus) {
      const serve::TelemetryFormat fmt = prometheus
                                             ? serve::TelemetryFormat::kPrometheus
                                             : serve::TelemetryFormat::kJson;
      auto text = client->telemetry_text(fmt);
      if (!text.ok()) {
        std::fprintf(stderr, "udbscan_query: error: %s\n",
                     text.status().to_string().c_str());
        return 1;
      }
      if (!out_path.empty()) {
        const Status ws = vfs::write_text_file(out_path, *text + "\n");
        if (!ws.ok()) throw std::runtime_error(ws.to_string());
        std::printf("telemetry written to %s\n", out_path.c_str());
      } else {
        std::printf("%s\n", text->c_str());
      }
    }

    if (garbage > 0) {
      // Each garbage frame gets its own connection: the server is allowed
      // to (and for stream-desyncing garbage, should) drop the connection
      // after answering. What it must never do is die.
      std::size_t error_answers = 0, drops = 0;
      for (std::int64_t i = 0; i < garbage; ++i) {
        auto gc = serve::Client::connect(port, timeout);
        if (!gc.ok()) {
          std::fprintf(stderr, "udbscan_query: error: server gone before "
                       "garbage frame %lld: %s\n",
                       static_cast<long long>(i),
                       gc.status().to_string().c_str());
          return 3;
        }
        auto resp = gc->raw_roundtrip(garbage_frame(static_cast<int>(i)));
        if (resp.ok()) {
          if (resp->code == StatusCode::kOk) {
            std::fprintf(stderr, "udbscan_query: error: garbage frame %lld "
                         "was answered OK\n",
                         static_cast<long long>(i));
            return 1;
          }
          ++error_answers;
        } else {
          ++drops;  // connection dropped — acceptable, as long as it answers
        }
      }
      // The real test: after all the abuse, a clean ping still works.
      auto after = serve::Client::connect(port, timeout);
      if (!after.ok() || !after->ping().ok()) {
        std::fprintf(stderr,
                     "udbscan_query: error: server did not survive %lld "
                     "garbage frames\n",
                     static_cast<long long>(garbage));
        return 1;
      }
      std::printf("server survived %lld garbage frames (%zu error answers, "
                  "%zu drops)\n",
                  static_cast<long long>(garbage), error_answers, drops);
    }

    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "udbscan_query: error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "udbscan_query: error: %s\n", e.what());
    return 1;
  }
}
