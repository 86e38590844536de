// Load generator for the `sevuldet serve` daemon: drives scan requests
// at several offered-QPS levels (open loop, coordinated-omission-free:
// latency is measured from each request's *scheduled* send time) plus
// one closed-loop saturation pass, and reports p50/p95/p99 latency and
// achieved throughput per level. Every response is byte-compared
// against the in-process detect() findings for the same source, so the
// bench doubles as the daemon-equivalence check — it exits nonzero on
// any mismatch, and CI runs it as the serve-gate.
//
//   micro_serve --model MODEL [--socket SOCK] [--qps "50,100,200"]
//               [--secs S] [--clients C] [--reps R] [--json PATH]
//               [--telemetry] [--telemetry-compare]
//
// --telemetry self-hosts the daemon with the live telemetry plane on
// (snapshotter thread + structured access log + per-request trace IDs)
// and records rows under bench.telemetry.* instead of bench.*.
// --telemetry-compare runs the closed-loop saturation pass twice on
// self-hosted daemons — telemetry off, then on — and records both
// bench.closed.* and bench.telemetry.closed.* into ONE snapshot, so
// check_bench.py's machine-independent `speedups` ratio rule
// (BENCH_telemetry.json: on/off >= 0.99) gates the < 1% exposition
// overhead without wall-clock flakiness.
//
// When a daemon is already listening on --socket the bench drives it
// (the CI mode — a separate `sevuldet serve` process); otherwise it
// hosts a Server on a background thread in-process. --json records the
// results in the metrics-registry schema: gauges bench.qps<N>.p50_ms /
// .p95_ms / .p99_ms / .achieved_rps, bench.closed.*, and the label
// bench.findings_identical — tools/check_bench.py gates the *_p95_ms
// (wall rule) and *_rps (floor rule) gauges against BENCH_serve.json.
// Reps keep the recorded numbers stable: best (min latency / max
// throughput) of --reps sweeps, so scheduler noise only ever slows a
// rep, never improves the recorded value past the machine's ability.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sevuldet/serve/client.hpp"
#include "sevuldet/serve/server.hpp"
#include "sevuldet/util/metrics.hpp"

namespace {

namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;
namespace serve = sevuldet::serve;
namespace su = sevuldet::util;

using Clock = std::chrono::steady_clock;

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_ms.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_ms[lo] + (sorted_ms[hi] - sorted_ms[lo]) * frac;
}

struct LevelResult {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double achieved_rps = 0.0;
};

struct Workload {
  std::vector<std::string> sources;
  std::vector<std::string> expected;  // findings_to_json per source
};

/// A handful of scan inputs with their in-process reference findings.
/// Deterministic (fixed seed), so every rep and every CI run scans the
/// same programs.
Workload build_workload(sc::SeVulDet& detector) {
  sd::SardConfig config;
  config.pairs_per_category = 3;
  config.long_fraction = 0.0;
  config.seed = 404;
  Workload workload;
  for (const auto& tc : sd::generate_sard_like(config)) {
    if (workload.sources.size() >= 4) break;
    if (!tc.vulnerable) continue;
    workload.sources.push_back(tc.source);
    workload.expected.push_back(
        serve::findings_to_json(detector.detect(tc.source)));
  }
  if (workload.sources.empty()) {
    std::fprintf(stderr, "workload generation produced no sources\n");
    std::exit(3);
  }
  return workload;
}

/// Open-loop sweep at `qps`: requests fire on a fixed schedule split
/// round-robin over `clients` connections; latency for each request is
/// measured from its scheduled tick, so a backed-up daemon accumulates
/// queueing delay in the histogram instead of silently slowing the
/// offered rate.
LevelResult run_open_loop(const std::string& socket_path,
                          const Workload& workload, int qps, double secs,
                          int clients, std::atomic<long long>& mismatches) {
  const int total = std::max(1, static_cast<int>(qps * secs));
  const auto interval =
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          1.0 / static_cast<double>(qps)));
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::atomic<long long> failures{0};
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = serve::Client::connect(socket_path);
      if (!client.has_value()) {
        ++failures;
        return;
      }
      auto& lane = latencies[static_cast<std::size_t>(c)];
      for (int i = c; i < total; i += clients) {
        const auto scheduled = start + interval * i;
        std::this_thread::sleep_until(scheduled);
        const std::size_t which =
            static_cast<std::size_t>(i) % workload.sources.size();
        try {
          const auto findings = client->scan(workload.sources[which]);
          if (serve::findings_to_json(findings) != workload.expected[which]) {
            ++mismatches;
          }
        } catch (const std::exception&) {
          ++failures;
          continue;
        }
        lane.push_back(std::chrono::duration<double, std::milli>(Clock::now() -
                                                                 scheduled)
                           .count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::vector<double> all;
  for (auto& lane : latencies) {
    all.insert(all.end(), lane.begin(), lane.end());
  }
  if (failures.load() > 0) {
    std::fprintf(stderr, "open loop qps=%d: %lld failed requests\n", qps,
                 failures.load());
    std::exit(3);
  }
  std::sort(all.begin(), all.end());
  LevelResult result;
  result.p50_ms = percentile(all, 50);
  result.p95_ms = percentile(all, 95);
  result.p99_ms = percentile(all, 99);
  result.achieved_rps = static_cast<double>(all.size()) / elapsed;
  return result;
}

/// Closed-loop saturation: `clients` connections scanning back-to-back
/// for `secs`. Throughput here is the daemon's capacity ceiling with
/// cross-request batching; latency is per-request round-trip.
LevelResult run_closed_loop(const std::string& socket_path,
                            const Workload& workload, double secs, int clients,
                            std::atomic<long long>& mismatches) {
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::atomic<long long> failures{0};
  const auto start = Clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(secs));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = serve::Client::connect(socket_path);
      if (!client.has_value()) {
        ++failures;
        return;
      }
      auto& lane = latencies[static_cast<std::size_t>(c)];
      std::size_t i = static_cast<std::size_t>(c);
      while (Clock::now() < stop_at) {
        const std::size_t which = i++ % workload.sources.size();
        const auto sent = Clock::now();
        try {
          const auto findings = client->scan(workload.sources[which]);
          if (serve::findings_to_json(findings) != workload.expected[which]) {
            ++mismatches;
          }
        } catch (const std::exception&) {
          ++failures;
          break;
        }
        lane.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (failures.load() > 0) {
    std::fprintf(stderr, "closed loop: %lld failed requests\n",
                 failures.load());
    std::exit(3);
  }
  std::vector<double> all;
  for (auto& lane : latencies) {
    all.insert(all.end(), lane.begin(), lane.end());
  }
  std::sort(all.begin(), all.end());
  LevelResult result;
  result.p50_ms = percentile(all, 50);
  result.p95_ms = percentile(all, 95);
  result.p99_ms = percentile(all, 99);
  result.achieved_rps = static_cast<double>(all.size()) / elapsed;
  return result;
}

void keep_best(LevelResult& best, const LevelResult& rep, bool first) {
  if (first) {
    best = rep;
    return;
  }
  best.p50_ms = std::min(best.p50_ms, rep.p50_ms);
  best.p95_ms = std::min(best.p95_ms, rep.p95_ms);
  best.p99_ms = std::min(best.p99_ms, rep.p99_ms);
  best.achieved_rps = std::max(best.achieved_rps, rep.achieved_rps);
}

void record_level(const std::string& prefix, const LevelResult& result) {
  namespace metrics = sevuldet::util::metrics;
  metrics::gauge_set(prefix + ".p50_ms", result.p50_ms);
  metrics::gauge_set(prefix + ".p95_ms", result.p95_ms);
  metrics::gauge_set(prefix + ".p99_ms", result.p99_ms);
  metrics::gauge_set(prefix + ".achieved_rps", result.achieved_rps);
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_flags(argc, argv);
  const char* model_path = nullptr;
  std::string socket_path =
      "/tmp/sevuldet_micro_serve_" + std::to_string(::getpid()) + ".sock";
  std::string qps_list = "50,100,200";
  std::string json_path;
  double secs = 2.0;
  int clients = 4;
  int reps = bench::env_int("SEVULDET_BENCH_REPS", 2);
  bool telemetry = false;
  bool telemetry_compare = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry") == 0) telemetry = true;
    if (std::strcmp(argv[i], "--telemetry-compare") == 0) {
      telemetry_compare = true;
    }
  }
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--model") == 0) model_path = argv[i + 1];
    if (std::strcmp(argv[i], "--socket") == 0) socket_path = argv[i + 1];
    if (std::strcmp(argv[i], "--qps") == 0) qps_list = argv[i + 1];
    if (std::strcmp(argv[i], "--secs") == 0) secs = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--clients") == 0) clients = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  if (model_path == nullptr) {
    std::fprintf(stderr,
                 "usage: micro_serve --model MODEL [--socket SOCK] "
                 "[--qps LIST] [--secs S] [--clients C] [--reps R] "
                 "[--json PATH]\n");
    return 2;
  }
  clients = std::max(1, clients);
  reps = std::max(1, reps);
  if (!json_path.empty()) sevuldet::util::metrics::set_enabled(true);

  std::vector<int> levels;
  for (std::size_t pos = 0; pos < qps_list.size();) {
    const std::size_t comma = qps_list.find(',', pos);
    levels.push_back(std::atoi(qps_list.substr(pos, comma - pos).c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  // The in-process reference detector — also hosts the daemon when no
  // external one is listening on --socket.
  sc::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  sc::SeVulDet detector(config);
  detector.load(model_path);
  const Workload workload = build_workload(detector);

  // Self-hosted daemon options; `telemetry_on` adds the live plane the
  // way the obs-gate runs it: snapshotter + access log (slow tracing
  // stays off — it only triggers on outliers and is gated separately).
  auto server_options = [&](bool telemetry_on) {
    serve::ServeOptions options;
    options.socket_path = socket_path;
    options.threads = std::max(2, bench::bench_threads());
    options.queue_depth = 256;
    if (telemetry_on) {
      options.telemetry = true;
      options.telemetry_interval_ms = 250.0;
      options.access_log_path = socket_path + ".access.log";
    }
    return options;
  };

  if (telemetry_compare) {
    // Paired closed-loop pass: same process, same workload, back to
    // back — only the telemetry plane differs. Both rows land in one
    // snapshot so the BENCH_telemetry.json speedups rule can hold the
    // on/off throughput ratio >= 0.99 machine-independently.
    std::atomic<long long> compare_mismatches{0};
    auto closed_reps = [&](bool telemetry_on) {
      serve::Server server(detector, server_options(telemetry_on));
      std::thread thread([&] { server.run(); });
      for (int i = 0; i < 500 && ::access(socket_path.c_str(), F_OK) != 0;
           ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      LevelResult best;
      for (int rep = 0; rep < reps; ++rep) {
        keep_best(best,
                  run_closed_loop(socket_path, workload, secs, clients,
                                  compare_mismatches),
                  rep == 0);
      }
      server.request_shutdown();
      thread.join();
      return best;
    };
    std::printf(
        "telemetry-compare: closed loop, telemetry off then on "
        "(%d client(s), %d rep(s), %.1fs each)\n",
        clients, reps, secs);
    const LevelResult off = closed_reps(false);
    const LevelResult on = closed_reps(true);
    std::remove((socket_path + ".access.log").c_str());
    record_level("bench.closed", off);
    record_level("bench.telemetry.closed", on);
    const double ratio =
        off.achieved_rps > 0.0 ? on.achieved_rps / off.achieved_rps : 0.0;
    sevuldet::util::Table table(
        {"telemetry", "p50 ms", "p95 ms", "p99 ms", "achieved rps"});
    table.add_row({"off", sevuldet::util::fmt(off.p50_ms, 2),
                   sevuldet::util::fmt(off.p95_ms, 2),
                   sevuldet::util::fmt(off.p99_ms, 2),
                   sevuldet::util::fmt(off.achieved_rps, 1)});
    table.add_row({"on", sevuldet::util::fmt(on.p50_ms, 2),
                   sevuldet::util::fmt(on.p95_ms, 2),
                   sevuldet::util::fmt(on.p99_ms, 2),
                   sevuldet::util::fmt(on.achieved_rps, 1)});
    std::printf("%s", table.to_string().c_str());
    std::printf("telemetry-on/off throughput ratio: %.4f\n", ratio);
    const bool identical = compare_mismatches.load() == 0;
    sevuldet::util::metrics::label_set("bench.findings_identical",
                                       identical ? "true" : "false");
    sevuldet::util::metrics::gauge_set("bench.clients", clients);
    sevuldet::util::metrics::gauge_set("bench.secs_per_level", secs);
    std::printf("findings identical to in-process detect: %s\n",
                identical ? "yes" : "NO");
    if (!json_path.empty()) {
      sevuldet::util::metrics::write_json(json_path);
      std::printf("recorded %s\n", json_path.c_str());
    }
    return identical ? 0 : 4;
  }

  std::optional<serve::Server> self_hosted;
  std::thread server_thread;
  const bool external = serve::Client::connect(socket_path).has_value();
  if (!external) {
    self_hosted.emplace(detector, server_options(telemetry));
    server_thread = std::thread([&] { self_hosted->run(); });
    for (int i = 0; i < 500 && ::access(socket_path.c_str(), F_OK) != 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  std::printf(
      "driving %s daemon at %s (%d client(s), %d rep(s), %.1fs/level)\n",
      external ? "external" : "self-hosted", socket_path.c_str(), clients, reps,
      secs);

  std::atomic<long long> mismatches{0};
  std::vector<LevelResult> open_best(levels.size());
  LevelResult closed_best;
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < levels.size(); ++i) {
      keep_best(open_best[i],
                run_open_loop(socket_path, workload, levels[i], secs, clients,
                              mismatches),
                rep == 0);
    }
    keep_best(closed_best,
              run_closed_loop(socket_path, workload, secs, clients, mismatches),
              rep == 0);
  }

  if (self_hosted.has_value()) {
    self_hosted->request_shutdown();
    server_thread.join();
  }

  // Telemetry-on sweeps record under bench.telemetry.*, so one baseline
  // holds both variants side by side.
  const std::string row_prefix =
      telemetry && !external ? "bench.telemetry" : "bench";
  sevuldet::util::Table table(
      {"load", "p50 ms", "p95 ms", "p99 ms", "achieved rps"});
  for (std::size_t i = 0; i < levels.size(); ++i) {
    table.add_row({"open " + std::to_string(levels[i]) + " qps",
                   sevuldet::util::fmt(open_best[i].p50_ms, 2),
                   sevuldet::util::fmt(open_best[i].p95_ms, 2),
                   sevuldet::util::fmt(open_best[i].p99_ms, 2),
                   sevuldet::util::fmt(open_best[i].achieved_rps, 1)});
    record_level(row_prefix + ".qps" + std::to_string(levels[i]), open_best[i]);
  }
  table.add_row({"closed loop", sevuldet::util::fmt(closed_best.p50_ms, 2),
                 sevuldet::util::fmt(closed_best.p95_ms, 2),
                 sevuldet::util::fmt(closed_best.p99_ms, 2),
                 sevuldet::util::fmt(closed_best.achieved_rps, 1)});
  record_level(row_prefix + ".closed", closed_best);
  std::printf("%s", table.to_string().c_str());

  const bool identical = mismatches.load() == 0;
  sevuldet::util::metrics::label_set("bench.findings_identical",
                                     identical ? "true" : "false");
  sevuldet::util::metrics::gauge_set("bench.clients", clients);
  sevuldet::util::metrics::gauge_set("bench.secs_per_level", secs);
  std::printf("findings identical to in-process detect: %s\n",
              identical ? "yes" : "NO");
  if (!json_path.empty()) {
    sevuldet::util::metrics::write_json(json_path);
    std::printf("recorded %s\n", json_path.c_str());
  }
  return identical ? 0 : 4;
}
