// sevuldet — command-line interface to the library.
//
//   sevuldet selftrain --out model.txt [--pairs N] [--epochs N]
//       Train a detector on the synthetic SARD-like corpus and save it.
//   sevuldet scan <file.c> --model model.txt
//       Run the detection phase on a C source file; prints findings with
//       line numbers, categories, probabilities and attention tokens.
//   sevuldet gadgets <file.c> [--plain]
//       Print every (path-sensitive) code gadget of a source file.
//   sevuldet fuzz <file.c> [--execs N]
//       AFL-like coverage-guided fuzzing of the file's harness_main().
//   sevuldet train --dir DIR --manifest DIR/manifest.tsv --out model.txt
//       Train on user-supplied .c files labeled by a TSV manifest
//       (file<TAB>line<TAB>cwe per flagged line).
//   sevuldet export-corpus --dir DIR [--pairs N]
//       Write the synthetic SARD-like corpus to disk (+ manifest.tsv).
//   sevuldet explain <file.c> --model model.txt [--json FILE] [--top N]
//       Detection with attention provenance (paper Fig. 6): each finding
//       is traced token-by-token back to original identifiers and source
//       lines through the normalizer's invertible placeholder maps.
//   sevuldet report [--json FILE] [--pairs N] [--epochs N]
//       Train + evaluate on the synthetic corpus and print the quality
//       report (confusion, per-CWE/per-length F1, calibration, drops);
//       --json writes the machine-readable form for check_quality.py.
//   sevuldet serve --model model.bin --socket /tmp/sevuldet.sock
//       Long-lived scan daemon: loads the model once and serves scan /
//       explain / report-status / shutdown requests over a Unix socket,
//       scoring each request's gadgets in one batched forward pass.
//   sevuldet shutdown --socket /tmp/sevuldet.sock
//       Drain and stop a running daemon.
//   sevuldet top --socket /tmp/sevuldet.sock
//       Live view of a running daemon (QPS, latency percentiles, error
//       rates, queue depth, RSS) by polling the
//       `metrics` op; --json / --prom print one machine-readable scrape.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "sevuldet/baselines/fuzzer.hpp"
#include "sevuldet/core/introspect.hpp"
#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/core/scan.hpp"
#include "sevuldet/dataset/manifest.hpp"
#include "sevuldet/dataset/sard_generator.hpp"
#include "sevuldet/frontend/parser.hpp"
#include "sevuldet/graph/pdg.hpp"
#include "sevuldet/nn/kernels.hpp"
#include "sevuldet/serve/client.hpp"
#include "sevuldet/serve/server.hpp"
#include "sevuldet/slicer/gadget.hpp"
#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/mini_json.hpp"
#include "sevuldet/util/strings.hpp"
#include "sevuldet/util/table.hpp"
#include "sevuldet/util/trace.hpp"

using namespace sevuldet;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sevuldet selftrain --out MODEL [--pairs N] [--epochs N]\n"
               "                     [--corpus-cache DIR] [--backend B]\n"
               "  sevuldet scan FILE.c --model MODEL [--daemon SOCK]\n"
               "  sevuldet scan DIR --model MODEL [--daemon SOCK]\n"
               "                [--json FILE] [--threads N]\n"
               "  sevuldet gadgets FILE.c [--plain]\n"
               "  sevuldet fuzz FILE.c [--execs N]\n"
               "  sevuldet train --dir DIR [--manifest TSV] --out MODEL\n"
               "                 [--backend B]\n"
               "  sevuldet export-corpus --dir DIR [--pairs N]\n"
               "  sevuldet explain FILE.c --model MODEL [--json FILE]\n"
               "                  [--top N]\n"
               "  sevuldet report [--json FILE] [--pairs N] [--epochs N]\n"
               "                  [--backend B] [--compare B1,B2]\n"
               "  sevuldet serve --model MODEL --socket SOCK [--threads N]\n"
               "                 [--queue-depth N] [--deadline MS]\n"
               "                 [--no-telemetry]\n"
               "                 [--telemetry-interval MS] [--history N]\n"
               "                 [--access-log FILE [--access-log-max-bytes N]\n"
               "                  [--access-log-max-files N]]\n"
               "                 [--slow-trace-ms MS --slow-trace-dir DIR\n"
               "                  [--slow-trace-max N]]\n"
               "  sevuldet shutdown --socket SOCK\n"
               "  sevuldet top --socket SOCK [--json | --prom]\n"
               "               [--interval SECS] [--count N] [--history N]\n"
               "\n"
               "  serve runs with the live telemetry plane on by default: the\n"
               "  daemon answers the `metrics` op (registry snapshot as JSON or\n"
               "  Prometheus text + a resource-sample history ring), assigns\n"
               "  every request a trace_id, and — when --access-log is set —\n"
               "  writes one schema-v1 JSON line per request to a size-rotated\n"
               "  log. --slow-trace-ms M dumps a Chrome trace (trace_id in the\n"
               "  span args) for every request slower than M ms into\n"
               "  --slow-trace-dir, keeping at most --slow-trace-max files.\n"
               "  scan --trace-id ID tags a daemon scan so its access-log line\n"
               "  and any slow-trace dump are joinable to this invocation.\n"
               "\n"
               "  top polls a daemon's `metrics` op: default is a refreshing\n"
               "  terminal view (every --interval secs, --count polls); --json\n"
               "  prints one raw scrape, --prom one Prometheus exposition.\n"
               "\n"
               "  scan --daemon SOCK sends the file to a running serve\n"
               "  daemon (same findings, model stays loaded); when no daemon\n"
               "  is listening the scan silently falls back to in-process.\n"
               "\n"
               "  scan DIR walks the tree (.c/.h), preprocesses each file\n"
               "  (includes, macros, conditionals), parses with per-region\n"
               "  error recovery, and scans files in parallel; findings are\n"
               "  identical to a serial scan, and identical through --daemon.\n"
               "  --json FILE writes the full tree result with per-file drop\n"
               "  accounting.\n"
               "\n"
               "  selftrain/train/scan accept --threads N (0 = all cores) to\n"
               "  parallelize preprocessing and detection; results are\n"
               "  identical to --threads 1. --w2v-threads N additionally\n"
               "  parallelizes word2vec pre-training (Hogwild, result is then\n"
               "  nondeterministic; default 1).\n"
               "\n"
               "  --backend B picks the detector backend for commands that\n"
               "  train from scratch: cnn (TextCNN+CBAM, default) or gat\n"
               "  (edge-aware graph attention over the gadget PDG). Saved\n"
               "  models record their backend, so scan/explain/serve load the\n"
               "  right one automatically. report --compare B1,B2 trains each\n"
               "  listed backend on the same corpus and fold and prints a\n"
               "  side-by-side table (--json writes every run's full report).\n"
               "\n"
               "  selftrain/train accept --corpus-cache DIR: memoize per-file\n"
               "  preprocessing (Steps I-III) in a content-addressed cache, so\n"
               "  repeat runs only re-slice changed files. Results are\n"
               "  identical with or without the cache.\n"
               "\n"
               "  every command accepts --metrics-out FILE.json (counters +\n"
               "  latency histograms, see util/metrics.hpp for the schema) and\n"
               "  --trace-out FILE.json (Chrome trace_event phase spans; open\n"
               "  in chrome://tracing or Perfetto). Instrumentation is off\n"
               "  unless one of these flags is given.\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

const char* arg_value(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Shared --backend handling for every command that builds or trains a
/// detector. Loading a saved model overrides this with the backend
/// recorded in the file (v1/v2 model files are always the CNN), so the
/// flag matters for the commands that train from scratch.
bool apply_backend_flag(int argc, char** argv, std::string* out) {
  if (const char* text = arg_value(argc, argv, "--backend")) {
    if (!models::valid_backend(text)) {
      std::fprintf(stderr, "bad --backend '%s' (expected %s)\n", text,
                   util::join(models::detector_backends(), "|").c_str());
      return false;
    }
    *out = text;
  }
  return true;
}

/// Shared --threads/--w2v-threads/--corpus-cache handling for the
/// training/scan commands.
void apply_thread_flags(int argc, char** argv, core::PipelineConfig& config) {
  if (const char* threads = arg_value(argc, argv, "--threads")) {
    config.corpus.threads = std::atoi(threads);
  }
  if (const char* w2v = arg_value(argc, argv, "--w2v-threads")) {
    config.word2vec.threads = std::atoi(w2v);
  }
  if (const char* cache = arg_value(argc, argv, "--corpus-cache")) {
    config.corpus.cache_dir = cache;
  }
}

int cmd_selftrain(int argc, char** argv) {
  const char* out = arg_value(argc, argv, "--out");
  if (out == nullptr) return usage();
  dataset::SardConfig corpus_config;
  if (const char* pairs = arg_value(argc, argv, "--pairs")) {
    corpus_config.pairs_per_category = std::atoi(pairs);
  }
  core::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  if (const char* epochs = arg_value(argc, argv, "--epochs")) {
    config.train.epochs = std::atoi(epochs);
  } else {
    config.train.epochs = 6;
  }
  config.train.lr = 0.002f;
  config.train.verbose = true;
  if (!apply_backend_flag(argc, argv, &config.backend)) return usage();
  apply_thread_flags(argc, argv, config);

  core::SeVulDet detector(config);
  std::printf("training %s backend on %d pairs/category...\n",
              config.backend.c_str(), corpus_config.pairs_per_category);
  auto result = detector.train(dataset::generate_sard_like(corpus_config));
  std::printf("trained on %zu gadgets in %.1fs (final loss %.4f)\n",
              result.samples, result.seconds, result.epoch_losses.back());
  detector.save(out);
  std::printf("model saved to %s\n", out);
  return 0;
}

int print_findings(const char* path, const std::vector<core::Finding>& findings) {
  if (findings.empty()) {
    std::printf("%s: no findings\n", path);
    return 0;
  }
  for (const auto& finding : findings) {
    std::printf("%s:%d: [%s] suspicious %s '%s' (p=%.3f)\n", path, finding.line,
                slicer::category_name(finding.category),
                finding.category == slicer::TokenCategory::FunctionCall
                    ? "call to"
                    : "use of",
                finding.token.c_str(), finding.probability);
    std::printf("  attention:");
    for (const auto& [token, weight] : finding.top_tokens) {
      std::printf(" %s(%.0f%%)", token.c_str(), weight * 100.0f);
    }
    std::printf("\n");
  }
  return 1;  // findings found => nonzero, CI-friendly
}

/// Directory-scan output: per-file findings in sorted-path order (the
/// single-file format, path-prefixed), then a one-line summary with the
/// frontend drop accounting. Deterministic for any thread count.
int print_tree_scan(const core::TreeScanResult& tree) {
  for (const auto& file : tree.files) {
    if (!file.ok) {
      std::printf("%s: unreadable (%s)\n", file.path.c_str(),
                  file.error.c_str());
      continue;
    }
    if (file.findings.empty()) continue;
    print_findings(file.path.c_str(), file.findings);
  }
  const core::TreeScanStats& s = tree.stats;
  std::printf(
      "scanned %d file(s), %d finding(s) (%d from recovered regions); "
      "%d file(s) recovered, %d unreadable; parse drop %.2f%%, "
      "preprocess drop %.2f%%\n",
      s.files, s.findings, s.fallback_findings, s.files_recovered,
      s.files_failed, s.parse_drop_rate * 100.0,
      s.preprocess_drop_rate * 100.0);
  return s.findings > 0 ? 1 : 0;
}

/// `sevuldet scan DIR`: parallel per-file scan of a source tree through
/// the real-world frontend (mmap + preprocess + error-resilient parse).
/// With --daemon the tree request is served by a running daemon — same
/// scan_tree(), so findings and drop counters are identical.
int cmd_scan_tree(int argc, char** argv) {
  const std::string root = argv[0];
  const char* json_path = arg_value(argc, argv, "--json");

  auto finish = [&](const core::TreeScanResult& tree) {
    if (json_path != nullptr) {
      std::ofstream out(json_path);
      if (!out) {
        throw std::runtime_error(std::string("cannot write ") + json_path);
      }
      out << serve::tree_scan_to_json(tree);
      std::printf("tree scan written to %s\n", json_path);
    }
    return print_tree_scan(tree);
  };

  if (const char* sock = arg_value(argc, argv, "--daemon")) {
    auto client = serve::Client::connect(sock);
    if (client.has_value()) {
      return finish(client->scan_tree(root));
    }
    std::fprintf(stderr, "no daemon at %s; scanning in-process\n", sock);
  }

  const char* model_path = arg_value(argc, argv, "--model");
  if (model_path == nullptr) return usage();
  core::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  if (!apply_backend_flag(argc, argv, &config.backend)) return usage();
  apply_thread_flags(argc, argv, config);
  core::SeVulDet detector(config);
  detector.load(model_path);

  return finish(core::scan_tree(detector, root));
}

int cmd_scan(int argc, char** argv) {
  if (argc < 1) return usage();
  if (std::filesystem::is_directory(argv[0])) return cmd_scan_tree(argc, argv);
  const std::string source = read_file(argv[0]);

  // Daemon mode: ship the file to a running `sevuldet serve` (the model
  // stays loaded there — no per-scan load cost). Falls back to the
  // in-process path below when nobody is listening on the socket.
  if (const char* sock = arg_value(argc, argv, "--daemon")) {
    auto client = serve::Client::connect(sock);
    if (client.has_value()) {
      const char* trace_id = arg_value(argc, argv, "--trace-id");
      return print_findings(
          argv[0], client->scan(source, 10, false, -1.0, 60000,
                                trace_id != nullptr ? trace_id : ""));
    }
    std::fprintf(stderr, "no daemon at %s; scanning in-process\n", sock);
  }

  const char* model_path = arg_value(argc, argv, "--model");
  if (model_path == nullptr) return usage();
  core::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  if (!apply_backend_flag(argc, argv, &config.backend)) return usage();
  apply_thread_flags(argc, argv, config);
  core::SeVulDet detector(config);
  detector.load(model_path);

  return print_findings(argv[0], detector.detect(source));
}

int cmd_serve(int argc, char** argv) {
  const char* model_path = arg_value(argc, argv, "--model");
  const char* socket_path = arg_value(argc, argv, "--socket");
  if (model_path == nullptr || socket_path == nullptr) return usage();

  core::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  if (!apply_backend_flag(argc, argv, &config.backend)) return usage();
  apply_thread_flags(argc, argv, config);
  core::SeVulDet detector(config);
  detector.load(model_path);

  serve::ServeOptions options;
  options.socket_path = socket_path;
  if (const char* threads = arg_value(argc, argv, "--threads")) {
    options.threads = std::atoi(threads);
    if (options.threads <= 0) {  // 0 = all cores, same as the other commands
      options.threads =
          std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    }
  }
  if (const char* depth = arg_value(argc, argv, "--queue-depth")) {
    options.queue_depth = std::atoi(depth);
  }
  if (const char* deadline = arg_value(argc, argv, "--deadline")) {
    options.default_deadline_ms = std::atof(deadline);
  }

  // The live telemetry plane defaults ON for the CLI daemon (embedded
  // Server instances in tests/benches keep it off unless asked).
  options.telemetry = !has_flag(argc, argv, "--no-telemetry");
  if (const char* interval = arg_value(argc, argv, "--telemetry-interval")) {
    options.telemetry_interval_ms = std::atof(interval);
  }
  if (const char* history = arg_value(argc, argv, "--history")) {
    options.history_capacity = std::atoi(history);
  }
  if (const char* log_path = arg_value(argc, argv, "--access-log")) {
    options.access_log_path = log_path;
    if (const char* bytes = arg_value(argc, argv, "--access-log-max-bytes")) {
      options.access_log_max_bytes =
          static_cast<std::size_t>(std::atoll(bytes));
    }
    if (const char* files = arg_value(argc, argv, "--access-log-max-files")) {
      options.access_log_max_files = std::atoi(files);
    }
  }
  if (const char* slow = arg_value(argc, argv, "--slow-trace-ms")) {
    options.slow_trace_ms = std::atof(slow);
    const char* dir = arg_value(argc, argv, "--slow-trace-dir");
    if (dir == nullptr) {
      std::fprintf(stderr, "--slow-trace-ms requires --slow-trace-dir\n");
      return usage();
    }
    options.slow_trace_dir = dir;
    if (const char* max_files = arg_value(argc, argv, "--slow-trace-max")) {
      options.slow_trace_max_files = std::atoi(max_files);
    }
  }

  serve::Server server(detector, options);
  std::printf(
      "serving on %s (%d worker(s), queue depth %d, %s kernels, "
      "telemetry %s)\n",
      socket_path, options.threads, options.queue_depth,
      nn::kernels::kernel_isa(), options.telemetry ? "on" : "off");
  std::fflush(stdout);
  server.run();
  std::printf("shutdown complete: %s\n", server.status_json().c_str());
  return 0;
}

/// Ask a running daemon to drain and exit (the clean stop CI uses, so
/// the daemon's own --metrics-out/--trace-out snapshots get written).
int cmd_shutdown(int argc, char** argv) {
  const char* socket_path = arg_value(argc, argv, "--socket");
  if (socket_path == nullptr) return usage();
  auto client = serve::Client::connect(socket_path);
  if (!client.has_value()) {
    std::fprintf(stderr, "no daemon at %s\n", socket_path);
    return 1;
  }
  client->shutdown();
  std::printf("daemon at %s is shutting down\n", socket_path);
  return 0;
}

/// One polled view of a daemon's metrics payload, decoded from the
/// `metrics` op JSON for the terminal renderer.
struct TopSample {
  double polled_at = 0.0;  // client steady-clock seconds
  long long requests = 0;
  long long errors = 0;
  std::map<std::string, long long> errors_by_code;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double queue_depth = 0.0, rss_bytes = 0.0;
  double cpu_user = 0.0, cpu_sys = 0.0, open_fds = 0.0;
  /// QPS derived from the daemon's own history ring (last two samples),
  /// so even the first poll can show a rate. <0 = unknown.
  double ring_qps = -1.0;
};

TopSample decode_top_sample(const std::string& payload) {
  using util::mini_json::Parser;
  using util::mini_json::Value;
  TopSample sample;
  sample.polled_at = std::chrono::duration<double>(
                         std::chrono::steady_clock::now().time_since_epoch())
                         .count();
  Value doc = Parser(payload).parse();
  const Value& metrics = doc.at("metrics");
  if (metrics.has("counters")) {
    for (const auto& [name, value] : metrics.at("counters").object) {
      const long long count = static_cast<long long>(value.number);
      if (name == "serve.requests") sample.requests = count;
      if (name.rfind("serve.errors.", 0) == 0) {
        sample.errors_by_code[name.substr(13)] = count;
        sample.errors += count;
      }
    }
  }
  if (metrics.has("gauges")) {
    const Value& gauges = metrics.at("gauges");
    if (gauges.has("serve.queue_depth")) {
      sample.queue_depth = gauges.at("serve.queue_depth").number;
    }
    if (gauges.has("proc.rss_bytes")) {
      sample.rss_bytes = gauges.at("proc.rss_bytes").number;
    }
    if (gauges.has("proc.cpu_user_seconds")) {
      sample.cpu_user = gauges.at("proc.cpu_user_seconds").number;
    }
    if (gauges.has("proc.cpu_sys_seconds")) {
      sample.cpu_sys = gauges.at("proc.cpu_sys_seconds").number;
    }
    if (gauges.has("proc.open_fds")) {
      sample.open_fds = gauges.at("proc.open_fds").number;
    }
  }
  if (metrics.has("histograms") &&
      metrics.at("histograms").has("serve.request_ms")) {
    const Value& hist = metrics.at("histograms").at("serve.request_ms");
    sample.p50_ms = hist.at("p50").number;
    sample.p95_ms = hist.at("p95").number;
    sample.p99_ms = hist.at("p99").number;
  }
  if (doc.has("history") && doc.at("history").array.size() >= 2) {
    const auto& history = doc.at("history").array;
    const Value& a = history[history.size() - 2];
    const Value& b = history[history.size() - 1];
    const double dt = b.at("unix_seconds").number - a.at("unix_seconds").number;
    if (dt > 0.0) {
      sample.ring_qps =
          (b.at("requests").number - a.at("requests").number) / dt;
    }
  }
  return sample;
}

void render_top(const char* socket_path, const TopSample& now,
                const TopSample* previous, double interval_s, bool clear) {
  if (clear) std::printf("\x1b[2J\x1b[H");  // ANSI clear + home
  double qps = now.ring_qps;
  if (previous != nullptr && now.polled_at > previous->polled_at) {
    qps = static_cast<double>(now.requests - previous->requests) /
          (now.polled_at - previous->polled_at);
  }
  std::printf("sevuldet top — %s (every %.1fs)\n\n", socket_path, interval_s);
  if (qps >= 0.0) {
    std::printf("  qps        %10.1f\n", qps);
  } else {
    std::printf("  qps        %10s\n", "-");
  }
  std::printf("  requests   %10lld   errors %lld\n", now.requests, now.errors);
  std::printf("  latency ms  p50 %.2f   p95 %.2f   p99 %.2f\n", now.p50_ms,
              now.p95_ms, now.p99_ms);
  std::printf("  queue      %10.0f\n", now.queue_depth);
  std::printf("  rss        %10.1f MiB\n", now.rss_bytes / (1024.0 * 1024.0));
  std::printf("  cpu        user %.1fs   sys %.1fs   fds %.0f\n", now.cpu_user,
              now.cpu_sys, now.open_fds);
  if (!now.errors_by_code.empty()) {
    std::printf("  errors by code:");
    for (const auto& [code, count] : now.errors_by_code) {
      if (count > 0) std::printf(" %s=%lld", code.c_str(), count);
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

/// `sevuldet top`: live view of a running daemon via the metrics op.
int cmd_top(int argc, char** argv) {
  const char* socket_path = arg_value(argc, argv, "--socket");
  if (socket_path == nullptr) return usage();
  const bool json_mode = has_flag(argc, argv, "--json");
  const bool prom_mode = has_flag(argc, argv, "--prom");
  double interval_s = 2.0;
  if (const char* interval = arg_value(argc, argv, "--interval")) {
    interval_s = std::max(0.1, std::atof(interval));
  }
  int history = 120;
  if (const char* h = arg_value(argc, argv, "--history")) {
    history = std::atoi(h);
  }
  int count = json_mode || prom_mode ? 1 : 0;  // 0 = until interrupted
  if (const char* c = arg_value(argc, argv, "--count")) count = std::atoi(c);

  auto client = serve::Client::connect(socket_path);
  if (!client.has_value()) {
    std::fprintf(stderr, "no daemon at %s\n", socket_path);
    return 1;
  }
  if (prom_mode) {
    for (int i = 0; i != count; ++i) {
      const std::string payload = client->metrics("prometheus", history);
      util::mini_json::Value doc = util::mini_json::Parser(payload).parse();
      std::printf("%s", doc.at("exposition").str.c_str());
      std::fflush(stdout);
      if (i + 1 != count) {
        std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
      }
    }
    return 0;
  }
  if (json_mode) {
    for (int i = 0; i != count; ++i) {
      std::printf("%s\n", client->metrics("json", history).c_str());
      std::fflush(stdout);
      if (i + 1 != count) {
        std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
      }
    }
    return 0;
  }
  TopSample previous;
  bool have_previous = false;
  for (int i = 0; i != count; ++i) {
    const TopSample sample =
        decode_top_sample(client->metrics("json", history));
    render_top(socket_path, sample, have_previous ? &previous : nullptr,
               interval_s, /*clear=*/i > 0);
    previous = sample;
    have_previous = true;
    if (i + 1 != count) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
    }
  }
  return 0;
}

int cmd_gadgets(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string source = read_file(argv[0]);
  graph::ProgramGraph program = graph::build_program_graph(source);
  slicer::GadgetOptions options;
  options.path_sensitive = !has_flag(argc, argv, "--plain");
  auto gadgets = slicer::generate_gadgets(program, options);
  std::printf("%zu gadget(s), %s\n\n", gadgets.size(),
              options.path_sensitive ? "path-sensitive" : "plain");
  for (const auto& gadget : gadgets) {
    std::printf("--- %s '%s' at %s:%d ---\n",
                slicer::category_name(gadget.token.category),
                gadget.token.text.c_str(), gadget.token.function.c_str(),
                gadget.token.line);
    for (const auto& line : gadget.lines) {
      std::printf("  %3d %s %s\n", line.line, line.is_boundary ? "+" : " ",
                  line.text.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string source = read_file(argv[0]);
  auto unit = frontend::parse(source);
  baselines::FuzzConfig config;
  if (const char* execs = arg_value(argc, argv, "--execs")) {
    config.executions = std::atoi(execs);
  }
  auto report = baselines::fuzz_program(unit, config);
  std::printf("executions: %d  coverage edges: %zu  queue: %zu\n",
              report.executions_used, report.coverage_edges, report.queue_size);
  if (!report.found) {
    std::printf("no crash or hang found\n");
    return 0;
  }
  std::printf("FOUND %s at line %d; trigger bytes:",
              interp::outcome_name(report.outcome), report.fault_line);
  for (std::uint8_t b : report.trigger) std::printf(" %02x", b);
  std::printf("\n");
  return 1;
}

int cmd_train(int argc, char** argv) {
  const char* dir = arg_value(argc, argv, "--dir");
  const char* out = arg_value(argc, argv, "--out");
  if (dir == nullptr || out == nullptr) return usage();
  const char* manifest = arg_value(argc, argv, "--manifest");

  auto cases = dataset::load_labeled_directory(dir, manifest ? manifest : "");
  long vulnerable = 0;
  for (const auto& tc : cases) vulnerable += tc.vulnerable ? 1 : 0;
  std::printf("loaded %zu programs (%ld flagged) from %s\n", cases.size(),
              vulnerable, dir);

  core::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  config.train.epochs = 6;
  config.train.lr = 0.002f;
  config.train.verbose = true;
  if (!apply_backend_flag(argc, argv, &config.backend)) return usage();
  apply_thread_flags(argc, argv, config);
  core::SeVulDet detector(config);
  auto result = detector.train(cases);
  std::printf("trained on %zu gadgets in %.1fs\n", result.samples, result.seconds);
  detector.save(out);
  std::printf("model saved to %s\n", out);
  return 0;
}

int cmd_export_corpus(int argc, char** argv) {
  const char* dir = arg_value(argc, argv, "--dir");
  if (dir == nullptr) return usage();
  dataset::SardConfig config;
  if (const char* pairs = arg_value(argc, argv, "--pairs")) {
    config.pairs_per_category = std::atoi(pairs);
  }
  auto cases = dataset::generate_sard_like(config);
  dataset::export_corpus(cases, dir);
  std::printf("wrote %zu programs + manifest.tsv to %s\n", cases.size(), dir);
  return 0;
}

int cmd_explain(int argc, char** argv) {
  if (argc < 1) return usage();
  const char* model_path = arg_value(argc, argv, "--model");
  if (model_path == nullptr) return usage();
  const std::string source = read_file(argv[0]);

  core::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  if (!apply_backend_flag(argc, argv, &config.backend)) return usage();
  apply_thread_flags(argc, argv, config);
  core::SeVulDet detector(config);
  detector.load(model_path);

  core::DetectOptions options;
  options.explain = true;
  if (const char* top = arg_value(argc, argv, "--top")) {
    options.top_k = std::atoi(top);
  }
  auto findings = detector.detect(source, options);

  if (const char* json_path = arg_value(argc, argv, "--json")) {
    std::ofstream out(json_path);
    if (!out) throw std::runtime_error(std::string("cannot write ") + json_path);
    out << core::explanations_to_json(argv[0], findings);
    std::printf("explanations written to %s\n", json_path);
  }

  if (findings.empty()) {
    std::printf("%s: no findings\n", argv[0]);
    return 0;
  }
  for (const auto& finding : findings) {
    std::printf("%s:%d: [%s] suspicious '%s' (p=%.3f)\n", argv[0], finding.line,
                slicer::category_name(finding.category), finding.token.c_str(),
                finding.probability);
    util::Table table({"line", "original", "token", "function", "weight"});
    for (const auto& a : finding.attributions) {
      table.add_row({std::to_string(a.line), a.original, a.token, a.function,
                     util::fmt(a.weight, 4)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }
  return 1;  // findings found => nonzero, CI-friendly (same as scan)
}

int cmd_report(int argc, char** argv) {
  core::ReportConfig config;
  // Defaults sized for the example corpus the CI quality gate trains on;
  // keep in sync with bench/QUALITY_baseline.json. Dedup is on so the
  // drop accounting reflects what a real evaluation discards.
  config.corpus.pairs_per_category = 60;
  config.pipeline.corpus.deduplicate = true;
  config.pipeline.model.embed_dim = 24;
  config.pipeline.model.conv_channels = 16;
  config.pipeline.train.epochs = 12;
  config.pipeline.train.lr = 0.002f;
  if (const char* pairs = arg_value(argc, argv, "--pairs")) {
    config.corpus.pairs_per_category = std::atoi(pairs);
  }
  if (const char* epochs = arg_value(argc, argv, "--epochs")) {
    config.pipeline.train.epochs = std::atoi(epochs);
  }
  if (!apply_backend_flag(argc, argv, &config.pipeline.backend)) return usage();
  apply_thread_flags(argc, argv, config.pipeline);

  // --compare cnn,gat: one full report per backend, same corpus + fold.
  if (const char* compare = arg_value(argc, argv, "--compare")) {
    std::vector<std::string> backends = util::split(compare, ',');
    if (backends.size() < 2) {
      std::fprintf(stderr, "--compare expects 2+ comma-separated backends\n");
      return usage();
    }
    for (const std::string& backend : backends) {
      if (!models::valid_backend(backend)) {
        std::fprintf(stderr, "bad --compare backend '%s' (expected %s)\n",
                     backend.c_str(),
                     util::join(models::detector_backends(), "|").c_str());
        return usage();
      }
    }
    auto comparison = core::run_comparison_report(config, backends);
    if (const char* json_path = arg_value(argc, argv, "--json")) {
      std::ofstream out(json_path);
      if (!out) {
        throw std::runtime_error(std::string("cannot write ") + json_path);
      }
      out << core::comparison_to_json(comparison);
      std::printf("comparison written to %s\n", json_path);
    }
    std::printf("%s", core::comparison_summary(comparison).c_str());
    return 0;
  }

  auto report = core::run_quality_report(config);
  if (const char* json_path = arg_value(argc, argv, "--json")) {
    std::ofstream out(json_path);
    if (!out) throw std::runtime_error(std::string("cannot write ") + json_path);
    out << core::report_to_json(report);
    std::printf("report written to %s\n", json_path);
  }
  std::printf("%s", core::report_summary(report).c_str());
  return 0;
}

/// Enables the observability subsystems when --metrics-out/--trace-out
/// are present and flushes the output files at end of scope — including
/// the error-return paths, so a failing run still leaves its partial
/// metrics behind for diagnosis.
class ObservabilityWriter {
 public:
  ObservabilityWriter(int argc, char** argv) {
    if (const char* path = arg_value(argc, argv, "--metrics-out")) {
      metrics_path_ = path;
      util::metrics::set_enabled(true);
      util::metrics::label_set("nn.kernel_isa", nn::kernels::kernel_isa());
    }
    if (const char* path = arg_value(argc, argv, "--trace-out")) {
      trace_path_ = path;
      util::trace::set_enabled(true);
    }
  }
  ~ObservabilityWriter() {
    try {
      if (!metrics_path_.empty()) util::metrics::write_json(metrics_path_);
      if (!trace_path_.empty()) util::trace::write_json(trace_path_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error writing observability output: %s\n", e.what());
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  ObservabilityWriter observability(argc - 2, argv + 2);
  try {
    if (command == "selftrain") return cmd_selftrain(argc - 2, argv + 2);
    if (command == "scan") return cmd_scan(argc - 2, argv + 2);
    if (command == "gadgets") return cmd_gadgets(argc - 2, argv + 2);
    if (command == "fuzz") return cmd_fuzz(argc - 2, argv + 2);
    if (command == "train") return cmd_train(argc - 2, argv + 2);
    if (command == "export-corpus") return cmd_export_corpus(argc - 2, argv + 2);
    if (command == "explain") return cmd_explain(argc - 2, argv + 2);
    if (command == "report") return cmd_report(argc - 2, argv + 2);
    if (command == "serve") return cmd_serve(argc - 2, argv + 2);
    if (command == "shutdown") return cmd_shutdown(argc - 2, argv + 2);
    if (command == "top") return cmd_top(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  return usage();
}
