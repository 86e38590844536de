// tree_scan: in-process core::scan_tree over a seeded source tree on
// disk — the offline CI / audit use (`sevuldet scan DIR`).
//
// Untraced run:
//   setup_s           median SeVulDet::load in fresh processes
//   throughput_per_s  files/s of warm scan_tree passes
//   cpu_ms_per_item   process CPU time per file of those passes
//   f1                line-level F1 against the generators' flaw lines
//   rss_mb            peak RSS of a process loading and scanning the tree
// The timed passes run in fresh processes: medians over each process's
// passes, then over the processes. Both timings are scaled to the
// reference host's speed (host_speed after every pass).
// Traced run: the same tree through the traced pipeline on the same
// thread pool, checked file by file against scan_tree.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unistd.h>

#include "sevuldet/core/scan.hpp"
#include "sevuldet/serve/protocol.hpp"
#include "sevuldet/util/mmap_file.hpp"
#include "sevuldet/util/thread_pool.hpp"
#include "traced_pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace core = sevuldet::core;

namespace {

constexpr int kSardPairs = 125;  // 4 categories x 2 x 125 = 1000 programs
constexpr int kXenRounds = 2;    // ~230 device programs
constexpr int kSetupProbes = 25;
constexpr std::size_t kMinPasses = 3;
constexpr int kScanProcesses = 5;

struct Tree {
  std::string root;
  std::map<std::string, std::set<int>> flaw_lines;  // labelled files only
};

std::string file_name(std::size_t index, const std::string& id) {
  std::string safe;
  for (char c : id) safe += (std::isalnum(static_cast<unsigned char>(c)) || c == '-') ? c : '_';
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "%04zu-", index);
  return prefix + safe + ".c";
}

/// SARD-like programs (with long variants), Xen-like device programs and
/// the pinned realworld seed files; every file distinct.
Tree make_tree(const Args& args) {
  Tree tree;
  tree.root = args.work_dir + "/tree";
  fs::remove_all(tree.root);
  std::set<std::string> seen;
  auto add = [&](const std::string& dir,
                 const std::vector<sevuldet::dataset::TestCase>& cases) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (!seen.insert(cases[i].source).second) continue;
      const std::string rel = dir + "/" + file_name(i, cases[i].id);
      write_file(tree.root + "/" + rel, cases[i].source);
      tree.flaw_lines[rel] = cases[i].vulnerable_lines;
    }
  };
  add("sard", sard_programs(mix_seed(args.seed, 1), kSardPairs));
  add("xen", xen_programs(mix_seed(args.seed, 2), kXenRounds));
  if (!fs::is_directory(args.seed_tree)) {
    throw std::runtime_error("missing realworld seed tree " + args.seed_tree);
  }
  fs::copy(args.seed_tree, tree.root + "/seed", fs::copy_options::recursive);
  return tree;
}

/// Half the cores by default: the pool's contiguous file ranges make a
/// pass as slow as its slowest thread, and the other half leaves room
/// for the runner and whatever else shares the machine.
int scan_threads(const Args& args) {
  return args.threads > 0 ? args.threads : std::max(1, nproc() / 2);
}

std::string file_json(const core::FileScanResult& file) {
  core::TreeScanResult one;
  one.files.push_back(file);
  return sevuldet::serve::tree_scan_to_json(one);
}

core::ScanOptions file_options(const std::string& root, const std::string& rel) {
  core::ScanOptions options;
  options.preprocess.include_roots = {root};
  options.preprocess.current_dir = (fs::path(root) / rel).parent_path().string();
  return options;
}

/// setup_s: SeVulDet::load (with its once-per-process GEMM autotune) in
/// fresh processes; median seconds.
double measure_setup(const Args& args) {
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  std::vector<double> samples;
  for (int i = 0; i < kSetupProbes; ++i) {
    samples.push_back(std::stod(run_capture({self, "--probe-load", args.model})));
  }
  return median(samples) / 1000.0;
}

/// The tree-level counts scan_tree aggregates, recomputed from per-file
/// results.
std::string tree_counts(const std::vector<core::FileScanResult>& files) {
  long long findings = 0, fallback = 0, lines = 0, lost = 0, recovered = 0;
  for (const auto& f : files) {
    findings += static_cast<long long>(f.findings.size());
    fallback += f.stats.fallback_findings;
    lines += f.stats.lines_total;
    lost += f.stats.lines_lost;
    recovered += f.stats.parse_clean ? 0 : 1;
  }
  return std::to_string(files.size()) + "/" + std::to_string(findings) + "/" +
         std::to_string(fallback) + "/" + std::to_string(lines) + "/" +
         std::to_string(lost) + "/" + std::to_string(recovered);
}

std::string tree_counts(const core::TreeScanStats& s) {
  return std::to_string(s.files) + "/" + std::to_string(s.findings) + "/" +
         std::to_string(s.fallback_findings) + "/" +
         std::to_string(s.lines_total) + "/" + std::to_string(s.lines_lost) +
         "/" + std::to_string(s.files_recovered);
}

void check_tree(const core::TreeScanResult& tree,
                const std::vector<std::string>& oracle_json,
                const std::string& oracle_counts, Result& result) {
  result.attempt(static_cast<long long>(oracle_json.size()));
  if (tree.files.size() != oracle_json.size()) {
    result.fail("scan_tree file count differs from the serial scan");
    return;
  }
  for (std::size_t i = 0; i < tree.files.size(); ++i) {
    if (file_json(tree.files[i]) != oracle_json[i]) {
      result.fail("scan_tree result differs from serial scan: " +
                  tree.files[i].path);
    }
  }
  if (tree_counts(tree.stats) != oracle_counts) {
    result.broken("scan_tree stats " + tree_counts(tree.stats) +
                  " != serial " + oracle_counts);
  }
}

void untraced(const Args& args, const Tree& tree, Result& result) {
  result.metric("setup_s", measure_setup(args), "s");
  const int threads = scan_threads(args);
  auto detector = load_detector(args.model, threads);

  // The serial oracle: every scan_tree pass must equal it file by file.
  const std::vector<std::string> files =
      core::list_scan_files(tree.root, core::ScanOptions{}.extensions);
  std::vector<core::FileScanResult> serial;
  std::vector<std::string> oracle_json;
  for (const std::string& rel : files) {
    const sevuldet::util::MmapFile file =
        sevuldet::util::MmapFile::open(tree.root + "/" + rel);
    serial.push_back(core::scan_source(*detector, rel, file.view(),
                                       file_options(tree.root, rel)));
    oracle_json.push_back(file_json(serial.back()));
  }
  const std::string oracle_counts = tree_counts(serial);

  // The reference pass: one scan_tree in this process, checked against
  // the serial oracle; every timed pass must print the same document.
  core::ScanOptions options;
  options.threads = threads;
  const core::TreeScanResult first = core::scan_tree(*detector, tree.root, options);
  check_tree(first, oracle_json, oracle_counts, result);
  const std::string digest = fnv1a_hex(sevuldet::serve::tree_scan_to_json(first));

  sevuldet::dataset::Confusion quality;
  for (std::size_t i = 0; i < files.size(); ++i) {
    auto label = tree.flaw_lines.find(files[i]);
    if (label != tree.flaw_lines.end()) record_lines(quality, label->second, serial[i].findings);
  }

  // Timed passes, in kScanProcesses fresh processes one after another,
  // so no allocator or cache state of this process carries over; each
  // reports its median pass and the run reports the median process.
  std::vector<double> files_per_s, cpu_per_file, hwm_mb, raw_files_per_s, speeds;
  long long passes = 0;
  const std::string self = fs::read_symlink("/proc/self/exe").string();
  const std::string share = std::to_string(args.seconds / kScanProcesses);
  for (int i = 0; i < kScanProcesses; ++i) {
    std::istringstream out(run_capture({self, "--probe-scan", tree.root, args.model,
                                        std::to_string(threads), share}));
    double rate = 0.0, cpu = 0.0, hwm = 0.0, raw = 0.0, speed = 0.0;
    long long n = 0;
    std::string got;
    out >> rate >> cpu >> hwm >> n >> got >> raw >> speed;
    files_per_s.push_back(rate);
    cpu_per_file.push_back(cpu);
    hwm_mb.push_back(hwm);
    raw_files_per_s.push_back(raw);
    speeds.push_back(speed);
    passes += n;
    result.attempt(n);
    if (got != digest) result.fail("a timed scan_tree pass differs from the checked pass");
  }
  result.metric("throughput_per_s", median(files_per_s), "1/s");
  result.metric("cpu_ms_per_item", median(cpu_per_file), "ms");
  result.metric("f1", quality.f1(), "ratio");
  result.metric("rss_mb", median(hwm_mb), "MB");
  result.info("files", std::to_string(files.size()));
  result.info("threads", std::to_string(threads));
  result.info("passes", std::to_string(passes));
  result.info("files_per_s_as_measured", std::to_string(median(raw_files_per_s)));
  result.info("host_speed", std::to_string(median(speeds)));
}

void traced(const Args& args, const Tree& tree, Result& result) {
  const int threads = scan_threads(args);
  Clock::time_point t0 = Clock::now();
  auto detector = load_detector(args.model, threads);
  result.metric("nn.load_ms", ms_since(t0), "ms");

  core::ScanOptions options;
  options.threads = threads;
  const std::vector<std::string> files =
      core::list_scan_files(tree.root, options.extensions);
  const double budget_ms = args.seconds * 1000.0 * 0.4;

  // Untraced reference passes: the oracle and the overhead baseline.
  core::TreeScanResult reference = core::scan_tree(*detector, tree.root, options);
  std::vector<double> untraced_fps;
  t0 = Clock::now();
  while (untraced_fps.size() < 3 || ms_since(t0) < budget_ms) {
    const Clock::time_point p0 = Clock::now();
    reference = core::scan_tree(*detector, tree.root, options);
    untraced_fps.push_back(reference.stats.files / (ms_since(p0) / 1000.0));
  }
  std::vector<std::string> oracle_json;
  for (const auto& f : reference.files) oracle_json.push_back(file_json(f));

  // GEMM work of one pass, from the program's own nn.gemm_flops counter.
  const double flops =
      gemm_flops([&] { core::scan_tree(*detector, tree.root, options); });

  // Traced passes on the same pool shape as scan_tree: contiguous file
  // ranges per worker, one model clone each.
  sevuldet::util::ThreadPool pool(threads);
  std::vector<std::unique_ptr<sevuldet::models::Detector>> clones;
  for (int w = 0; w < pool.size(); ++w) clones.push_back(detector->model().clone());
  LayerTrace total;
  std::vector<double> traced_fps;
  double busy_ms = 0.0, wall_ms = 0.0;
  int passes = 0;
  t0 = Clock::now();
  while (passes < 3 || ms_since(t0) < budget_ms) {
    std::vector<LayerTrace> per_worker(static_cast<std::size_t>(pool.size()));
    std::vector<core::FileScanResult> out(files.size());
    const Clock::time_point p0 = Clock::now();
    pool.parallel_chunks(files.size(), [&](int w, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const fs::path abs = fs::path(tree.root) / files[i];
        const sevuldet::util::MmapFile file = sevuldet::util::MmapFile::open(abs.string());
        out[i] = traced_scan(*detector, *clones[static_cast<std::size_t>(w)],
                             files[i], file.view(), options, {tree.root},
                             abs.parent_path().string(),
                             per_worker[static_cast<std::size_t>(w)]);
      }
    });
    const double pass_ms = ms_since(p0);
    traced_fps.push_back(static_cast<double>(files.size()) / (pass_ms / 1000.0));
    wall_ms += pass_ms * pool.size();
    for (const LayerTrace& w : per_worker) {
      busy_ms += w.file_ms;
      total.merge(w);
    }
    if (passes == 0) {
      result.attempt(static_cast<long long>(files.size()));
      for (std::size_t i = 0; i < files.size(); ++i) {
        if (file_json(out[i]) != oracle_json[i]) {
          result.fail("traced pipeline differs from scan_tree: " + files[i]);
        }
      }
    }
    ++passes;
  }

  emit_layers(result, total, passes, flops);
  result.metric("core.pool_idle_share", wall_ms > 0.0 ? 1.0 - busy_ms / wall_ms : 0.0,
                "ratio");
  result.metric("trace.overhead_share",
                1.0 - median(traced_fps) / median(untraced_fps), "ratio");
  if (total.coverage() < 0.95) {
    result.broken("child spans cover " + std::to_string(total.coverage()) +
                  " of core.scan_file (< 0.95)");
  }
}

}  // namespace

void run_tree_scan(const Args& args, Result& result) {
  const Tree tree = make_tree(args);
  if (args.trace) {
    traced(args, tree, result);
  } else {
    untraced(args, tree, result);
  }
}

int probe_load(const std::string& model_path) {
  const Clock::time_point t0 = Clock::now();
  auto detector = load_detector(model_path, 1);
  std::printf("%.6f\n", ms_since(t0));
  return 0;
}

int probe_scan(const std::string& root, const std::string& model_path,
               int threads, double seconds) {
  auto detector = load_detector(model_path, threads);
  core::ScanOptions options;
  options.threads = threads;
  // Warm-up pass, untimed: first touch of the model, the pool and the
  // tree's pages.
  const std::string first =
      sevuldet::serve::tree_scan_to_json(core::scan_tree(*detector, root, options));
  std::string digest = fnv1a_hex(first);
  // Each pass is followed by a host-speed reading on as many threads.
  std::vector<double> files_per_s, cpu_per_file, raw_files_per_s, speeds;
  const Clock::time_point start = Clock::now();
  while (files_per_s.size() < kMinPasses || ms_since(start) < seconds * 1000.0) {
    const double cpu0 = cpu_ms(getpid());
    const Clock::time_point t0 = Clock::now();
    const core::TreeScanResult tree = core::scan_tree(*detector, root, options);
    const double wall_ms = ms_since(t0);
    const double cpu = cpu_ms(getpid()) - cpu0;
    const double files = static_cast<double>(tree.stats.files);
    if (files == 0) throw std::runtime_error("empty tree " + root);
    if (sevuldet::serve::tree_scan_to_json(tree) != first) digest = "differs";
    const double speed = host_speed(threads);
    raw_files_per_s.push_back(files / (wall_ms / 1000.0));
    speeds.push_back(speed);
    files_per_s.push_back(raw_files_per_s.back() / speed);
    cpu_per_file.push_back(cpu / files * speed);
  }
  const ProcSample self = sample_proc(getpid());
  std::printf("%.6f %.6f %.6f %zu %s %.6f %.6f\n", median(files_per_s),
              median(cpu_per_file), self.hwm_mb, files_per_s.size(), digest.c_str(),
              median(raw_files_per_s), median(speeds));
  return 0;
}

}  // namespace perfbench
