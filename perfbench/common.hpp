// Shared pieces of the benchmark runner: command-line arguments, the
// result document, clocks and percentiles, /proc sampling, the CLI
// model configuration, seeded input generation and the line-level F1
// used by every workload. See README.md for what each metric means.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/dataset/metrics.hpp"
#include "sevuldet/dataset/testcase.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   // scratch space inside the checkout
  std::string model;      // trained CLI-config model file
  std::string cli;        // the `sevuldet` binary (daemon_oneshot)
  std::string seed_tree;  // examples/realworld_seed (tree_scan)
  int threads = 0;        // tree_scan scan threads (0 = nproc)
  int serve_threads = 0;  // daemon_oneshot `serve --threads` (0 = nproc/2)
};

/// The runner's result document: metrics by name plus the correctness
/// tally. Every mismatch is recorded as a note and makes `correct` false.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(long long n = 1) { attempted_ += n; }
  /// One failed operation (transport error, typed rejection, or output
  /// mismatch); `note` says which.
  void fail(const std::string& note);
  void info(const std::string& name, const std::string& value);
  bool correct() const { return failed_ == 0 && !broken_; }
  /// A check that is not an operation (coverage, faithfulness, F1
  /// floor) failed.
  void broken(const std::string& note);
  std::string to_json() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> notes_;
  long long attempted_ = 0;
  long long failed_ = 0;
  bool broken_ = false;
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for no samples.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Footprint of a process from /proc/<pid>/{status,maps}.
struct ProcSample {
  double rss_mb = 0.0;
  double vmsize_mb = 0.0;
  double hwm_mb = 0.0;  // peak RSS
  int threads = 0;
  long maps = 0;
};
ProcSample sample_proc(pid_t pid);

/// User + system CPU time a process has used so far, in ms (all its
/// threads; /proc clock-tick resolution).
double cpu_ms(pid_t pid);

int nproc();

/// The model configuration every CLI command uses (embed 24, 16 conv
/// channels); a model file only loads into the config it was saved from.
sevuldet::core::PipelineConfig cli_config();

/// Load the benchmark model with `threads` intra-scan threads.
std::unique_ptr<sevuldet::core::SeVulDet> load_detector(
    const std::string& model_path, int threads);

/// GEMM floating-point operations `fn` performs, from the program's own
/// nn.gemm_flops counter (the metrics registry is on only around `fn`).
double gemm_flops(const std::function<void()>& fn);

/// How fast this host runs the benchmark's programs right now, relative
/// to the reference host. A fixed multiply-add kernel (independent
/// accumulators, data in L1, so it competes for the cores' execution
/// ports the way inference does) is timed on `threads` threads at once,
/// each thread's best of three runs, averaged over the threads and
/// divided by the reference host's rate. The programs' own speed moved
/// about half as much as the kernel's between runs on the reference
/// host (log-log slope 0.4-0.6 on tree_scan and train), so the factor
/// is the square root of that ratio. Work rates are divided by it and
/// per-item costs multiplied by it. Costs ~30 ms.
double host_speed(int threads);

/// Derive an independent generator seed for one input family.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Seeded SARD-like programs (4 categories x 2 x pairs).
std::vector<sevuldet::dataset::TestCase> sard_programs(std::uint64_t seed,
                                                       int pairs);

/// Seeded Xen-like device programs, `rounds` generator seeds' worth
/// (each round is ~110 programs plus the three planted bugs).
/// `preamble_chain` sizes the register-decode chain of the receive-loop
/// programs, which dominates their slicing cost.
std::vector<sevuldet::dataset::TestCase> xen_programs(std::uint64_t seed,
                                                      int rounds,
                                                      int preamble_chain = 40);

/// Line-level detection quality: each distinct flagged line of a
/// program is a true or false positive by whether it is a labelled flaw
/// line; each unflagged flaw line is a false negative.
void record_lines(sevuldet::dataset::Confusion& quality,
                  const std::set<int>& flaw_lines,
                  const std::vector<sevuldet::core::Finding>& findings);

/// Run `argv` (argv[0] a path), wait for it and return its stdout.
/// Throws when it cannot start or exits nonzero.
std::string run_capture(const std::vector<std::string>& argv);

/// Start `argv` in the background, stdout and stderr appended to
/// `log_path`.
pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path);

/// Wait up to `timeout_s` for `pid`; SIGKILL it after that. Returns the
/// exit code (128 + signal when killed).
int wait_child(pid_t pid, double timeout_s);

/// 64-bit FNV-1a of `bytes` as 16 hex digits: lets a child process
/// report a result document for comparison without printing it.
std::string fnv1a_hex(const std::string& bytes);

/// Write `bytes` to `path`, creating parent directories.
void write_file(const std::string& path, const std::string& bytes);
std::string read_file(const std::string& path);

}  // namespace perfbench
