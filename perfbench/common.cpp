#include "common.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sevuldet/dataset/realworld.hpp"
#include "sevuldet/dataset/sard_generator.hpp"
#include "sevuldet/util/json.hpp"
#include "sevuldet/util/metrics.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

std::string quote(std::string_view text) {
  std::string out;
  sevuldet::util::json::append_string(out, text);
  return out;
}

}  // namespace

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  metrics_[name] = {value, unit};
}

void Result::fail(const std::string& note) {
  ++failed_;
  if (notes_.size() < 20) notes_.push_back(note);
}

void Result::broken(const std::string& note) {
  broken_ = true;
  if (notes_.size() < 20) notes_.push_back(note);
}

void Result::info(const std::string& name, const std::string& value) {
  info_[name] = value;
}

std::string Result::to_json() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out << (first ? "" : ",") << quote(name)
        << ":{\"value\":" << value
        << ",\"unit\":" << quote(m.unit) << "}";
    first = false;
  }
  out << "},\"info\":{";
  first = true;
  for (const auto& [name, value] : info_) {
    out << (first ? "" : ",") << quote(name) << ":"
        << quote(value);
    first = false;
  }
  out << "},\"notes\":[";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i ? "," : "") << quote(notes_[i]);
  }
  out << "]}";
  return out.str();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

ProcSample sample_proc(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  std::ifstream status(base + "/status");
  std::string line;
  while (std::getline(status, line)) {
    std::istringstream fields(line);
    std::string key;
    double value = 0.0;
    fields >> key >> value;
    if (key == "VmRSS:") s.rss_mb = value / 1024.0;
    if (key == "VmSize:") s.vmsize_mb = value / 1024.0;
    if (key == "VmHWM:") s.hwm_mb = value / 1024.0;
    if (key == "Threads:") s.threads = static_cast<int>(value);
  }
  std::ifstream maps(base + "/maps");
  while (std::getline(maps, line)) ++s.maps;
  return s;
}

double cpu_ms(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(stat, line);
  const std::size_t paren = line.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(paren + 2));
  std::string skip;
  for (int i = 0; i < 11; ++i) fields >> skip;  // state .. cmajflt
  long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

namespace {

/// Kernel runs per second and thread on the reference host: the 4-vCPU
/// KVM Xeon (Sapphire Rapids) VM the benchmark was defined on, portable
/// build, four threads at once, median over its quiet minutes.
constexpr double kReferenceKernelsPerS = 140.0;

double kernel_per_s() {
  static thread_local std::vector<float> a(8192), b(8192);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 1.0f / static_cast<float>(i + 1);
    b[i] = 0.5f + static_cast<float>(i % 7);
  }
  const Clock::time_point t0 = Clock::now();
  float acc[16] = {};
  for (int r = 0; r < 6000; ++r) {
    for (std::size_t i = 0; i < a.size(); i += 16) {
      for (std::size_t k = 0; k < 16; ++k) acc[k] += a[i + k] * b[i + k];
    }
  }
  const double ms = ms_since(t0);
  volatile float sink = 0.0f;
  for (float v : acc) sink = sink + v;
  return 1000.0 / ms;
}

}  // namespace

double host_speed(int threads) {
  std::vector<double> best(static_cast<std::size_t>(std::max(1, threads)), 0.0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < best.size(); ++t) {
    workers.emplace_back([&best, t] {
      for (int i = 0; i < 3; ++i) best[t] = std::max(best[t], kernel_per_s());
    });
  }
  for (std::thread& w : workers) w.join();
  double sum = 0.0;
  for (double b : best) sum += b;
  return std::sqrt(sum / static_cast<double>(best.size()) / kReferenceKernelsPerS);
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

int nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

sevuldet::core::PipelineConfig cli_config() {
  sevuldet::core::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  return config;
}

std::unique_ptr<sevuldet::core::SeVulDet> load_detector(
    const std::string& model_path, int threads) {
  sevuldet::core::PipelineConfig config = cli_config();
  config.corpus.threads = threads;
  auto detector = std::make_unique<sevuldet::core::SeVulDet>(config);
  detector->load(model_path);
  return detector;
}

double gemm_flops(const std::function<void()>& fn) {
  namespace metrics = sevuldet::util::metrics;
  metrics::reset();
  metrics::set_enabled(true);
  fn();
  metrics::set_enabled(false);
  const auto counters = metrics::snapshot().counters;
  metrics::reset();
  const auto it = counters.find("nn.gemm_flops");
  return it != counters.end() ? static_cast<double>(it->second) : 0.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt)
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<sevuldet::dataset::TestCase> sard_programs(std::uint64_t seed,
                                                       int pairs) {
  sevuldet::dataset::SardConfig config;
  config.pairs_per_category = pairs;
  config.seed = seed;
  return sevuldet::dataset::generate_sard_like(config);
}

std::vector<sevuldet::dataset::TestCase> xen_programs(std::uint64_t seed,
                                                      int rounds,
                                                      int preamble_chain) {
  std::vector<sevuldet::dataset::TestCase> out;
  for (int r = 0; r < rounds; ++r) {
    sevuldet::dataset::RealWorldConfig config;
    config.seed = mix_seed(seed, static_cast<std::uint64_t>(r));
    config.preamble_chain = preamble_chain;
    sevuldet::dataset::RealWorldCorpus corpus =
        sevuldet::dataset::generate_realworld(config);
    for (auto& tc : corpus.cases) out.push_back(std::move(tc));
    for (auto& bug : corpus.planted) out.push_back(std::move(bug.testcase));
  }
  return out;
}

void record_lines(sevuldet::dataset::Confusion& quality,
                  const std::set<int>& flaw_lines,
                  const std::vector<sevuldet::core::Finding>& findings) {
  std::set<int> flagged;
  for (const auto& f : findings) flagged.insert(f.line);
  for (int line : flagged) quality.record(true, flaw_lines.count(line) != 0);
  for (int line : flaw_lines) {
    if (flagged.count(line) == 0) quality.record(false, true);
  }
}

namespace {

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const std::string& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

}  // namespace

std::string run_capture(const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = -1;
  std::vector<char*> args = c_argv(argv);
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    throw std::runtime_error("cannot start " + argv[0]);
  }
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (wait_child(pid, 60.0) != 0) {
    throw std::runtime_error(argv[0] + " failed: " + out);
  }
  return out;
}

pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  std::vector<char*> args = c_argv(argv);
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot start " + argv[0]);
  return pid;
}

int wait_child(pid_t pid, double timeout_s) {
  const Clock::time_point t0 = Clock::now();
  int status = 0;
  while (true) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0) return 127;
    if (ms_since(t0) > timeout_s * 1000.0) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      break;
    }
    usleep(2000);
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 127;
}

void write_file(const std::string& path, const std::string& bytes) {
  const fs::path p(path);
  if (p.has_parent_path()) fs::create_directories(p.parent_path());
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
