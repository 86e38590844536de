#include "sevuldet/serve/telemetry.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "sevuldet/util/json.hpp"

#ifdef __linux__
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace sevuldet::serve::telemetry {

namespace json = util::json;

namespace {

double now_unix_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

#ifdef __linux__
double read_rss_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "rb");
  if (statm == nullptr) return 0.0;
  long long pages_total = 0, pages_resident = 0;
  const int read = std::fscanf(statm, "%lld %lld", &pages_total,
                               &pages_resident);
  std::fclose(statm);
  if (read != 2) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double count_open_fds() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0.0;
  long long count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;  // "." and ".."
    ++count;
  }
  closedir(dir);
  // The opendir fd itself is in the listing; don't count it.
  return static_cast<double>(count > 0 ? count - 1 : 0);
}
#endif

}  // namespace

ResourceSample sample_process(double queue_depth, long long requests) {
  ResourceSample sample;
  sample.unix_seconds = now_unix_seconds();
  sample.queue_depth = queue_depth;
  sample.requests = requests;
#ifdef __linux__
  sample.rss_bytes = read_rss_bytes();
  sample.open_fds = count_open_fds();
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    sample.cpu_user_seconds = static_cast<double>(usage.ru_utime.tv_sec) +
                              static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
    sample.cpu_sys_seconds = static_cast<double>(usage.ru_stime.tv_sec) +
                             static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  }
#endif
  return sample;
}

SampleRing::SampleRing(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {
  buffer_.resize(capacity_);
}

void SampleRing::push(const ResourceSample& sample) {
  std::lock_guard lock(mutex_);
  buffer_[next_] = sample;
  next_ = (next_ + 1) % capacity_;
  if (count_ < capacity_) ++count_;
}

std::vector<ResourceSample> SampleRing::last(std::size_t n) const {
  std::lock_guard lock(mutex_);
  const std::size_t take = n < count_ ? n : count_;
  std::vector<ResourceSample> out;
  out.reserve(take);
  // next_ is one past the newest; walk back `take` slots, emit forward.
  const std::size_t start = (next_ + capacity_ - take) % capacity_;
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(buffer_[(start + i) % capacity_]);
  }
  return out;
}

std::size_t SampleRing::size() const {
  std::lock_guard lock(mutex_);
  return count_;
}

std::string samples_to_json(const std::vector<ResourceSample>& samples) {
  std::string out;
  out.reserve(128 * samples.size() + 2);
  out += '[';
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ResourceSample& s = samples[i];
    if (i != 0) out += ',';
    out += "{\"unix_seconds\":";
    json::append_number(out, s.unix_seconds);
    out += ",\"rss_bytes\":";
    json::append_number(out, s.rss_bytes);
    out += ",\"cpu_user_seconds\":";
    json::append_number(out, s.cpu_user_seconds);
    out += ",\"cpu_sys_seconds\":";
    json::append_number(out, s.cpu_sys_seconds);
    out += ",\"open_fds\":";
    json::append_number(out, s.open_fds);
    out += ",\"queue_depth\":";
    json::append_number(out, s.queue_depth);
    out += ",\"requests\":";
    json::append_number(out, static_cast<double>(s.requests));
    out += '}';
  }
  out += ']';
  return out;
}

std::string access_record_to_json(const AccessRecord& record) {
  std::string out;
  out.reserve(256);
  out += "{\"schema_version\":1,\"trace_id\":";
  json::append_string(out, record.trace_id);
  out += ",\"op\":";
  json::append_string(out, record.op);
  out += ",\"unix_seconds\":";
  json::append_number(out, record.unix_seconds);
  out += ",\"request_bytes\":";
  json::append_number(out, static_cast<double>(record.request_bytes));
  out += ",\"response_bytes\":";
  json::append_number(out, static_cast<double>(record.response_bytes));
  out += ",\"queue_ms\":";
  json::append_number(out, record.queue_ms);
  out += ",\"infer_ms\":";
  json::append_number(out, record.infer_ms);
  out += ",\"total_ms\":";
  json::append_number(out, record.total_ms);
  out += ",\"batch_size\":";
  json::append_number(out, record.batch_size);
  // Scoring is always fp32; the key stays because access-log schema v1
  // carries it.
  out += ",\"precision\":\"fp32\"";
  out += ",\"backend\":";
  json::append_string(out, record.backend);
  out += ",\"error\":";
  json::append_string(out, record.error);
  out += '}';
  return out;
}

std::string slow_trace_json(const AccessRecord& record,
                            const std::vector<SlowTraceWriter::Span>& spans) {
  std::string out;
  out.reserve(512 + 160 * spans.size());
  out += "{\"schema_version\":1,\"displayTimeUnit\":\"ms\",\"trace_id\":";
  json::append_string(out, record.trace_id);
  out += ",\"traceEvents\":[";
  bool first = true;
  auto event = [&](const char* name, double start_ms, double dur_ms) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    json::append_string(out, name);
    out += ",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    json::append_number(out, start_ms * 1000.0);  // Chrome wants µs
    out += ",\"dur\":";
    json::append_number(out, dur_ms * 1000.0);
    out += ",\"args\":{\"trace_id\":";
    json::append_string(out, record.trace_id);
    out += ",\"op\":";
    json::append_string(out, record.op);
    if (!record.error.empty()) {
      out += ",\"error\":";
      json::append_string(out, record.error);
    }
    out += "}}";
  };
  event("serve.request", 0.0, record.total_ms);
  for (const SlowTraceWriter::Span& span : spans) {
    event(span.name, span.start_ms, span.dur_ms);
  }
  out += "]}";
  return out;
}

SlowTraceWriter::SlowTraceWriter(std::string dir, int max_files)
    : dir_(std::move(dir)), max_files_(max_files > 0 ? max_files : 1) {}

std::string SlowTraceWriter::capture(const AccessRecord& record,
                                     const std::vector<Span>& spans) {
  const std::string body = slow_trace_json(record, spans);
  std::lock_guard lock(mutex_);
  const long long slot = captured_ % max_files_;
  std::string path = dir_ + "/slow-" + std::to_string(slot) + ".json";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return std::string();
  std::fwrite(body.data(), 1, body.size(), file);
  std::fclose(file);
  ++captured_;
  return path;
}

long long SlowTraceWriter::captured() const {
  std::lock_guard lock(mutex_);
  return captured_;
}

std::string make_trace_id(std::uint64_t sequence) {
  std::uint64_t pid = 0;
#ifdef __linux__
  pid = static_cast<std::uint64_t>(getpid());
#endif
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%llx-%llu",
                static_cast<unsigned long long>(pid),
                static_cast<unsigned long long>(sequence));
  return buffer;
}

}  // namespace sevuldet::serve::telemetry
