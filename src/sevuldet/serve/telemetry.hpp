// Live telemetry primitives for the serve daemon: process resource
// sampling into a bounded time-series ring (served by the `metrics`
// op's history field), schema-versioned JSON access-log records, and a
// bounded on-disk writer for tail-sampled slow-request traces.
//
// Everything here is passive plumbing — the policy (sampling interval,
// slow threshold, file bounds) lives in ServeOptions; the server's
// snapshotter thread and request path drive these types.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sevuldet::serve::telemetry {

/// One point of the daemon's resource time series. All fields are
/// gauges at sample time except `requests`, which is the cumulative
/// request count — clients (sevuldet top) difference consecutive
/// samples to derive QPS without having to poll twice.
struct ResourceSample {
  double unix_seconds = 0.0;      // wall clock, seconds since the epoch
  double rss_bytes = 0.0;         // resident set size
  double cpu_user_seconds = 0.0;  // cumulative user CPU (getrusage)
  double cpu_sys_seconds = 0.0;   // cumulative system CPU
  double open_fds = 0.0;          // /proc/self/fd entry count
  double queue_depth = 0.0;       // admission queue depth at sample time
  long long requests = 0;         // cumulative serve.requests
};

/// Sample the process: RSS from /proc/self/statm, CPU from getrusage,
/// open fds from /proc/self/fd (Linux; zero on other platforms), plus
/// the caller-supplied queue depth and cumulative request count.
ResourceSample sample_process(double queue_depth, long long requests);

/// Fixed-capacity ring of resource samples; push overwrites the oldest
/// once full. Thread-safe: the snapshotter pushes while connection
/// threads serve history reads.
class SampleRing {
 public:
  explicit SampleRing(std::size_t capacity);

  void push(const ResourceSample& sample);

  /// The most recent min(n, size) samples, oldest first.
  std::vector<ResourceSample> last(std::size_t n) const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::vector<ResourceSample> buffer_;
  std::size_t capacity_;
  std::size_t next_ = 0;   // write position
  std::size_t count_ = 0;  // total stored (saturates at capacity_)
};

/// JSON array of samples (each an object with the ResourceSample field
/// names), oldest first. Embedded in the `metrics` op response.
std::string samples_to_json(const std::vector<ResourceSample>& samples);

/// One access-log record: everything the daemon knows about a finished
/// request. Serialized as a single JSON line (schema_version 1) so the
/// log is greppable and machine-parseable without a framing parser.
struct AccessRecord {
  std::string trace_id;        // server-generated or client-propagated
  std::string op;              // wire op name ("scan", "metrics", ...)
  double unix_seconds = 0.0;   // completion wall-clock time
  long long request_bytes = 0;
  long long response_bytes = 0;
  double queue_ms = 0.0;       // admission -> dequeue (0 for inline ops)
  double infer_ms = 0.0;       // prepare + batched scoring
  double total_ms = 0.0;       // receive -> reply sent
  int batch_size = 0;          // gadgets scored for this request
  std::string backend;         // detector backend name
  std::string error;           // wire error code, empty on success
};

/// {"schema_version":1,"trace_id":...,...} — one line, no newline.
std::string access_record_to_json(const AccessRecord& record);

/// Tail-sampling slow-request trace writer: capture() renders a small
/// Chrome trace_event JSON for one slow request (span tree with the
/// trace_id in every event's args) into `dir`, keeping at most
/// `max_files` files by writing into a slot ring (slow-<k>.json,
/// k = captures % max_files) — bounded disk no matter how many requests
/// cross the threshold. Thread-safe.
class SlowTraceWriter {
 public:
  SlowTraceWriter(std::string dir, int max_files);

  /// One span of the request timeline; times are milliseconds relative
  /// to request receipt.
  struct Span {
    const char* name;
    double start_ms;
    double dur_ms;
  };

  /// Write the trace file for `record`; returns the path written, or
  /// empty when the directory is not writable. Never throws.
  std::string capture(const AccessRecord& record,
                      const std::vector<Span>& spans);

  long long captured() const;

 private:
  mutable std::mutex mutex_;
  std::string dir_;
  int max_files_;
  long long captured_ = 0;
};

/// Render the slow-trace JSON document (exposed for tests).
std::string slow_trace_json(const AccessRecord& record,
                            const std::vector<SlowTraceWriter::Span>& spans);

/// Server-generated request IDs: "<pid-hex>-<seq>". Monotonic per
/// process, unique across daemon restarts on one machine in practice.
std::string make_trace_id(std::uint64_t sequence);

}  // namespace sevuldet::serve::telemetry
