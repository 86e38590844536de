// The `sevuldet serve` daemon core: a Unix-domain-socket server that
// loads the model once and answers scan / explain / report-status /
// shutdown requests (serve/protocol.hpp) over checksummed frames
// (util/socket.hpp).
//
// Threading model:
//
//   acceptor (run())          one per-connection thread per client
//   ─ accept loop ──────────▶ ─ recv frame ─ parse ─ admit ─┐
//   ─ join finished                                         ▼
//     connection threads      bounded admission queue (queue_depth)
//                                                           │
//   worker threads (threads)  ◀─ dequeue ── deadline check ─┘
//   ─ prepare() ─ clone.predict_batch() ─ findings ───────▶ promise
//                                                           │
//   connection thread         ◀─ future ── send reply ──────┘
//
// The admission queue is the only queue between a request and the
// model: each worker owns one model clone and scores its request's
// gadgets in one length-bucketed predict_batch() call. Admission is
// bounded: a full queue yields a typed queue_full error instead of
// unbounded buffering. Every request carries a deadline (its own
// deadline_ms or the server default), checked at dequeue and again
// after inference — exceeding it yields a typed deadline_exceeded
// error, never a silent slow reply. The accept loop joins connection
// threads that have finished on every pass, so the daemon holds
// threads (and their stacks) only for live connections.
//
// Shutdown (the `shutdown` op or request_shutdown()) is a drain, not an
// abort: the ack is sent, the listener closes (socket file unlinked),
// already-admitted requests complete and their replies are delivered,
// and only then are workers and connection threads joined — so run()
// returns with every per-thread metrics shard retired and the final
// --metrics-out snapshot complete.
//
// Request lifecycle spans: serve.accept (parse + admission),
// serve.queue (admission -> dequeue, recorded cross-thread),
// serve.infer (prepare + batched scoring), serve.reply (serialize +
// send).
//
// Live telemetry (ServeOptions::telemetry): the `metrics` op answers
// with the registry (JSON snapshot or Prometheus text) plus a bounded
// resource-sample history ring filled by a snapshotter thread
// (telemetry.snapshot span; proc.rss_bytes / proc.cpu_*_seconds /
// proc.open_fds / serve.queue_depth gauges). Every request gets a
// trace_id (client-propagated or server-generated), echoed in the
// response, written to the structured access log (one schema-v1 JSON
// line per request through a rotating file sink), and stamped into the
// args of tail-sampled slow-request trace dumps
// (serve.slowtrace.captured counts them). The metrics op is handled
// inline on the connection thread — like report-status — so scrapes
// keep working when the admission queue is full.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <cstdint>
#include <memory>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/serve/protocol.hpp"
#include "sevuldet/serve/telemetry.hpp"
#include "sevuldet/util/log.hpp"
#include "sevuldet/util/socket.hpp"

namespace sevuldet::serve {

struct ServeOptions {
  std::string socket_path;
  int threads = 1;          // request workers, one model clone each
  int queue_depth = 64;     // admission queue bound -> queue_full beyond
  double default_deadline_ms = 30000.0;  // for requests without one
  std::size_t max_frame_bytes = util::kDefaultMaxFrameBytes;
  int accept_timeout_ms = 100;  // accept/readability poll granularity —
                                // bounds shutdown latency
  int recv_timeout_ms = 30000;  // mid-frame stall bound per connection

  /// Live telemetry plane (PR 10). Off by default so embedded servers
  /// (tests, benches) keep the registry exactly as they configured it;
  /// the `sevuldet serve` CLI turns it on unless --no-telemetry.
  /// When on: run() enables the metrics registry, starts the resource
  /// snapshotter thread (proc.* gauges + the history ring served by the
  /// `metrics` op), generates a trace_id per request, and — when the
  /// paths below are set — writes access-log lines and slow-trace
  /// dumps.
  bool telemetry = false;
  double telemetry_interval_ms = 1000.0;  // snapshotter period
  int history_capacity = 300;             // resource-ring bound (~5 min)
  /// Structured access log: one schema-v1 JSON line per finished
  /// request, size-rotated. Empty path = no access log.
  std::string access_log_path;
  std::size_t access_log_max_bytes = 8u << 20;
  int access_log_max_files = 4;
  /// Tail-based slow-request tracing: requests slower than this get a
  /// Chrome-trace dump (trace_id in span args) into slow_trace_dir,
  /// bounded at slow_trace_max_files. <0 disables; 0 captures every
  /// request (the CI forced-slow probe). Requires telemetry.
  double slow_trace_ms = -1.0;
  std::string slow_trace_dir;
  int slow_trace_max_files = 16;
};

class Server {
 public:
  /// The detector must be trained (model loaded); the reference must
  /// outlive the server.
  Server(core::SeVulDet& detector, ServeOptions options);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and serve until a shutdown request (or
  /// request_shutdown()). Returns only after the admission queue has
  /// drained and every thread this server started has been joined.
  /// Throws SocketError if the socket cannot be bound.
  void run();

  /// Ask a running run() to stop (thread-safe; idempotent). New scans
  /// are rejected with shutting_down immediately; run() returns after
  /// the drain.
  void request_shutdown();

  /// The report-status payload: request/error counts, queue stats, the
  /// workers' inference scratch bytes, thread and connection counts.
  std::string status_json() const;

  const ServeOptions& options() const { return options_; }

  /// The `metrics` op payload: {"format":..., "metrics": <registry
  /// snapshot> | "exposition": "<prometheus text>", "history":[...]}.
  std::string metrics_json(const std::string& format, int history) const;

 private:
  /// Worker-measured timings handed back to the connection thread
  /// through the Job (the promise/future pair orders the writes): queue
  /// wait, inference time, and gadgets scored, for the access log.
  struct RequestTiming {
    double queue_ms = 0.0;
    double infer_ms = 0.0;
    int batch_size = 0;
  };

  struct Job {
    Request request;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
    std::promise<Response> promise;
    RequestTiming* timing = nullptr;  // connection-thread stack slot
  };

  /// A connection's thread; `done` is set as the thread's last step so
  /// the accept loop can join it without blocking.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void worker_loop(models::Detector& model);
  void reap_connections();
  void handle_connection(util::UnixStream stream);
  Response process(Job& job, models::Detector& model);
  void snapshot_loop();
  void take_resource_sample();
  std::string next_trace_id();
  void finish_request(const char* op_label, const Response& response,
                      const RequestTiming& timing, std::size_t request_bytes,
                      std::size_t response_bytes, double total_ms);

  core::SeVulDet& detector_;
  ServeOptions options_;
  std::vector<std::unique_ptr<models::Detector>> clones_;  // one per worker

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool draining_ = false;  // workers: finish the queue, then exit

  std::atomic<bool> accepting_{true};   // admission gate for new scans
  std::atomic<bool> stop_{false};       // acceptor exit
  std::atomic<bool> conn_stop_{false};  // connection threads exit

  std::vector<std::thread> workers_;
  std::list<Connection> conns_;  // acceptor-owned; live connections only

  std::atomic<long long> requests_scan_{0};
  std::atomic<long long> requests_explain_{0};
  std::atomic<long long> requests_scan_tree_{0};
  std::atomic<long long> requests_status_{0};
  std::atomic<long long> requests_metrics_{0};
  std::atomic<long long> requests_shutdown_{0};
  std::atomic<long long> errors_{0};
  std::atomic<long long> connections_total_{0};
  std::atomic<int> connections_active_{0};
  std::atomic<int> queue_peak_{0};
  std::atomic<long long> requests_total_{0};  // all ops, for QPS deltas

  // Telemetry plane (all null / idle when options_.telemetry is off).
  std::unique_ptr<telemetry::SampleRing> ring_;
  std::unique_ptr<util::RotatingFileSink> access_log_;
  std::unique_ptr<telemetry::SlowTraceWriter> slow_traces_;
  std::atomic<std::uint64_t> trace_seq_{0};
  std::thread snapshotter_;
  std::mutex snapshot_mu_;
  std::condition_variable snapshot_cv_;
  bool snapshot_stop_ = false;
  std::string backend_name_;
};

}  // namespace sevuldet::serve
