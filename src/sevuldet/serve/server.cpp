#include "sevuldet/serve/server.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sevuldet/nn/kernels.hpp"
#include "sevuldet/util/json.hpp"
#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/metrics_export.hpp"
#include "sevuldet/util/trace.hpp"

namespace sevuldet::serve {

namespace {

std::chrono::steady_clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Server::Server(core::SeVulDet& detector, ServeOptions options)
    : detector_(detector), options_(std::move(options)) {
  options_.threads = std::max(1, options_.threads);
  options_.queue_depth = std::max(1, options_.queue_depth);
  const models::Detector& model = detector_.model();
  clones_.reserve(static_cast<std::size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) clones_.push_back(model.clone());
  backend_name_ = model.name();
  if (options_.telemetry) {
    ring_ = std::make_unique<telemetry::SampleRing>(
        static_cast<std::size_t>(std::max(1, options_.history_capacity)));
    if (!options_.access_log_path.empty()) {
      access_log_ = std::make_unique<util::RotatingFileSink>(
          options_.access_log_path, options_.access_log_max_bytes,
          options_.access_log_max_files);
    }
    if (options_.slow_trace_ms >= 0.0 && !options_.slow_trace_dir.empty()) {
      slow_traces_ = std::make_unique<telemetry::SlowTraceWriter>(
          options_.slow_trace_dir, options_.slow_trace_max_files);
    }
  }
}

void Server::request_shutdown() {
  accepting_ = false;
  stop_ = true;
}

void Server::run() {
  if (!detector_.trained()) {
    throw std::runtime_error("serve: detector has no model loaded");
  }
  util::UnixListener listener = util::UnixListener::bind(options_.socket_path);
  if (options_.telemetry) {
    // The live plane needs the registry on; pre-register the counters a
    // scraper expects so the first exposition already carries them at 0
    // (check_metrics.py's monotonicity check differences two scrapes).
    util::metrics::set_enabled(true);
    util::metrics::label_set("nn.kernel_isa", nn::kernels::kernel_isa());
    util::metrics::counter_add("serve.connections", 0);
    util::metrics::counter_add("serve.requests", 0);
    util::metrics::counter_add("serve.slowtrace.captured", 0);
    {
      std::lock_guard lock(snapshot_mu_);
      snapshot_stop_ = false;
    }
    take_resource_sample();  // ring and proc.* gauges are never empty
    snapshotter_ = std::thread([this] { snapshot_loop(); });
  }
  workers_.reserve(static_cast<std::size_t>(options_.threads));
  for (auto& clone : clones_) {
    workers_.emplace_back([this, &model = *clone] { worker_loop(model); });
  }
  while (!stop_) {
    std::optional<util::UnixStream> peer =
        listener.accept(options_.accept_timeout_ms);
    reap_connections();
    if (!peer.has_value()) continue;
    ++connections_total_;
    ++connections_active_;
    util::metrics::counter_add("serve.connections");
    Connection& conn = conns_.emplace_back();
    conn.thread = std::thread([this, &done = conn.done,
                               stream = std::move(*peer)]() mutable {
      handle_connection(std::move(stream));
      done = true;
    });
  }
  // Drain, in dependency order: stop accepting connections (and unlink
  // the socket file), let the workers finish every admitted request,
  // then release the connection threads (each blocked reply future has
  // resolved by now). Joining everything here is what makes the
  // post-run() metrics snapshot complete: every per-thread shard retires
  // before the caller writes --metrics-out.
  listener.close();
  {
    std::lock_guard lock(queue_mu_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  conn_stop_ = true;
  for (Connection& conn : conns_) conn.thread.join();
  conns_.clear();
  if (snapshotter_.joinable()) {
    take_resource_sample();  // final point: last gauges reflect the drain
    {
      std::lock_guard lock(snapshot_mu_);
      snapshot_stop_ = true;
    }
    snapshot_cv_.notify_all();
    snapshotter_.join();
  }
  if (access_log_ != nullptr) access_log_->flush();
}

void Server::reap_connections() {
  // Join the threads of connections that have hung up, so a long-lived
  // daemon holds only live connections' stacks, not one per connection
  // ever served.
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::worker_loop(models::Detector& model) {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (draining_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto dequeued = std::chrono::steady_clock::now();
    util::trace::record_span("serve.queue", job.enqueued, dequeued);
    if (job.timing != nullptr) {
      job.timing->queue_ms =
          std::chrono::duration<double, std::milli>(dequeued - job.enqueued)
              .count();
    }
    job.promise.set_value(process(job, model));
  }
}

Response Server::process(Job& job, models::Detector& model) {
  if (std::chrono::steady_clock::now() >= job.deadline) {
    return error_response(job.request.id, ErrorCode::DeadlineExceeded,
                          "deadline exceeded while queued");
  }
  try {
    if (job.request.op == Op::ScanTree) {
      // Directory scans reuse the exact parallel frontend the CLI runs
      // in-process (core::scan_tree), so findings and drop counters are
      // identical through either path.
      util::trace::ScopedSpan span("serve.scan_tree");
      const auto infer_start = std::chrono::steady_clock::now();
      core::ScanOptions scan_options;
      scan_options.detect.top_k = job.request.top_k;
      scan_options.threads = options_.threads;
      core::TreeScanResult tree =
          core::scan_tree(detector_, job.request.root, scan_options);
      if (job.timing != nullptr) job.timing->infer_ms = ms_since(infer_start);
      if (std::chrono::steady_clock::now() >= job.deadline) {
        return error_response(job.request.id, ErrorCode::DeadlineExceeded,
                              "deadline exceeded during tree scan");
      }
      return status_response(job.request.id, tree_scan_to_json(tree));
    }
    util::trace::ScopedSpan span("serve.infer");
    const auto infer_start = std::chrono::steady_clock::now();
    const bool explain = job.request.op == Op::Explain;
    core::DetectOptions detect_options;
    detect_options.top_k = job.request.top_k;
    detect_options.explain = explain;
    std::vector<core::PreparedGadget> prepared =
        detector_.prepare(job.request.source);
    std::vector<models::BatchItem> items;
    items.reserve(prepared.size());
    for (const core::PreparedGadget& gadget : prepared) {
      items.push_back({&gadget.ids, explain, &gadget.graph});
    }
    std::vector<models::Prediction> predictions = model.predict_batch(items);
    if (job.timing != nullptr) {
      job.timing->infer_ms = ms_since(infer_start);
      job.timing->batch_size = static_cast<int>(prepared.size());
    }
    std::vector<core::Finding> findings;
    for (std::size_t i = 0; i < prepared.size(); ++i) {
      std::optional<core::Finding> finding = detector_.finding_from_prediction(
          prepared[i], predictions[i], detect_options);
      if (finding.has_value()) findings.push_back(std::move(*finding));
    }
    core::SeVulDet::sort_findings(findings);
    if (std::chrono::steady_clock::now() >= job.deadline) {
      return error_response(job.request.id, ErrorCode::DeadlineExceeded,
                            "deadline exceeded during inference");
    }
    return findings_response(job.request.id, std::move(findings));
  } catch (const std::exception& e) {
    return error_response(job.request.id, ErrorCode::Internal, e.what());
  }
}

void Server::handle_connection(util::UnixStream stream) {
  while (!conn_stop_) {
    if (!stream.wait_readable(options_.accept_timeout_ms)) continue;
    std::optional<std::string> payload;
    try {
      payload = stream.recv_frame(options_.max_frame_bytes,
                                  options_.recv_timeout_ms);
    } catch (const util::FrameError& e) {
      // A malformed frame means the stream is desynchronized: name the
      // defect in a typed error, then close — never resynchronize by
      // guessing.
      util::metrics::counter_add("serve.errors.bad_frame");
      ++errors_;
      try {
        stream.send_frame(response_to_json(error_response(
                              0, ErrorCode::BadRequest,
                              std::string("bad frame: ") + e.what())),
                          options_.max_frame_bytes);
      } catch (...) {
        // Peer already gone; nothing to report to.
      }
      break;
    } catch (const util::SocketError&) {
      break;
    }
    if (!payload.has_value()) break;  // clean EOF: client hung up

    const auto received = std::chrono::steady_clock::now();
    Response response;
    RequestTiming timing;
    std::string trace_id;
    const char* op_label = "?";
    std::future<Response> pending;
    bool queued = false;
    bool shutdown_after_reply = false;
    std::optional<Request> request;
    {
      util::trace::ScopedSpan span("serve.accept");
      try {
        request = parse_request(*payload);
      } catch (const std::exception& e) {
        response = error_response(0, ErrorCode::BadRequest, e.what());
      }
      if (request.has_value()) {
        // Resolve the request ID up front (the scan path moves the
        // request into its Job): propagate the client's, otherwise
        // mint one when the telemetry plane is on.
        op_label = op_name(request->op);
        trace_id = request->trace_id;
      }
      if (trace_id.empty() && options_.telemetry) trace_id = next_trace_id();
      if (request.has_value()) {
        switch (request->op) {
          case Op::ReportStatus:
            ++requests_status_;
            response = status_response(request->id, status_json());
            break;
          case Op::Metrics: {
            // Served inline on the connection thread — like
            // report-status — so a scrape works even when the admission
            // queue is full or the daemon is draining.
            util::trace::ScopedSpan export_span("serve.export");
            ++requests_metrics_;
            response = status_response(
                request->id, metrics_json(request->format, request->history));
            break;
          }
          case Op::Shutdown:
            ++requests_shutdown_;
            response = ok_response(request->id);
            shutdown_after_reply = true;
            break;
          case Op::Scan:
          case Op::Explain:
          case Op::ScanTree: {
            if (request->op == Op::Scan) {
              ++requests_scan_;
            } else if (request->op == Op::Explain) {
              ++requests_explain_;
            } else {
              ++requests_scan_tree_;
            }
            if (!accepting_) {
              response = error_response(request->id, ErrorCode::ShuttingDown,
                                        "daemon is shutting down");
              break;
            }
            Job job;
            job.request = std::move(*request);
            job.timing = &timing;
            job.enqueued = received;
            const double budget = job.request.deadline_ms >= 0.0
                                      ? job.request.deadline_ms
                                      : options_.default_deadline_ms;
            job.deadline = received + ms_duration(budget);
            pending = job.promise.get_future();
            const std::int64_t id = job.request.id;
            bool admitted = false;
            {
              std::lock_guard lock(queue_mu_);
              if (!draining_ &&
                  static_cast<int>(queue_.size()) < options_.queue_depth) {
                queue_.push_back(std::move(job));
                const int depth = static_cast<int>(queue_.size());
                if (depth > queue_peak_.load()) queue_peak_.store(depth);
                admitted = true;
              }
            }
            if (admitted) {
              queue_cv_.notify_one();
              queued = true;
            } else {
              response = error_response(
                  id, ErrorCode::QueueFull,
                  "admission queue full (depth " +
                      std::to_string(options_.queue_depth) + ")");
            }
            break;
          }
        }
      }
    }
    if (queued) response = pending.get();
    response.trace_id = trace_id;
    util::metrics::counter_add("serve.requests");
    ++requests_total_;
    if (response.error.has_value()) {
      ++errors_;
      util::metrics::counter_add(std::string("serve.errors.") +
                                 error_code_name(response.error->code));
    }
    const std::string reply = response_to_json(response);
    try {
      util::trace::ScopedSpan span("serve.reply");
      stream.send_frame(reply, options_.max_frame_bytes);
    } catch (...) {
      break;  // peer vanished mid-reply
    }
    const double total_ms = ms_since(received);
    util::metrics::observe_ms("serve.request_ms", total_ms);
    finish_request(op_label, response, timing, payload->size(), reply.size(),
                   total_ms);
    if (shutdown_after_reply) {
      request_shutdown();
      break;
    }
  }
  stream.close();
  --connections_active_;
}

void Server::snapshot_loop() {
  std::unique_lock lock(snapshot_mu_);
  while (!snapshot_stop_) {
    const bool stopped = snapshot_cv_.wait_for(
        lock, ms_duration(options_.telemetry_interval_ms),
        [&] { return snapshot_stop_; });
    if (stopped) return;
    lock.unlock();
    take_resource_sample();
    lock.lock();
  }
}

void Server::take_resource_sample() {
  util::trace::ScopedSpan span("telemetry.snapshot");
  std::size_t depth = 0;
  {
    std::lock_guard lock(queue_mu_);
    depth = queue_.size();
  }
  const telemetry::ResourceSample sample = telemetry::sample_process(
      static_cast<double>(depth), requests_total_.load());
  ring_->push(sample);
  util::metrics::gauge_set("proc.rss_bytes", sample.rss_bytes);
  util::metrics::gauge_set("proc.cpu_user_seconds", sample.cpu_user_seconds);
  util::metrics::gauge_set("proc.cpu_sys_seconds", sample.cpu_sys_seconds);
  util::metrics::gauge_set("proc.open_fds", sample.open_fds);
  util::metrics::gauge_set("serve.queue_depth", sample.queue_depth);
}

std::string Server::next_trace_id() {
  return telemetry::make_trace_id(
      trace_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
}

std::string Server::metrics_json(const std::string& format,
                                 int history) const {
  namespace json = util::json;
  std::string out;
  out += "{\"format\":";
  json::append_string(out, format);
  if (format == "prometheus") {
    out += ",\"exposition\":";
    json::append_string(out, util::metrics::to_prometheus());
  } else {
    out += ",\"metrics\":";
    out += util::metrics::to_json();
  }
  out += ",\"history\":";
  std::vector<telemetry::ResourceSample> samples;
  if (ring_ != nullptr && history > 0) {
    samples = ring_->last(static_cast<std::size_t>(history));
  }
  out += telemetry::samples_to_json(samples);
  out += '}';
  return out;
}

void Server::finish_request(const char* op_label, const Response& response,
                            const RequestTiming& timing,
                            std::size_t request_bytes,
                            std::size_t response_bytes, double total_ms) {
  if (!options_.telemetry) return;
  // Only data-plane requests are tail-traced: a metrics scrape or
  // shutdown ack crossing the threshold is control-plane noise, and the
  // CI forced-slow probe (--slow-trace-ms 0 + one scan) relies on
  // exactly one capture per scan.
  const bool data_plane = std::strcmp(op_label, "scan") == 0 ||
                          std::strcmp(op_label, "explain") == 0 ||
                          std::strcmp(op_label, "scan-tree") == 0;
  const bool slow = data_plane && slow_traces_ != nullptr &&
                    options_.slow_trace_ms >= 0.0 &&
                    total_ms >= options_.slow_trace_ms;
  if (access_log_ == nullptr && !slow) return;
  telemetry::AccessRecord record;
  record.trace_id = response.trace_id;
  record.op = op_label;
  record.unix_seconds = std::chrono::duration<double>(
                            std::chrono::system_clock::now().time_since_epoch())
                            .count();
  record.request_bytes = static_cast<long long>(request_bytes);
  record.response_bytes = static_cast<long long>(response_bytes);
  record.queue_ms = timing.queue_ms;
  record.infer_ms = timing.infer_ms;
  record.total_ms = total_ms;
  record.batch_size = timing.batch_size;
  record.backend = backend_name_;
  if (response.error.has_value()) {
    record.error = error_code_name(response.error->code);
  }
  if (access_log_ != nullptr) {
    // Slow requests flush through to disk immediately so their log line
    // is on disk alongside the trace dump even if the daemon dies next.
    access_log_->append_line(telemetry::access_record_to_json(record), slow);
  }
  if (slow) {
    std::vector<telemetry::SlowTraceWriter::Span> spans;
    if (timing.queue_ms > 0.0) {
      spans.push_back({"serve.queue", 0.0, timing.queue_ms});
    }
    if (timing.infer_ms > 0.0) {
      spans.push_back({"serve.infer", timing.queue_ms, timing.infer_ms});
    }
    if (!slow_traces_->capture(record, spans).empty()) {
      util::metrics::counter_add("serve.slowtrace.captured");
    }
  }
}

std::string Server::status_json() const {
  namespace json = util::json;
  std::size_t depth = 0;
  {
    std::lock_guard lock(queue_mu_);
    depth = queue_.size();
  }
  std::string out;
  out += "{\"requests\":{\"scan\":";
  json::append_number(out, static_cast<double>(requests_scan_.load()));
  out += ",\"explain\":";
  json::append_number(out, static_cast<double>(requests_explain_.load()));
  out += ",\"scan-tree\":";
  json::append_number(out, static_cast<double>(requests_scan_tree_.load()));
  out += ",\"report-status\":";
  json::append_number(out, static_cast<double>(requests_status_.load()));
  out += ",\"metrics\":";
  json::append_number(out, static_cast<double>(requests_metrics_.load()));
  out += ",\"shutdown\":";
  json::append_number(out, static_cast<double>(requests_shutdown_.load()));
  out += "},\"errors\":";
  json::append_number(out, static_cast<double>(errors_.load()));
  out += ",\"queue\":{\"depth\":";
  json::append_number(out, static_cast<double>(depth));
  out += ",\"limit\":";
  json::append_number(out, options_.queue_depth);
  out += ",\"peak\":";
  json::append_number(out, queue_peak_.load());
  // Peak activation-scratch bytes across the worker clones: the daemon's
  // steady-state inference footprint (scratch capacity only grows).
  std::size_t arena_bytes = 0;
  for (const auto& clone : clones_) arena_bytes += clone->scratch_bytes();
  out += "},\"arena_high_water_bytes\":";
  json::append_number(out, static_cast<double>(arena_bytes));
  out += ",\"threads\":";
  json::append_number(out, options_.threads);
  out += ",\"kernel_isa\":";
  json::append_string(out, nn::kernels::kernel_isa());
  out += ",\"connections\":{\"active\":";
  json::append_number(out, connections_active_.load());
  out += ",\"total\":";
  json::append_number(out, static_cast<double>(connections_total_.load()));
  out += "}}";
  return out;
}

}  // namespace sevuldet::serve
