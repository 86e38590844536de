// The telemetry plane's building blocks, bottom-up: Prometheus text
// exposition (name sanitization, label escaping, cumulative buckets —
// the edges tools/check_metrics.py gates on), the resource-sample ring,
// access-log records, the bounded slow-trace writer, the rotating log
// sink (including sink swaps racing concurrent loggers), and the
// `metrics` op / trace_id protocol round-trips.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sevuldet/serve/protocol.hpp"
#include "sevuldet/serve/telemetry.hpp"
#include "sevuldet/util/log.hpp"
#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/metrics_export.hpp"
#include "sevuldet/util/mini_json.hpp"

namespace fs = std::filesystem;
namespace serve = sevuldet::serve;
namespace telemetry = sevuldet::serve::telemetry;
namespace metrics = sevuldet::util::metrics;
namespace mini_json = sevuldet::util::mini_json;
using sevuldet::util::LogLevel;
using sevuldet::util::RotatingFileSink;

namespace {

fs::path fresh_dir(const char* tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("sevuldet_telemetry_" + std::to_string(::getpid()) + "_" +
                  tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// ---------------------------------------------------------------------
// Prometheus exposition.

TEST(PrometheusExport, NameIsPrefixedAndSanitized) {
  EXPECT_EQ("sevuldet_serve_request_ms",
            metrics::prometheus_name("serve.request_ms"));
  EXPECT_EQ("sevuldet_a_b_c", metrics::prometheus_name("a.b-c"));
  EXPECT_EQ("sevuldet_sp_n_y", metrics::prometheus_name("sp%n y"));
  EXPECT_EQ("sevuldet_", metrics::prometheus_name(""));
}

TEST(PrometheusExport, LabelValuesEscapePerSpec) {
  EXPECT_EQ("plain", metrics::prometheus_escape_label("plain"));
  EXPECT_EQ("a\\\\b", metrics::prometheus_escape_label("a\\b"));
  EXPECT_EQ("say \\\"hi\\\"", metrics::prometheus_escape_label("say \"hi\""));
  EXPECT_EQ("line\\nbreak", metrics::prometheus_escape_label("line\nbreak"));
  EXPECT_EQ("\\\\\\\"\\n",
            metrics::prometheus_escape_label("\\\"\n"));  // all three at once
}

TEST(PrometheusExport, EmptySnapshotRendersEmpty) {
  EXPECT_EQ("", metrics::to_prometheus(metrics::Snapshot{}));
}

TEST(PrometheusExport, CountersAndGaugesTyped) {
  metrics::Snapshot snapshot;
  snapshot.counters["serve.requests"] = 7;
  snapshot.gauges["proc.rss_bytes"] = 123456.0;
  const std::string text = metrics::to_prometheus(snapshot);
  EXPECT_NE(std::string::npos,
            text.find("# TYPE sevuldet_serve_requests counter\n"
                      "sevuldet_serve_requests 7\n"));
  EXPECT_NE(std::string::npos,
            text.find("# TYPE sevuldet_proc_rss_bytes gauge\n"
                      "sevuldet_proc_rss_bytes 123456\n"));
}

TEST(PrometheusExport, RegistryLabelsBecomeInfoSamples) {
  metrics::Snapshot snapshot;
  snapshot.labels["backend"] = "SEVulDet(CNN-MultiATT)";
  snapshot.labels["note"] = "has \"quotes\"\nand\\slash";
  const std::string text = metrics::to_prometheus(snapshot);
  EXPECT_NE(std::string::npos, text.find("# TYPE sevuldet_label_info gauge\n"));
  EXPECT_NE(std::string::npos,
            text.find("sevuldet_label_info{name=\"backend\","
                      "value=\"SEVulDet(CNN-MultiATT)\"} 1\n"));
  EXPECT_NE(std::string::npos,
            text.find("sevuldet_label_info{name=\"note\","
                      "value=\"has \\\"quotes\\\"\\nand\\\\slash\"} 1\n"));
}

TEST(PrometheusExport, SingleSampleHistogram) {
  metrics::Snapshot snapshot;
  metrics::HistogramSnapshot h;
  h.count = 1;
  h.sum = 2.5;
  h.min = h.max = 2.5;
  h.buckets = {{4.0, 1}};
  snapshot.histograms["serve.request_ms"] = h;
  const std::string text = metrics::to_prometheus(snapshot);
  EXPECT_NE(std::string::npos,
            text.find("# TYPE sevuldet_serve_request_ms histogram\n"));
  EXPECT_NE(std::string::npos,
            text.find("sevuldet_serve_request_ms_bucket{le=\"4\"} 1\n"));
  EXPECT_NE(std::string::npos,
            text.find("sevuldet_serve_request_ms_bucket{le=\"+Inf\"} 1\n"));
  EXPECT_NE(std::string::npos, text.find("sevuldet_serve_request_ms_sum 2.5\n"));
  EXPECT_NE(std::string::npos, text.find("sevuldet_serve_request_ms_count 1\n"));
}

/// The registry stores per-bucket counts; the exposition must emit
/// cumulative counts, with the +Inf bucket equal to _count even when
/// the sparse per-bucket list does not cover every observation bound.
TEST(PrometheusExport, BucketsAccumulateAndInfMatchesCount) {
  metrics::Snapshot snapshot;
  metrics::HistogramSnapshot h;
  h.count = 6;
  h.sum = 40.0;
  h.buckets = {{1.0, 2}, {8.0, 3}, {64.0, 1}};
  snapshot.histograms["x"] = h;
  const std::string text = metrics::to_prometheus(snapshot);
  EXPECT_NE(std::string::npos, text.find("sevuldet_x_bucket{le=\"1\"} 2\n"));
  EXPECT_NE(std::string::npos, text.find("sevuldet_x_bucket{le=\"8\"} 5\n"));
  EXPECT_NE(std::string::npos, text.find("sevuldet_x_bucket{le=\"64\"} 6\n"));
  EXPECT_NE(std::string::npos, text.find("sevuldet_x_bucket{le=\"+Inf\"} 6\n"));
  EXPECT_NE(std::string::npos, text.find("sevuldet_x_count 6\n"));
}

TEST(PrometheusExport, DeterministicForASnapshot) {
  metrics::Snapshot snapshot;
  snapshot.counters["b"] = 2;
  snapshot.counters["a"] = 1;
  snapshot.gauges["g"] = 0.5;
  metrics::HistogramSnapshot h;
  h.count = 3;
  h.sum = 9.0;
  h.buckets = {{2.0, 3}};
  snapshot.histograms["h"] = h;
  EXPECT_EQ(metrics::to_prometheus(snapshot), metrics::to_prometheus(snapshot));
  // Sorted maps in, sorted text out: "a" renders before "b".
  const std::string text = metrics::to_prometheus(snapshot);
  EXPECT_LT(text.find("sevuldet_a 1"), text.find("sevuldet_b 2"));
}

/// Exporting the live registry while other threads observe must always
/// produce internally consistent text: every export's +Inf bucket
/// equals its _count (the snapshot is a point-in-time merge, never a
/// torn read).
TEST(PrometheusExport, ConsistentUnderConcurrentObservation) {
  metrics::reset();
  metrics::set_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&stop] {
      for (int i = 0; !stop.load(); ++i) {
        metrics::counter_add("teltest.ops");
        metrics::observe_ms("teltest.ms", 0.5 + (i % 7));
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    const std::string text = metrics::to_prometheus();
    const std::string inf_line = "sevuldet_teltest_ms_bucket{le=\"+Inf\"} ";
    const std::string count_line = "sevuldet_teltest_ms_count ";
    auto inf_at = text.find(inf_line);
    auto count_at = text.find(count_line);
    if (inf_at == std::string::npos) continue;  // before the first observe
    ASSERT_NE(std::string::npos, count_at);
    const std::string inf_value =
        text.substr(inf_at + inf_line.size(),
                    text.find('\n', inf_at) - inf_at - inf_line.size());
    const std::string count_value =
        text.substr(count_at + count_line.size(),
                    text.find('\n', count_at) - count_at - count_line.size());
    EXPECT_EQ(inf_value, count_value) << "round " << round;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  metrics::set_enabled(false);
  metrics::reset();
}

// ---------------------------------------------------------------------
// Resource sampling ring.

TEST(TelemetryRing, SampleProcessReportsLiveProcess) {
  const telemetry::ResourceSample sample = telemetry::sample_process(3.0, 42);
  EXPECT_GT(sample.unix_seconds, 1.5e9);  // sometime after 2017
  EXPECT_EQ(3.0, sample.queue_depth);
  EXPECT_EQ(42, sample.requests);
#ifdef __linux__
  EXPECT_GT(sample.rss_bytes, 0.0);
  EXPECT_GT(sample.open_fds, 0.0);
  EXPECT_GE(sample.cpu_user_seconds + sample.cpu_sys_seconds, 0.0);
#endif
}

TEST(TelemetryRing, BoundedOldestFirstOverwrite) {
  telemetry::SampleRing ring(3);
  EXPECT_EQ(0u, ring.size());
  EXPECT_TRUE(ring.last(5).empty());
  for (int i = 1; i <= 5; ++i) {
    telemetry::ResourceSample sample;
    sample.requests = i;
    ring.push(sample);
  }
  EXPECT_EQ(3u, ring.size());
  EXPECT_EQ(3u, ring.capacity());
  const auto last2 = ring.last(2);
  ASSERT_EQ(2u, last2.size());
  EXPECT_EQ(4, last2[0].requests);  // oldest of the two
  EXPECT_EQ(5, last2[1].requests);
  const auto all = ring.last(99);  // clamps to size
  ASSERT_EQ(3u, all.size());
  EXPECT_EQ(3, all[0].requests);
  EXPECT_EQ(5, all[2].requests);
}

TEST(TelemetryRing, SamplesJsonParses) {
  telemetry::ResourceSample sample;
  sample.unix_seconds = 1700000000.25;
  sample.rss_bytes = 1048576.0;
  sample.cpu_user_seconds = 1.5;
  sample.queue_depth = 2.0;
  sample.requests = 9;
  mini_json::Value doc = mini_json::parse(telemetry::samples_to_json({sample}));
  ASSERT_EQ(1u, doc.array.size());
  EXPECT_EQ(1700000000.25, doc.array[0].at("unix_seconds").number);
  EXPECT_EQ(1048576.0, doc.array[0].at("rss_bytes").number);
  EXPECT_EQ(9.0, doc.array[0].at("requests").number);
  EXPECT_EQ("[]", telemetry::samples_to_json({}));
}

// ---------------------------------------------------------------------
// Access-log records.

TEST(TelemetryAccessLog, RecordLeadsWithSchemaAndRoundTrips) {
  telemetry::AccessRecord record;
  record.trace_id = "abc-7";
  record.op = "scan";
  record.unix_seconds = 1700000000.5;
  record.request_bytes = 321;
  record.response_bytes = 654;
  record.queue_ms = 0.25;
  record.infer_ms = 3.5;
  record.total_ms = 4.75;
  record.batch_size = 2;
  record.backend = "SEVulDet(CNN-MultiATT)";
  record.error = "";
  const std::string line = telemetry::access_record_to_json(record);
  EXPECT_EQ(0u, line.find("{\"schema_version\":1,\"trace_id\":\"abc-7\""));
  EXPECT_EQ(std::string::npos, line.find('\n'));
  mini_json::Value doc = mini_json::parse(line);
  EXPECT_EQ("scan", doc.at("op").str);
  EXPECT_EQ(321.0, doc.at("request_bytes").number);
  EXPECT_EQ(654.0, doc.at("response_bytes").number);
  EXPECT_EQ(0.25, doc.at("queue_ms").number);
  EXPECT_EQ(3.5, doc.at("infer_ms").number);
  EXPECT_EQ(4.75, doc.at("total_ms").number);
  EXPECT_EQ(2.0, doc.at("batch_size").number);
  EXPECT_EQ("fp32", doc.at("precision").str);
  EXPECT_EQ("", doc.at("error").str);
}

TEST(TelemetryAccessLog, EscapesAwkwardStrings) {
  telemetry::AccessRecord record;
  record.trace_id = "id\"quote";
  record.error = "line\nbreak\\slash";
  mini_json::Value doc =
      mini_json::parse(telemetry::access_record_to_json(record));
  EXPECT_EQ("id\"quote", doc.at("trace_id").str);
  EXPECT_EQ("line\nbreak\\slash", doc.at("error").str);
}

// ---------------------------------------------------------------------
// Slow-trace writer.

TEST(TelemetrySlowTrace, JsonIsChromeTraceWithTraceIdArgs) {
  telemetry::AccessRecord record;
  record.trace_id = "feed-1";
  record.op = "scan";
  record.total_ms = 12.0;
  const std::vector<telemetry::SlowTraceWriter::Span> spans = {
      {"serve.queue", 0.0, 2.0}, {"serve.infer", 2.0, 9.5}};
  mini_json::Value doc =
      mini_json::parse(telemetry::slow_trace_json(record, spans));
  const auto& events = doc.at("traceEvents").array;
  ASSERT_GE(events.size(), 2u);
  for (const auto& event : events) {
    EXPECT_EQ("feed-1", event.at("args").at("trace_id").str);
    EXPECT_EQ("scan", event.at("args").at("op").str);
  }
  // Times are microseconds relative to request receipt.
  bool saw_infer = false;
  for (const auto& event : events) {
    if (event.at("name").str != "serve.infer") continue;
    saw_infer = true;
    EXPECT_EQ(2000.0, event.at("ts").number);
    EXPECT_EQ(9500.0, event.at("dur").number);
  }
  EXPECT_TRUE(saw_infer);
}

TEST(TelemetrySlowTrace, SlotRingBoundsFiles) {
  const fs::path dir = fresh_dir("slowring");
  telemetry::SlowTraceWriter writer(dir.string(), /*max_files=*/2);
  telemetry::AccessRecord record;
  record.op = "scan";
  record.trace_id = "first";
  EXPECT_EQ((dir / "slow-0.json").string(), writer.capture(record, {}));
  record.trace_id = "second";
  EXPECT_EQ((dir / "slow-1.json").string(), writer.capture(record, {}));
  record.trace_id = "third";  // wraps onto slot 0
  EXPECT_EQ((dir / "slow-0.json").string(), writer.capture(record, {}));
  EXPECT_EQ(3, writer.captured());
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(2u, files);
  EXPECT_NE(std::string::npos, read_file(dir / "slow-0.json").find("third"));
  EXPECT_NE(std::string::npos, read_file(dir / "slow-1.json").find("second"));
  fs::remove_all(dir);
}

TEST(TelemetrySlowTrace, UnwritableDirYieldsEmptyPathNotThrow) {
  telemetry::SlowTraceWriter writer("/nonexistent/sevuldet/slowdir", 4);
  telemetry::AccessRecord record;
  record.trace_id = "x";
  EXPECT_EQ("", writer.capture(record, {}));
  EXPECT_EQ(0, writer.captured());
}

TEST(TelemetryTraceId, MonotonicAndPidScoped) {
  const std::string a = telemetry::make_trace_id(1);
  const std::string b = telemetry::make_trace_id(2);
  EXPECT_NE(a, b);
  ASSERT_NE(std::string::npos, a.find('-'));
  // Same pid prefix, different sequence suffix.
  EXPECT_EQ(a.substr(0, a.find('-')), b.substr(0, b.find('-')));
  EXPECT_EQ("1", a.substr(a.find('-') + 1));
  EXPECT_EQ("2", b.substr(b.find('-') + 1));
}

// ---------------------------------------------------------------------
// Rotating file sink.

TEST(RotatingSink, RotatesAtSizeBoundKeepingMaxFiles) {
  const fs::path dir = fresh_dir("rotate");
  const fs::path path = dir / "app.log";
  {
    RotatingFileSink sink(path.string(), /*max_bytes=*/64, /*max_files=*/3);
    for (int i = 0; i < 40; ++i) {
      sink.append_line("line-" + std::to_string(i));
    }
    sink.flush();
    EXPECT_GT(sink.rotations(), 0);
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path.string() + ".1"));
  // max_files=3 keeps the live file + .1 + .2, never .3.
  EXPECT_FALSE(fs::exists(path.string() + ".3"));
  EXPECT_LE(fs::file_size(path), 64u);
  // The newest line is in the live file; rotated files hold older ones.
  EXPECT_NE(std::string::npos, read_file(path).find("line-39"));
  fs::remove_all(dir);
}

TEST(RotatingSink, WriteFormatsLevelPrefixedLines) {
  const fs::path dir = fresh_dir("sinkwrite");
  const fs::path path = dir / "app.log";
  {
    RotatingFileSink sink(path.string());
    sink.write(LogLevel::Warn, "[WARN] something odd");
    sink.write(LogLevel::Error, "[ERROR] broke");  // flush-on-error path
  }
  const std::string content = read_file(path);
  EXPECT_NE(std::string::npos, content.find("[WARN] something odd\n"));
  EXPECT_NE(std::string::npos, content.find("[ERROR] broke\n"));
  fs::remove_all(dir);
}

/// Swapping the global sink while other threads log must never tear a
/// line or crash: each line lands whole in exactly one sink generation.
TEST(RotatingSink, GlobalSinkSwapRacesLoggersSafely) {
  const fs::path dir = fresh_dir("sinkswap");
  const LogLevel previous_level = sevuldet::util::log_level();
  sevuldet::util::set_log_level(LogLevel::Info);
  std::atomic<bool> stop{false};
  std::vector<std::thread> loggers;
  for (int t = 0; t < 2; ++t) {
    loggers.emplace_back([&stop, t] {
      for (int i = 0; !stop.load(); ++i) {
        sevuldet::util::log_info("t" + std::to_string(t) + " line " +
                                 std::to_string(i));
      }
    });
  }
  // Swap a fresh file sink in every few ms; the displaced sink is
  // destroyed as soon as the swap returns, while loggers keep running.
  for (int swap = 0; swap < 10; ++swap) {
    const fs::path path = dir / ("swap-" + std::to_string(swap) + ".log");
    sevuldet::util::set_log_sink(
        std::make_shared<RotatingFileSink>(path.string()));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& t : loggers) t.join();
  sevuldet::util::set_log_sink(nullptr);  // restore the stderr default
  sevuldet::util::set_log_level(previous_level);
  for (int swap = 0; swap < 10; ++swap) {
    const fs::path path = dir / ("swap-" + std::to_string(swap) + ".log");
    ASSERT_TRUE(fs::exists(path));
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      EXPECT_EQ(0u, line.find("[INFO] t")) << "torn line: " << line;
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Protocol: the metrics op and trace_id propagation.

TEST(TelemetryProtocol, MetricsRequestRoundTrips) {
  serve::Request request;
  request.op = serve::Op::Metrics;
  request.id = 5;
  request.format = "prometheus";
  request.history = 60;
  serve::Request parsed = serve::parse_request(serve::request_to_json(request));
  EXPECT_EQ(serve::Op::Metrics, parsed.op);
  EXPECT_EQ("prometheus", parsed.format);
  EXPECT_EQ(60, parsed.history);
}

TEST(TelemetryProtocol, MetricsRequestValidation) {
  EXPECT_THROW(serve::parse_request(
                   "{\"op\":\"metrics\",\"id\":1,\"format\":\"xml\"}"),
               std::exception);
  EXPECT_THROW(
      serve::parse_request("{\"op\":\"metrics\",\"id\":1,\"history\":-3}"),
      std::exception);
  // Defaults: json format, no history.
  serve::Request parsed =
      serve::parse_request("{\"op\":\"metrics\",\"id\":1}");
  EXPECT_EQ("json", parsed.format);
  EXPECT_EQ(0, parsed.history);
}

TEST(TelemetryProtocol, TraceIdRoundTripsBothDirections) {
  serve::Request request;
  request.op = serve::Op::Scan;
  request.id = 3;
  request.source = "int main() { return 0; }";
  request.trace_id = "client-chosen-\"id\"";
  serve::Request parsed = serve::parse_request(serve::request_to_json(request));
  EXPECT_EQ(request.trace_id, parsed.trace_id);

  serve::Response response;
  response.id = 3;
  response.ok = true;
  response.trace_id = "client-chosen-\"id\"";
  serve::Response back =
      serve::parse_response(serve::response_to_json(response));
  EXPECT_EQ(response.trace_id, back.trace_id);
}

/// An absent trace_id stays absent on the wire — non-telemetry traffic
/// serializes byte-identically to the pre-telemetry protocol.
TEST(TelemetryProtocol, EmptyTraceIdAddsNoWireBytes) {
  serve::Request request;
  request.op = serve::Op::Scan;
  request.id = 1;
  request.source = "x";
  EXPECT_EQ(std::string::npos,
            serve::request_to_json(request).find("trace_id"));
  serve::Response response;
  response.id = 1;
  response.ok = true;
  EXPECT_EQ(std::string::npos,
            serve::response_to_json(response).find("trace_id"));
}

}  // namespace
